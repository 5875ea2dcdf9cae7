//! Verifier output: typed findings, per-access verdicts and the
//! per-firmware report the tools render.
//!
//! Everything here is plain data with a deterministic order (apps in
//! image order, findings and accesses in ascending address order), so a
//! serialised report is byte-stable across runs — the CI golden-fixture
//! check depends on that.

use amulet_core::checks::CheckSite;
use amulet_core::method::IsolationMethod;
use std::fmt;

/// A structural defect the CFG recovery found in an app's code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Finding {
    /// A control transfer whose target is odd — the CPU refuses to fetch
    /// from odd addresses, so following this edge faults.
    OddTarget {
        /// Address of the transferring instruction.
        at: u32,
        /// The odd target.
        target: u32,
    },
    /// A control transfer to an address that holds no instruction inside
    /// the app's own code region.
    OutOfImage {
        /// Address of the transferring instruction.
        at: u32,
        /// The wild target.
        target: u32,
    },
    /// A contiguous run of instructions no entry point reaches.
    DeadCode {
        /// First unreached address.
        addr: u32,
        /// Number of unreached instructions in the run.
        instrs: u32,
    },
    /// An indirect control transfer (`br`/`call` through a register); the
    /// verifier over-approximates its targets with every function entry
    /// of the app.
    IndirectFlow {
        /// Address of the indirect transfer.
        at: u32,
        /// Whether it is a call (otherwise a branch).
        call: bool,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::OddTarget { at, target } => {
                write!(f, "odd branch target {target:#06x} at {at:#06x}")
            }
            Finding::OutOfImage { at, target } => {
                write!(f, "out-of-image branch target {target:#06x} at {at:#06x}")
            }
            Finding::DeadCode { addr, instrs } => {
                write!(f, "dead code: {instrs} unreachable instrs from {addr:#06x}")
            }
            Finding::IndirectFlow { at, call } => {
                let what = if *call { "call" } else { "branch" };
                write!(f, "indirect {what} at {at:#06x}")
            }
        }
    }
}

/// The verifier's verdict on one reachable memory-touching instruction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum AccessVerdict {
    /// Every address the access can touch is inside the app's planned,
    /// permission-compatible region: the access cannot escape.
    ProvenSafe,
    /// The verdict could not be decided: the address over-approximation
    /// spans both planned and unplanned space.
    Unknown,
    /// Every address the access can touch is outside the app's planned
    /// region (denied or unpoliced): executing it escapes or faults.
    ProvenEscape,
}

impl AccessVerdict {
    /// Stable lower-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AccessVerdict::ProvenSafe => "proven-safe",
            AccessVerdict::Unknown => "unknown",
            AccessVerdict::ProvenEscape => "proven-escape",
        }
    }
}

impl fmt::Display for AccessVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One classified memory access.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AccessClass {
    /// Address of the instruction.
    pub at: u32,
    /// Rendered instruction text.
    pub instr: String,
    /// Whether the access writes (otherwise it reads).
    pub write: bool,
    /// Lower bound of the abstract target-address interval.
    pub lo: u16,
    /// Upper bound of the abstract target-address interval.
    pub hi: u16,
    /// The verdict.
    pub verdict: AccessVerdict,
}

/// Verification results for one application.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AppVerification {
    /// Application name.
    pub app: String,
    /// Number of entry points the CFG walk started from (handlers, plus
    /// every function entry when the app performs indirect calls).
    pub entry_points: usize,
    /// Reachable instructions.
    pub reachable_instrs: usize,
    /// Unreachable instructions inside the app's code region.
    pub dead_instrs: usize,
    /// Structural findings, ascending address order.
    pub findings: Vec<Finding>,
    /// Every reachable memory access, ascending address order.
    pub accesses: Vec<AccessClass>,
    /// Check sites proven redundant (guarded access proven in bounds),
    /// ascending address order.  Only populated when check-site metadata
    /// is supplied (i.e. when verifying a [`BuildOutput`], not a bare
    /// image).
    ///
    /// [`BuildOutput`]: amulet_aft::aft::BuildOutput
    pub elidable_sites: Vec<CheckSite>,
    /// Total elidable-kind check sites the compiler emitted for this app
    /// (the denominator of [`elidable_sites`](Self::elidable_sites)).
    pub elidable_candidates: usize,
}

impl AppVerification {
    /// Count of accesses with the given verdict.
    pub fn count(&self, verdict: AccessVerdict) -> usize {
        self.accesses
            .iter()
            .filter(|a| a.verdict == verdict)
            .count()
    }
}

/// The verifier's report for one firmware image.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyReport {
    /// Platform the image was linked for.
    pub platform: String,
    /// Isolation method the image was built with.
    pub method: IsolationMethod,
    /// Per-app results, in image order.
    pub apps: Vec<AppVerification>,
}

impl VerifyReport {
    /// Total accesses proven safe across all apps.
    pub fn proven_safe(&self) -> usize {
        self.apps
            .iter()
            .map(|a| a.count(AccessVerdict::ProvenSafe))
            .sum()
    }

    /// Total accesses proven to escape across all apps.
    pub fn proven_escape(&self) -> usize {
        self.apps
            .iter()
            .map(|a| a.count(AccessVerdict::ProvenEscape))
            .sum()
    }

    /// Total undecided accesses across all apps.
    pub fn unknown(&self) -> usize {
        self.apps
            .iter()
            .map(|a| a.count(AccessVerdict::Unknown))
            .sum()
    }

    /// Total check sites proven redundant across all apps.
    pub fn elidable_sites(&self) -> usize {
        self.apps.iter().map(|a| a.elidable_sites.len()).sum()
    }

    /// The image passes the pre-flight gate when no reachable access is
    /// proven to escape.
    pub fn passes_gate(&self) -> bool {
        self.proven_escape() == 0
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verifier: {} / {} — {} safe, {} unknown, {} escape, {} elidable",
            self.platform,
            self.method,
            self.proven_safe(),
            self.unknown(),
            self.proven_escape(),
            self.elidable_sites(),
        )?;
        for app in &self.apps {
            writeln!(
                f,
                "  {}: {} reachable, {} dead, {} findings",
                app.app,
                app.reachable_instrs,
                app.dead_instrs,
                app.findings.len()
            )?;
            for finding in &app.findings {
                writeln!(f, "    {finding}")?;
            }
            for access in &app.accesses {
                if access.verdict != AccessVerdict::Unknown {
                    writeln!(
                        f,
                        "    {:#06x} {} → {}",
                        access.at, access.instr, access.verdict
                    )?;
                }
            }
        }
        Ok(())
    }
}
