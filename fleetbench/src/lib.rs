//! # fleetbench
//!
//! The fleet benchmark's harness.  It drives `amulet-fleet` through its
//! public entry points only, exactly as `fleet_sim` does, and measures
//! host time around them; nothing in the simulator is instrumented, so
//! every simulated statistic is the same with or without the harness.
//!
//! - [`Workload`] names the three campaigns the benchmark runs and builds
//!   their scenarios from a seed.
//! - [`sample`] is one untraced measurement in a fresh process: set-up
//!   (distinct configurations plus an AFT build of each into a fresh
//!   in-memory store), then the timed simulate call against the
//!   prewarmed store, then the report digest and the peak resident set.
//! - [`reference_s`] times a fixed kernel of the harness's own, the host-
//!   speed reference the driver scales storm's throughput metrics by.
//! - [`trace::traced_sample`] is the traced measurement: it replays every
//!   device of the workload from outside, calling the same public layers
//!   the runner calls, records a span around each call and counts what
//!   each layer did, and reconciles the replay against the engine's
//!   report before it returns.

#![forbid(unsafe_code)]

pub mod trace;

use amulet_fleet::{
    simulate_in, simulate_summary_in, FirmwareStore, FleetAggregate, FleetScenario,
};
use std::time::Instant;

/// One of the benchmark's campaigns.  See README.md for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `FleetScenario::default()`: 1000 devices × 120 events, arrival
    /// order, every device active, through `simulate_in` (what `fleet_sim`
    /// runs with no flags).  Dominated by OS delivery and CPU dispatch.
    Dense,
    /// `FleetScenario::scaling(100_000)`: stepped, 6 events, 80 % silent,
    /// through `simulate_summary_in`.  Work is spread over per-device
    /// overheads: config derivation, traces, reset and boot, calendar
    /// bookkeeping, the silent cache and block folding.
    Sparse,
    /// `FleetScenario::storm(10_000)`: faulting, hung and quarantined
    /// handlers, the fault probe, OTA waves and ~2000 distinct images,
    /// through `simulate_summary_in`.
    Storm,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::Dense, Workload::Sparse, Workload::Storm];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dense => "dense",
            Workload::Sparse => "sparse",
            Workload::Storm => "storm",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The device count the benchmark runs the workload at.
    pub fn devices(self) -> usize {
        match self {
            Workload::Dense => 1000,
            Workload::Sparse => 100_000,
            Workload::Storm => 10_000,
        }
    }

    /// The workload's scenario at `devices` devices.  `seed` replaces the
    /// preset's own seed and changes nothing else; `None` keeps the
    /// preset's seed.
    pub fn scenario_at(self, devices: usize, seed: Option<u64>) -> FleetScenario {
        let mut scenario = match self {
            Workload::Dense => FleetScenario {
                devices,
                ..FleetScenario::default()
            },
            Workload::Sparse => FleetScenario::scaling(devices),
            Workload::Storm => FleetScenario::storm(devices),
        };
        if let Some(seed) = seed {
            scenario.seed = seed;
        }
        scenario
    }

    /// The workload's scenario at its benchmark size.
    pub fn scenario(self, seed: Option<u64>) -> FleetScenario {
        self.scenario_at(self.devices(), seed)
    }

    /// Runs the workload's simulate call — the phase the end-to-end
    /// throughput metrics time — against a caller-held store.
    pub fn run_engine(
        self,
        scenario: &FleetScenario,
        workers: usize,
        store: &FirmwareStore,
    ) -> FleetAggregate {
        match self {
            Workload::Dense => simulate_in(scenario, workers, store).aggregate,
            Workload::Sparse | Workload::Storm => {
                simulate_summary_in(scenario, workers, store).aggregate
            }
        }
    }
}

/// Report digests pinned for each workload's preset seed: `(workload,
/// devices, digest)`.  The full-size rows are checked by every benchmark
/// run on the preset seed; the small rows by the test suite.
pub const PINNED_DIGESTS: &[(Workload, usize, &str)] = &[
    (Workload::Dense, 1000, "47c3f182a11d8a7b"),
    (Workload::Sparse, 100_000, "b4213cd8e1650b8a"),
    (Workload::Storm, 10_000, "88aad4aae56fb466"),
    (Workload::Dense, 40, "c32643bfdca08d26"),
    (Workload::Sparse, 2000, "6ef3bb136cff2aad"),
    (Workload::Storm, 200, "247b537556e1799a"),
];

/// The pinned digest of `scenario`, when it runs `workload` on the
/// preset's own seed at a pinned size.
pub fn pinned_digest(workload: Workload, scenario: &FleetScenario) -> Option<&'static str> {
    if scenario.seed != workload.scenario_at(1, None).seed {
        return None;
    }
    PINNED_DIGESTS
        .iter()
        .find(|(w, devices, _)| *w == workload && *devices == scenario.devices)
        .map(|(_, _, digest)| *digest)
}

/// The FNV-1a64 digest, as 16 hex digits, of the deterministic report
/// document: `render_document` with no timing, scaling or store section,
/// which is a pure function of the scenario.
pub fn report_digest(scenario: &FleetScenario, aggregate: &FleetAggregate) -> String {
    digest_of(&amulet_bench::fleet_sim::render_document(
        scenario, 1, aggregate, None, None, None,
    ))
}

/// The FNV-1a64 digest of a rendered document, as 16 hex digits.
pub(crate) fn digest_of(document: &str) -> String {
    format!("{:016x}", amulet_core::serial::fnv1a64(document.as_bytes()))
}

/// The end-to-end metrics one [`sample`] measures, by name, with their
/// units.  `ok_share` is added by the driver, which counts the samples.
pub const SAMPLE_METRICS: &[(&str, &str)] = &[
    ("devices_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One untraced measurement.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Host seconds of the simulate call.
    pub run_s: f64,
    /// Deterministic report digest (see [`report_digest`]).
    pub digest: String,
    /// The pinned digest for this scenario, if it has one.
    pub pinned: Option<&'static str>,
    /// Metric values in [`SAMPLE_METRICS`] order.
    pub values: [f64; SAMPLE_METRICS.len()],
}

/// Simulated cycles and trace events (both delivery legs) of a report.
pub(crate) fn work_done(aggregate: &FleetAggregate) -> (u64, u64) {
    (
        aggregate.per_event.total_cycles + aggregate.batched.total_cycles,
        aggregate.per_event.events_delivered + aggregate.batched.events_delivered,
    )
}

/// Builds every distinct firmware image of `scenario` into a fresh store
/// — the AFT builds a cold `fleet_sim` pays — and returns the store.
pub fn prewarmed_store(scenario: &FleetScenario) -> FirmwareStore {
    let store = FirmwareStore::for_scenario(scenario);
    let configs = FirmwareStore::distinct_configs(scenario);
    store.prewarm_configs(&configs);
    store
}

/// One untraced measurement of `scenario`, a scenario of `workload`, on
/// `workers` threads; meant to run once per fresh process, so that
/// `peak_rss_mb` is this run's own.
pub fn sample(
    workload: Workload,
    scenario: &FleetScenario,
    workers: usize,
) -> Result<Sample, String> {
    let t = Instant::now();
    let store = prewarmed_store(scenario);
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let aggregate = std::hint::black_box(workload.run_engine(scenario, workers, &store));
    let run_s = t.elapsed().as_secs_f64();

    let (cycles, events) = work_done(&aggregate);
    Ok(Sample {
        run_s,
        digest: report_digest(scenario, &aggregate),
        pinned: pinned_digest(workload, scenario),
        values: [
            scenario.devices as f64 / run_s,
            events as f64 / run_s,
            cycles as f64 / run_s / 1e6,
            setup_s,
            peak_rss_mb()?,
        ],
    })
}

/// Steps each reference thread takes: ~0.28 s on a 2.0 GHz Xeon vCPU.
const REFERENCE_STEPS: u32 = 10_000_000;

/// Words in each reference thread's table: 64 MiB, far beyond the
/// last-level cache, as the simulator's device memory and images are.
const REFERENCE_WORDS: usize = 1 << 24;

/// Host seconds of the reference kernel on `workers` threads.  The kernel
/// is the harness's own fixed loop, shaped like the simulator's dispatch:
/// unpredictable branches and random loads and stores over a working set
/// far beyond the cache.  `run.py` runs it in a process of its own before
/// each untraced storm sample and scales storm's throughput metrics by it,
/// so that the host's slow memory phases cancel.  No program code runs in
/// it, so a change to the simulator cannot move it.
pub fn reference_s(workers: usize) -> f64 {
    let mut tables = vec![vec![1u32; REFERENCE_WORDS]; workers.max(1)];
    let t = Instant::now();
    std::thread::scope(|scope| {
        for (k, table) in tables.iter_mut().enumerate() {
            scope.spawn(move || reference_thread(table, k as u64));
        }
    });
    t.elapsed().as_secs_f64()
}

fn reference_thread(table: &mut [u32], seed: u64) {
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ seed;
    let mut acc = 0u32;
    for i in 0..REFERENCE_STEPS {
        // xorshift64: the "opcode" and the address of each step.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let idx = (x as usize) & mask;
        match (x >> 40) & 7 {
            0 | 1 => acc = acc.wrapping_add(table[idx]),
            2 => table[idx] = acc ^ i,
            3 => acc = acc.rotate_left(3),
            4 => acc = acc.wrapping_mul(0x9E37_79B9),
            5 => table[(idx + acc as usize) & mask] ^= i,
            _ => acc ^= i,
        }
    }
    std::hint::black_box(acc);
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Whether `name` may be used as a metric name: letters, digits, `_`,
/// `.` and `-` only, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
