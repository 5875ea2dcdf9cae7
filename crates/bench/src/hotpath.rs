//! The hot-path bench: how fast does the simulator execute instructions,
//! and how many fleet devices per second does that buy?
//!
//! Two measurements, both emitted as `BENCH_hotpath.json` so the repo
//! keeps a perf trajectory across PRs:
//!
//! * **Microbench** — a tight arithmetic/load/store loop executed on one
//!   device with the MPU enabled, measured once with the bus's access-
//!   attribute cache on (the shipping configuration) and once with it off
//!   (every access runs the region cascade + MPU backend directly).  The
//!   ratio isolates what the flat attribute table buys on the per-access
//!   path; instruction fetch is O(1) in both modes.
//! * **Fleet throughput** — wall-clock devices/second for a
//!   [`FleetScenario`] run, the number the ROADMAP's "as fast as the
//!   hardware allows" goal is tracked by.  The JSON also records the
//!   pre-optimisation baseline measured at the commit this bench was
//!   introduced, so the speedup is visible without digging through git
//!   history.

use crate::json::Json;
use amulet_core::perm::AccessKind;
use amulet_fleet::{simulate, FleetScenario};
use amulet_mcu::code::InstrStore;
use amulet_mcu::cpu::StepEvent;
use amulet_mcu::device::{Device, StopReason};
use amulet_mcu::isa::{AluOp, Instr, Reg, Width};
use amulet_mcu::mpu::{MPUCTL0, MPUSAM, MPUSEGB1, MPUSEGB2};
use std::time::Instant;

/// The `fleet_sim` devices/second measured immediately **before** the
/// hot-path optimisation landed (BTreeMap instruction fetch, per-access
/// region cascade + MPU dispatch), on the reference dev container: 1000
/// devices, 120 events each, 1 worker, default scenario seed.  Kept as the
/// denominator of the speedup this bench reports.
pub const BASELINE_FLEET_DEVICES_PER_SECOND: f64 = 225.0;

/// Shape of the baseline measurement (what `fleet_sim` was invoked with).
pub const BASELINE_FLEET_SCENARIO: (usize, usize, usize) = (1000, 120, 1);

/// One microbench measurement.
#[derive(Clone, Copy, Debug)]
pub struct MicrobenchResult {
    /// Whether the access-attribute cache was enabled.
    pub attr_cache: bool,
    /// Instructions executed.
    pub instructions: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Simulated instructions per wall-clock second.
    pub instr_per_second: f64,
}

/// One fleet-throughput measurement.
#[derive(Clone, Copy, Debug)]
pub struct FleetThroughput {
    /// Devices simulated.
    pub devices: usize,
    /// Events delivered per device (per delivery policy).
    pub events_per_device: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Devices simulated per wall-clock second.
    pub devices_per_second: f64,
}

/// Builds the microbench device: a counting loop in MPU segment 1
/// (execute-only) that stores and re-loads its counter through segment 2
/// (read/write), with the segmented MPU enabled — so every iteration pays
/// one instruction-fetch check and two data-access checks, exactly the
/// per-access work the attribute cache collapses to a table index.
fn microbench_device() -> (Device, InstrStore) {
    let mut dev = Device::msp430fr5969();
    // Segment boundaries 0x6000/0x8000; seg1 execute-only, seg2 RW.
    dev.bus.write(MPUSEGB1, 2, 0x600).expect("segb1");
    dev.bus.write(MPUSEGB2, 2, 0x800).expect("segb2");
    dev.bus.write(MPUSAM, 2, 0x0034).expect("sam");
    dev.bus.write(MPUCTL0, 2, 0xA501).expect("ctl0");

    let mut code = InstrStore::new();
    let base = 0x4400;
    let mut cursor = base;
    let body = [
        Instr::MovImm {
            dst: Reg::R4,
            imm: 0,
        },
        Instr::MovImm {
            dst: Reg::R5,
            imm: 0x6000,
        },
        // loop:
        Instr::AluImm {
            op: AluOp::Add,
            dst: Reg::R4,
            imm: 1,
        },
        Instr::Store {
            src: Reg::R4,
            base: Reg::R5,
            offset: 0,
            width: Width::Word,
        },
        Instr::Load {
            dst: Reg::R6,
            base: Reg::R5,
            offset: 0,
            width: Width::Word,
        },
        Instr::Alu {
            op: AluOp::Xor,
            dst: Reg::R6,
            src: Reg::R4,
        },
        Instr::Jmp { target: 0x4408 },
    ];
    for i in &body {
        code.insert(cursor, *i);
        cursor += i.size_bytes();
    }
    debug_assert_eq!(cursor, 0x441A, "loop layout: Jmp target must be 0x4408");
    dev.cpu.set_pc(base);
    dev.cpu.set_sp(0x2400);
    (dev, code)
}

/// Runs the tight loop for `steps` instructions and reports the rate.
pub fn run_microbench(steps: u64, attr_cache: bool) -> MicrobenchResult {
    let (mut dev, code) = microbench_device();
    dev.bus.set_attr_cache_enabled(attr_cache);
    dev.code = std::sync::Arc::new(code);
    // Warm up (resolves the attribute table outside the timed region).
    assert!(dev.bus.check_execute(0x4400).is_ok());
    let started = Instant::now();
    let exit = dev.run(steps);
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(exit.reason, StopReason::StepLimit, "loop must not fault");
    assert_eq!(exit.steps, steps);
    MicrobenchResult {
        attr_cache,
        instructions: steps,
        wall_seconds: wall,
        instr_per_second: steps as f64 / wall.max(1e-9),
    }
}

/// Sanity-checks that the cached and direct paths agree on the microbench
/// device before any measurement is trusted: same decisions for a sweep of
/// reads/writes/fetches, and the same loop register state after `steps`
/// instructions.
pub fn verify_equivalence(steps: u64) -> bool {
    let (mut cached, code) = microbench_device();
    let (mut direct, code2) = microbench_device();
    direct.bus.set_attr_cache_enabled(false);
    cached.code = std::sync::Arc::new(code);
    direct.code = std::sync::Arc::new(code2);
    for addr in (0u32..0x1_0000).step_by(64) {
        for kind in [AccessKind::Read, AccessKind::Write, AccessKind::Execute] {
            let a = match kind {
                AccessKind::Read => cached.bus.read(addr, 1).is_ok(),
                AccessKind::Write => cached.bus.write(addr & !1, 2, 0).is_ok(),
                AccessKind::Execute => cached.bus.check_execute(addr & !1).is_ok(),
            };
            let b = match kind {
                AccessKind::Read => direct.bus.read(addr, 1).is_ok(),
                AccessKind::Write => direct.bus.write(addr & !1, 2, 0).is_ok(),
                AccessKind::Execute => direct.bus.check_execute(addr & !1).is_ok(),
            };
            if a != b {
                return false;
            }
        }
    }
    // The sweep may have scribbled on the loop's data word; both devices
    // saw identical traffic, so the paired runs still must agree.
    for dev in [&mut cached, &mut direct] {
        dev.cpu.set_pc(0x4400);
        while let StepEvent::Continue = dev.step() {
            if dev.cpu.stats.instructions >= steps {
                break;
            }
        }
    }
    cached.cpu.reg(Reg::R4) == direct.cpu.reg(Reg::R4)
        && cached.cpu.cycles == direct.cpu.cycles
        && cached.bus.stats == direct.bus.stats
}

/// Runs a fleet scenario and reports wall-clock throughput.
pub fn run_fleet(devices: usize, events_per_device: usize, workers: usize) -> FleetThroughput {
    let scenario = FleetScenario {
        devices,
        events_per_device,
        ..FleetScenario::default()
    };
    let started = Instant::now();
    let report = simulate(&scenario, workers);
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(report.devices.len(), devices);
    FleetThroughput {
        devices,
        events_per_device,
        workers,
        wall_seconds: wall,
        devices_per_second: devices as f64 / wall.max(1e-9),
    }
}

/// Renders the whole document.
pub fn render_json(
    micro_cached: &MicrobenchResult,
    micro_direct: &MicrobenchResult,
    fleet: &FleetThroughput,
) -> String {
    let micro = |m: &MicrobenchResult| {
        Json::obj()
            .field("attr_cache", m.attr_cache)
            .field("instructions", m.instructions)
            .field("wall_seconds", m.wall_seconds)
            .field("instr_per_second", m.instr_per_second)
    };
    let (b_devices, b_events, b_workers) = BASELINE_FLEET_SCENARIO;
    Json::obj()
        .field("bench", "hotpath")
        .field(
            "baseline",
            Json::obj()
                .field(
                    "label",
                    "pre-optimisation fleet_sim (BTreeMap fetch, per-access MPU cascade)",
                )
                .field("devices", b_devices as u64)
                .field("events_per_device", b_events as u64)
                .field("workers", b_workers as u64)
                .field("devices_per_second", BASELINE_FLEET_DEVICES_PER_SECOND),
        )
        .field("current", {
            let mut current = Json::obj()
                .field("devices", fleet.devices as u64)
                .field("events_per_device", fleet.events_per_device as u64)
                .field("workers", fleet.workers as u64)
                .field("wall_seconds", fleet.wall_seconds)
                .field("devices_per_second", fleet.devices_per_second);
            // A speedup is only meaningful against the baseline's own
            // scenario shape — a smaller fleet or more workers would
            // inflate the ratio for reasons unrelated to the hot path.
            if (fleet.devices, fleet.events_per_device, fleet.workers) == BASELINE_FLEET_SCENARIO {
                current = current.field(
                    "speedup_vs_baseline",
                    fleet.devices_per_second / BASELINE_FLEET_DEVICES_PER_SECOND,
                );
            } else {
                current = current.field(
                    "speedup_vs_baseline_note",
                    "scenario shape differs from the baseline; ratio omitted",
                );
            }
            current
        })
        .field(
            "microbench",
            Json::obj()
                .field("attr_cache_on", micro(micro_cached))
                .field("attr_cache_off", micro(micro_direct))
                .field(
                    "access_path_speedup",
                    micro_cached.instr_per_second / micro_direct.instr_per_second.max(1e-9),
                ),
        )
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_loop_runs_and_reports_a_rate() {
        let r = run_microbench(10_000, true);
        assert_eq!(r.instructions, 10_000);
        assert!(r.instr_per_second > 0.0);
        let d = run_microbench(10_000, false);
        assert_eq!(d.instructions, 10_000);
    }

    #[test]
    fn cached_and_direct_paths_agree() {
        assert!(verify_equivalence(5_000));
    }

    #[test]
    fn fleet_throughput_smoke_and_json_shape() {
        let micro = run_microbench(1_000, true);
        let direct = run_microbench(1_000, false);
        let fleet = run_fleet(8, 10, 1);
        let text = render_json(&micro, &direct, &fleet);
        for needle in [
            "\"bench\": \"hotpath\"",
            "\"baseline\"",
            "\"devices_per_second\"",
            "\"access_path_speedup\"",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        // This fleet shape differs from the baseline's, so the speedup
        // ratio must be omitted in favour of the explanatory note.
        assert!(text.contains("\"speedup_vs_baseline_note\""));
        assert!(!text.contains("\"speedup_vs_baseline\":"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());

        // A baseline-shaped measurement reports the ratio (synthesised
        // here; running the full baseline fleet is too slow for a test).
        let (devices, events_per_device, workers) = BASELINE_FLEET_SCENARIO;
        let baseline_shaped = FleetThroughput {
            devices,
            events_per_device,
            workers,
            wall_seconds: 1.0,
            devices_per_second: devices as f64,
        };
        let text = render_json(&micro, &direct, &baseline_shaped);
        assert!(text.contains("\"speedup_vs_baseline\":"));
    }
}
