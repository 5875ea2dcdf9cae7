//! Fleet-scale simulation bench: simulates a seeded device fleet and
//! prints the aggregate report (energy distribution, switch-overhead
//! share, fault counts, battery-impact histograms, and the per-event vs
//! batched delivery comparison) as JSON on stdout.  It writes no file
//! unless `--report-out` or `--store` asks for one.
//!
//! Usage:
//! `fleet_sim --devices N --workers N --events N --seed N --mode arrival-order|stepped
//!  --silent-permille N --preset scaling --summary`
//! (defaults: 1000 devices, one worker per host core, 120 events, the
//! scenario's default seed, `arrival-order`).  Every argument is a flag;
//! a bare word exits 2.
//!
//! * `--preset scaling` starts from [`FleetScenario::scaling`] — the
//!   mostly-silent, windowed campaign — before the other flags apply.
//!   `--preset storm` starts from [`FleetScenario::storm`]: the
//!   fault-injection campaign (adversarial apps, watchdog restart
//!   policy, OTA re-install wave), whose report gains `containment` and
//!   `ota_wave` aggregate sections.
//! * `--fault-permille N`, `--ota-permille N`, `--ota-corrupt-permille N`,
//!   `--ota-max-retries N` and `--step-budget N` set the campaign knobs
//!   individually on any scenario.  A per-mille value outside 0..=1000,
//!   or any number that does not fit its knob's type, exits 2.
//! * `--summary` streams block aggregation (`simulate_summary`) instead
//!   of materialising per-device results: bounded memory at 10⁵–10⁶
//!   devices, byte-identical document.
//! * `--store DIR` persists built firmwares in a content-addressable
//!   store under `DIR`: the run prewarms every distinct configuration
//!   through the store (timed separately from the campaign) and the
//!   report gains a `firmware_store` section with the store counters.
//!   Without it the store lives in memory.  `--paranoid` re-builds and
//!   byte-compares every image loaded from disk; `--store-cap-bytes N`
//!   bounds the directory (least-recently-used images evicted first).
//!   Both need `--store`; contradictory combinations exit 2.
//! * `--report-out FILE` additionally writes the *deterministic* document
//!   (no `timing` or `firmware_store` sections) to `FILE` — cold and
//!   warm store runs of the same scenario, and runs on any worker count,
//!   produce byte-identical files (`tests/fleet_sim_cli.rs` asserts it).
//! * `--verify` gates every firmware image through the `amulet-verify`
//!   static analyser before it enters the fleet (a proven-escape image
//!   aborts the run) and attaches a `verifier` section with the fleet's
//!   verdict counters.
//!
//! Wall-clock benchmarking with medians, spreads and peak RSS is
//! `fleetbench/` (`python3 fleetbench/run.py`); this binary's `timing`
//! section is a single run.

use amulet_bench::fleet_sim::{
    render_document, render_document_with, store_stats_json, verify_summary_json,
};
use amulet_bench::json::Json;
use amulet_fleet::{simulate_in, simulate_summary_in, FirmwareStore, FleetScenario, TimeMode};
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "usage: fleet_sim [--devices N] [--workers N] [--events N] [--seed N] \
     [--mode arrival-order|stepped] \
     [--silent-permille N] [--preset scaling|storm] [--fault-permille N] [--ota-permille N] \
     [--ota-corrupt-permille N] [--ota-max-retries N] [--step-budget N] [--summary] \
     [--store DIR] [--paranoid] [--store-cap-bytes N] [--report-out FILE] [--verify]";

/// Everything the command line can ask for, before it is resolved into a
/// scenario.
#[derive(Default)]
struct Cli {
    devices: Option<usize>,
    workers: Option<usize>,
    events: Option<usize>,
    seed: Option<u64>,
    mode: Option<TimeMode>,
    silent_permille: Option<u16>,
    fault_permille: Option<u16>,
    ota_permille: Option<u16>,
    ota_corrupt_permille: Option<u16>,
    ota_max_retries: Option<u32>,
    step_budget: Option<u64>,
    preset_scaling: bool,
    preset_storm: bool,
    summary: bool,
    store: Option<PathBuf>,
    paranoid: bool,
    store_cap_bytes: Option<u64>,
    report_out: Option<PathBuf>,
    verify: bool,
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_mode(s: &str) -> TimeMode {
    match s {
        "stepped" => TimeMode::Stepped,
        "arrival-order" | "arrival" => TimeMode::ArrivalOrder,
        other => fail(&format!("unknown mode {other:?}")),
    }
}

fn parse(args: impl Iterator<Item = String>) -> Cli {
    let mut cli = Cli::default();
    let mut it = args;
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| -> String {
        it.next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--devices" => cli.devices = Some(parse_num(&a, &value(&a, &mut it))),
            "--workers" => cli.workers = Some(parse_num(&a, &value(&a, &mut it))),
            "--events" => cli.events = Some(parse_num(&a, &value(&a, &mut it))),
            "--seed" => cli.seed = Some(parse_num(&a, &value(&a, &mut it))),
            "--mode" => cli.mode = Some(parse_mode(&value(&a, &mut it))),
            "--silent-permille" => {
                cli.silent_permille = Some(parse_permille(&a, &value(&a, &mut it)))
            }
            "--fault-permille" => {
                cli.fault_permille = Some(parse_permille(&a, &value(&a, &mut it)))
            }
            "--ota-permille" => cli.ota_permille = Some(parse_permille(&a, &value(&a, &mut it))),
            "--ota-corrupt-permille" => {
                cli.ota_corrupt_permille = Some(parse_permille(&a, &value(&a, &mut it)))
            }
            "--ota-max-retries" => cli.ota_max_retries = Some(parse_num(&a, &value(&a, &mut it))),
            "--step-budget" => cli.step_budget = Some(parse_num(&a, &value(&a, &mut it))),
            "--store-cap-bytes" => cli.store_cap_bytes = Some(parse_num(&a, &value(&a, &mut it))),
            "--preset" => match value("--preset", &mut it).as_str() {
                "scaling" => cli.preset_scaling = true,
                "storm" => cli.preset_storm = true,
                other => fail(&format!("unknown preset {other:?}")),
            },
            "--summary" => cli.summary = true,
            "--store" => cli.store = Some(PathBuf::from(value("--store", &mut it))),
            "--paranoid" => cli.paranoid = true,
            "--report-out" => cli.report_out = Some(PathBuf::from(value("--report-out", &mut it))),
            "--verify" => cli.verify = true,
            flag if flag.starts_with("--") => fail(&format!("unknown flag {flag:?}")),
            word => fail(&format!("unexpected argument {word:?}")),
        }
    }
    cli
}

/// Parses `flag`'s value straight into its target type: a value that is
/// not a number, or does not fit the type, exits 2 instead of wrapping.
fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: not a number that fits: {s:?}")))
}

/// A per-mille rate: anything outside `0..=1000` exits 2.
fn parse_permille(flag: &str, s: &str) -> u16 {
    let p = parse_num(flag, s);
    if p > 1000 {
        fail(&format!("{flag}: {p} is outside 0..=1000"));
    }
    p
}

/// Rejects contradictory flag combinations up front (exit 2 with usage)
/// instead of letting one flag silently win over another.
fn validate(cli: &Cli) {
    if cli.paranoid && cli.store.is_none() {
        fail("--paranoid verifies disk loads and needs --store DIR");
    }
    if cli.store_cap_bytes.is_some() && cli.store.is_none() {
        fail("--store-cap-bytes bounds an on-disk store and needs --store DIR");
    }
    if cli.preset_scaling && cli.preset_storm {
        fail("--preset given twice with different presets");
    }
}

fn scenario_from(cli: &Cli) -> (FleetScenario, usize) {
    let mut scenario = if cli.preset_scaling {
        FleetScenario::scaling(cli.devices.unwrap_or(1000))
    } else if cli.preset_storm {
        FleetScenario::storm(cli.devices.unwrap_or(1000))
    } else {
        FleetScenario::default()
    };
    if let Some(d) = cli.devices {
        scenario.devices = d;
    }
    if let Some(e) = cli.events {
        scenario.events_per_device = e;
    }
    if let Some(s) = cli.seed {
        scenario.seed = s;
    }
    if let Some(m) = cli.mode {
        scenario.time_mode = m;
    }
    if let Some(p) = cli.silent_permille {
        scenario.silent_permille = p;
    }
    if let Some(p) = cli.fault_permille {
        scenario.fault_permille = p;
    }
    if let Some(p) = cli.ota_permille {
        scenario.ota_permille = p;
    }
    if let Some(p) = cli.ota_corrupt_permille {
        scenario.ota_corrupt_permille = p;
    }
    if let Some(n) = cli.ota_max_retries {
        scenario.ota_max_retries = n;
    }
    if let Some(b) = cli.step_budget {
        scenario.step_budget = Some(b);
    }
    scenario.store_dir = cli.store.clone();
    scenario.paranoid = cli.paranoid;
    scenario.store_cap_bytes = cli.store_cap_bytes;
    scenario.verify = cli.verify;
    let workers = cli.workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    (scenario, workers)
}

/// Writes the deterministic document (no `timing`, `firmware_store` or
/// `verifier` sections) to `--report-out`, so cold and warm store
/// runs of one scenario can be byte-compared.
fn write_report_out(
    cli: &Cli,
    s: &FleetScenario,
    workers: usize,
    agg: &amulet_fleet::FleetAggregate,
) {
    let Some(path) = &cli.report_out else { return };
    let doc = render_document(s, workers, agg, None, None, None);
    if let Err(e) = std::fs::write(path, &doc) {
        fail(&format!("could not write {}: {e}", path.display()));
    }
    eprintln!("wrote deterministic report to {}", path.display());
}

fn main() {
    let cli = parse(std::env::args().skip(1));
    validate(&cli);

    let (scenario, workers) = scenario_from(&cli);
    let store = FirmwareStore::for_scenario(&scenario);
    // With a persistent store the build/load phase is timed on its own —
    // that is the phase the store exists to accelerate, and at fleet scale
    // it is a sliver of campaign wall-clock.
    let prewarm = store.is_persistent().then(|| {
        let started = Instant::now();
        let configs = store.prewarm(&scenario);
        (configs, started.elapsed().as_secs_f64())
    });
    let started = Instant::now();
    let aggregate = if cli.summary {
        simulate_summary_in(&scenario, workers, &store).aggregate
    } else {
        simulate_in(&scenario, workers, &store).aggregate
    };
    let wall = started.elapsed().as_secs_f64();
    let store_json = prewarm.map(|(configs, secs)| {
        Json::obj()
            .field("paranoid", scenario.paranoid)
            .field(
                "prewarm",
                Json::obj()
                    .field("configs", configs)
                    .field("wall_seconds", secs),
            )
            .field("stats", store_stats_json(&store.stats()))
    });
    let mut sections: Vec<_> = store_json
        .map(|store| ("firmware_store", store))
        .into_iter()
        .collect();
    // The per-image gate already ran inside the builds; the `verifier`
    // section reports the fleet-wide verdict counters alongside.
    if cli.verify {
        let summary = amulet_fleet::verify_fleet(&scenario, workers);
        sections.push(("verifier", verify_summary_json(&summary)));
    }
    let json = render_document_with(&scenario, workers, &aggregate, Some(wall), sections);
    write_report_out(&cli, &scenario, workers, &aggregate);
    print!("{json}");
}
