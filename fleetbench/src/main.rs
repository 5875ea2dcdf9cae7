//! One measurement of one fleet workload, printed as a JSON document on
//! stdout.  `run.py` starts a fresh process per measurement.
//!
//! ```text
//! fleetbench sample --workload <dense|sparse|storm> [--seed N]
//! fleetbench trace  --workload <dense|sparse|storm> [--seed N] [--spans PATH]
//! fleetbench reference
//! ```
//!
//! `--seed` replaces the preset's seed (default: the preset's own).  The
//! engine, and the host-speed reference kernel of `reference`, run on the
//! host's available parallelism.  Exit code 2
//! means bad arguments, 1 a failed measurement (e.g. a failed
//! reconciliation); a panic exits 101.

use amulet_bench::json::Json;
use amulet_fleet::FleetScenario;
use fleetbench::{sample, trace, Workload, SAMPLE_METRICS};
use std::process::ExitCode;

struct Args {
    traced: bool,
    workload: Workload,
    seed: Option<u64>,
    workers: usize,
    spans: Option<std::path::PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let traced = match argv.next().as_deref() {
        Some("sample") => false,
        Some("trace") => true,
        other => {
            return Err(format!(
                "expected `sample`, `trace` or `reference`, got {other:?}"
            ))
        }
    };
    let mut workload = None;
    let mut seed = None;
    let mut spans = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        traced,
        workload: workload.ok_or("--workload is required")?,
        seed,
        workers: workers(),
        spans,
    })
}

/// The worker count: the host's available parallelism.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj().field("value", value).field("unit", unit)
}

fn header(args: &Args, scenario: &FleetScenario, digest: &str, pinned: Option<&str>) -> Json {
    Json::obj()
        .field("mode", if args.traced { "trace" } else { "sample" })
        .field("workload", args.workload.name())
        .field("seed", scenario.seed)
        .field("devices", scenario.devices)
        .field("workers", args.workers)
        .field("digest", digest)
        .field("pinned", pinned.map_or(Json::Null, Json::from))
}

fn run(args: &Args) -> Result<Json, String> {
    let scenario = args.workload.scenario(args.seed);
    if !args.traced {
        let s = sample(args.workload, &scenario, args.workers)?;
        let mut metrics = Json::obj();
        for (&(name, unit), &value) in SAMPLE_METRICS.iter().zip(&s.values) {
            metrics = metrics.field(name, metric(value, unit));
        }
        return Ok(header(args, &scenario, &s.digest, s.pinned)
            .field("run_s", s.run_s)
            .field("metrics", metrics));
    }
    let s = trace::traced_sample(args.workload, &scenario, args.workers);
    if let Some(path) = &args.spans {
        s.tracer
            .write_tsv(path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    }
    if !s.mismatches.is_empty() {
        return Err(format!(
            "reconciliation failed: {}",
            s.mismatches.join("; ")
        ));
    }
    let mut metrics = Json::obj();
    for &(name, value, unit) in &s.metrics {
        metrics = metrics.field(name, metric(value, unit));
    }
    Ok(header(args, &scenario, &s.digest, s.pinned)
        .field("spans", s.tracer.spans().len())
        .field("metrics", metrics))
}

fn main() -> ExitCode {
    if std::env::args().skip(1).eq(["reference"]) {
        let doc = Json::obj()
            .field("mode", "reference")
            .field("workers", workers())
            .field("reference_s", fleetbench::reference_s(workers()));
        print!("{}", doc.render());
        return ExitCode::SUCCESS;
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(doc) => {
            print!("{}", doc.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::FAILURE
        }
    }
}
