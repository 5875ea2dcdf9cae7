//! The benchmark's own tests: digest pins, the seed argument, metric
//! names and the traced run's reconciliation, at small device counts.

use amulet_fleet::FleetScenario;
use fleetbench::trace::{traced_sample, LAYER_METRICS};
use fleetbench::{
    pinned_digest, prewarmed_store, report_digest, valid_metric_name, Workload, PINNED_DIGESTS,
    SAMPLE_METRICS,
};

/// The small pinned rows: the sizes the test suite can afford.
fn small_pins() -> impl Iterator<Item = (Workload, usize, &'static str)> {
    PINNED_DIGESTS
        .iter()
        .copied()
        .filter(|&(w, devices, _)| devices < w.devices())
}

#[test]
fn report_digests_match_their_pins_at_small_device_counts() {
    let mut pinned = 0;
    for (workload, devices, pin) in small_pins() {
        let scenario = workload.scenario_at(devices, None);
        assert_eq!(pinned_digest(workload, &scenario), Some(pin));
        let store = prewarmed_store(&scenario);
        for workers in [1, 3] {
            let aggregate = workload.run_engine(&scenario, workers, &store);
            assert_eq!(
                report_digest(&scenario, &aggregate),
                pin,
                "{} at {devices} devices on {workers} workers",
                workload.name()
            );
        }
        pinned += 1;
    }
    assert_eq!(pinned, Workload::ALL.len(), "one small pin per workload");
}

#[test]
fn the_seed_argument_changes_only_the_scenario_seed() {
    for workload in Workload::ALL {
        let preset = workload.scenario(None);
        let seeded = workload.scenario(Some(7));
        assert_ne!(preset.seed, 7);
        assert_eq!(
            seeded,
            FleetScenario {
                seed: 7,
                ..preset.clone()
            }
        );
        assert_eq!(
            pinned_digest(workload, &seeded),
            None,
            "pins hold only for preset seeds"
        );
        assert_eq!(workload.scenario(Some(preset.seed)), preset);
    }
}

/// Every `"name": "..."` string in BENCHMARK.json, and the unit that
/// follows it when there is one.
fn declared_names() -> Vec<(String, Option<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let string_after = |s: &str, key: &str| -> Option<(String, usize)> {
        let at = s.find(key)? + key.len();
        let end = s[at..].find('"')?;
        Some((s[at..at + end].to_string(), at + end))
    };
    let mut out = Vec::new();
    let mut rest = text.as_str();
    while let Some((name, end)) = string_after(rest, "\"name\": \"") {
        rest = &rest[end..];
        let object_end = rest.find('}').unwrap_or(rest.len());
        let unit = string_after(&rest[..object_end], "\"unit\": \"").map(|(u, _)| u);
        out.push((name, unit));
    }
    out
}

#[test]
fn every_metric_name_is_well_formed_and_declared() {
    let declared = declared_names();
    assert!(declared.len() > SAMPLE_METRICS.len() + LAYER_METRICS.len());
    for (name, _) in &declared {
        assert!(valid_metric_name(name), "declared name {name:?}");
    }
    for &(name, unit) in SAMPLE_METRICS.iter().chain(LAYER_METRICS) {
        assert!(valid_metric_name(name), "emitted name {name:?}");
        assert!(
            declared.contains(&(name.to_string(), Some(unit.to_string()))),
            "{name} ({unit}) is emitted but not declared in BENCHMARK.json"
        );
    }
    // The driver computes these two itself; every other declared metric
    // must come from the harness.
    for (name, unit) in &declared {
        let emitted = SAMPLE_METRICS
            .iter()
            .chain(LAYER_METRICS)
            .any(|&(n, u)| n == name && Some(u) == unit.as_deref());
        let is_workload = Workload::parse(name).is_some();
        assert!(
            emitted || is_workload || ["ok_share", "trace.overhead"].contains(&name.as_str()),
            "{name} is declared in BENCHMARK.json but nothing emits it"
        );
    }
    for workload in Workload::ALL {
        assert!(valid_metric_name(workload.name()));
    }
    assert!(!valid_metric_name("cpu ns"));
    assert!(!valid_metric_name(".hidden"));
}

#[test]
fn traced_runs_reconcile_with_the_engine() {
    for (workload, devices, pin) in small_pins() {
        let scenario = workload.scenario_at(devices, None);
        let traced = traced_sample(workload, &scenario, 2);
        assert!(traced.mismatches.is_empty(), "{:?}", traced.mismatches);
        assert_eq!(traced.digest, pin);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
        assert_eq!(names, expected);
        let value = |name: &str| traced.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(
            value("os.boots"),
            2.0 * (devices as f64 - value("silent.cache_hits"))
        );
        assert!(value("os.deliver_s") > 0.0 && value("engine.run_s") > 0.0);
        assert!(!traced.tracer.spans().is_empty());
    }
}
