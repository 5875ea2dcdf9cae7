//! Hot-path bench: instruction-execution microbench (attribute cache on vs
//! off) and fleet devices/second, emitted as `BENCH_hotpath.json` — both
//! on stdout and to the file.
//!
//! Usage: `cargo run -p amulet-bench --bin hotpath --release
//! [instructions] [fleet_devices] [fleet_events] [fleet_workers]`
//! (defaults: 20 M instructions, 1000 devices, 120 events, 1 worker — the
//! same shape as the recorded pre-optimisation baseline).

use amulet_bench::hotpath;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut arg = |d: u64| -> u64 { args.next().and_then(|s| s.parse().ok()).unwrap_or(d) };
    let instructions = arg(20_000_000);
    let fleet_devices = arg(hotpath::BASELINE_FLEET_SCENARIO.0 as u64) as usize;
    let fleet_events = arg(hotpath::BASELINE_FLEET_SCENARIO.1 as u64) as usize;
    let fleet_workers = arg(hotpath::BASELINE_FLEET_SCENARIO.2 as u64) as usize;

    assert!(
        hotpath::verify_equivalence(100_000),
        "attribute cache disagrees with the direct MPU path"
    );

    let cached = hotpath::run_microbench(instructions, true);
    let direct = hotpath::run_microbench(instructions, false);
    let fleet = hotpath::run_fleet(fleet_devices, fleet_events, fleet_workers);

    let json = hotpath::render_json(&cached, &direct, &fleet);
    print!("{json}");
    if let Err(e) = std::fs::write("BENCH_hotpath.json", &json) {
        eprintln!("warning: could not write BENCH_hotpath.json: {e}");
    } else {
        eprintln!(
            "wrote BENCH_hotpath.json ({:.1} M instr/s cached, {:.1} M instr/s direct, {:.0} devices/s = {:.2}x baseline)",
            cached.instr_per_second / 1e6,
            direct.instr_per_second / 1e6,
            fleet.devices_per_second,
            fleet.devices_per_second / hotpath::BASELINE_FLEET_DEVICES_PER_SECOND,
        );
    }
}
