//! The fleet engine: device blocks fanned out across workers.
//!
//! Every fleet run — a materialised [`crate::FleetReport`] or a streamed
//! [`crate::FleetSummary`], in either [`crate::TimeMode`] — goes through
//! [`collect_blocks_in`].  The time mode only chooses the trace accounting
//! inside [`simulate_device`]; the engine itself does not read it.
//!
//! - **Block sharding.**  Device indices are partitioned into fixed-size
//!   blocks; workers claim blocks from a shared atomic counter and the
//!   folded blocks are returned **in block order**.  The grid is a
//!   constant chosen by the caller, never derived from the worker count,
//!   and every per-device result is a pure function of the scenario, so
//!   any worker count produces byte-identical reports.  There are two
//!   grids: [`BLOCK_SIZE`] for the streaming summary, whose ordered f64
//!   partials make the grid part of the result, and the finer
//!   [`REPORT_BLOCK_SIZE`] for materialised reports, which aggregate the
//!   full device vector and so do not depend on the grid at all.
//!
//! - **Runtime reuse.**  Within a block, devices are grouped by firmware
//!   configuration and the groups run in key order.  Fleet devices are
//!   causally independent — no event ever crosses from one device to
//!   another — so each device runs to completion and the order of groups
//!   cannot change a result.  One booted runtime serves a whole group
//!   through [`AmuletOs::reset`].
//!
//! - **Silent-device outcome cache.**  A mostly-idle fleet is dominated
//!   by devices whose campaign trace is empty
//!   ([`FleetScenario::silent_permille`]).  Such a device still boots and
//!   flushes — but if its whole two-leg run performs **zero sensor-model
//!   reads** (every sensor-backed syscall, `amulet_get_time` included,
//!   advances the model's tick counter), the outcome provably cannot
//!   depend on the device's `sensor_seed`, because the seed influences
//!   execution only through a read.  The first silent device of a config
//!   is simulated as the probe; when the proof holds, every later silent
//!   device of that config reuses the outcome with only the index
//!   patched.  When it does not (an app samples sensors at boot or in the
//!   final flush), the cache records the refusal and every silent device
//!   of that config is simulated individually — slower, never wrong.
//!
//! - **Shared firmware.**  Distinct configurations are materialised once
//!   through the content-addressable [`FirmwareStore`] — from memory,
//!   from the cross-run on-disk cache, or by a fresh AFT build — and
//!   runtimes share the image by reference.
//!
//! [`crate::simulate_device_at`] is the single-device reference the
//! engine's grouping, runtime reuse and silent cache must match.

use crate::run::{device_trace, new_runtime, simulate_device, DeviceResult};
use crate::scenario::{ConfigContext, DeviceConfig, FleetScenario};
use crate::store::FirmwareStore;
use amulet_os::os::AmuletOs;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Devices per block of the streaming summary.  Its stepped folds sum
/// idle energy, active time and virtual time as ordered per-block f64
/// partials, so this grid is visible in the result and must never
/// change: the pinned report digests depend on it.
pub(crate) const BLOCK_SIZE: usize = 1024;

/// Devices per block of a materialised report.  The report aggregates
/// the full, index-sorted device vector, so this grid is invisible in the
/// result; it only has to be fine enough that a 10³-device fleet spreads
/// over every worker.
pub(crate) const REPORT_BLOCK_SIZE: usize = 64;

/// Per-worker state that persists across the blocks a worker claims.
struct Worker<'a> {
    scenario: &'a FleetScenario,
    store: &'a FirmwareStore,
    ctx: ConfigContext,
    /// The one live runtime, tagged with its firmware key; re-created
    /// only when the key changes (the expensive parts — 64 KiB memory,
    /// attribute tables, API tables — are rebuilt then, never per
    /// device).
    runtime: Option<(String, AmuletOs)>,
    /// Silent-device outcome cache: `Some(template)` when the draw-free
    /// proof held for this config's probe, `None` when it did not and
    /// silent devices must be simulated individually.
    silent_cache: HashMap<String, Option<DeviceResult>>,
}

impl<'a> Worker<'a> {
    fn new(scenario: &'a FleetScenario, store: &'a FirmwareStore) -> Self {
        Worker {
            scenario,
            store,
            ctx: ConfigContext::new(),
            runtime: None,
            silent_cache: HashMap::new(),
        }
    }

    fn runtime_for(&mut self, key: &str, cfg: &DeviceConfig) -> &mut AmuletOs {
        if !matches!(&self.runtime, Some((k, _)) if k == key) {
            self.runtime = Some((key.to_string(), new_runtime(self.store, key, cfg)));
        }
        &mut self.runtime.as_mut().expect("runtime just installed").1
    }

    /// Simulates one device, or serves it from the silent cache.  Only
    /// trivially-silent devices are cache-eligible: the cache is keyed by
    /// firmware config, and armed or OTA-swept devices can differ (fault
    /// kind, OTA seed) while sharing an image.
    fn run_device(&mut self, key: &str, cfg: &DeviceConfig) -> DeviceResult {
        let cacheable = cfg.silent_cacheable();
        if cacheable {
            if let Some(Some(template)) = self.silent_cache.get(key) {
                let mut r = template.clone();
                r.index = cfg.index;
                return r;
            }
        }
        let scenario = self.scenario;
        let trace = device_trace(scenario, cfg);
        let sim = simulate_device(scenario, cfg, self.runtime_for(key, cfg), &trace);
        if cacheable && !self.silent_cache.contains_key(key) {
            let template = (sim.sensor_draws == 0).then(|| sim.result.clone());
            self.silent_cache.insert(key.to_string(), template);
        }
        sim.result
    }

    /// Runs device indices `lo..hi`, grouped by firmware key in key
    /// order, and returns their results sorted by device index.
    fn run_block(&mut self, lo: usize, hi: usize) -> Vec<DeviceResult> {
        let mut groups: BTreeMap<String, Vec<DeviceConfig>> = BTreeMap::new();
        for index in lo..hi {
            let cfg = self.scenario.device_config_in(&self.ctx, index);
            groups.entry(cfg.firmware_key()).or_default().push(cfg);
        }
        let mut results = Vec::with_capacity(hi - lo);
        for (key, members) in &groups {
            for cfg in members {
                results.push(self.run_device(key, cfg));
            }
        }
        results.sort_by_key(|r| r.index);
        results
    }
}

/// Runs the scenario's devices in blocks of `block_size` across `workers`
/// scoped threads and folds each finished block through `fold` on the
/// worker that ran it; the folded values are returned **in block order**
/// regardless of which worker claimed which block.  `fold` receives
/// `(block_index, results)` with the results sorted by device index.
pub(crate) fn collect_blocks_in<R, F>(
    scenario: &FleetScenario,
    workers: usize,
    store: &FirmwareStore,
    block_size: usize,
    fold: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Vec<DeviceResult>) -> R + Sync,
{
    let blocks = scenario.devices.div_ceil(block_size);
    let workers = workers.max(1).min(blocks.max(1));
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(blocks);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            let (store, next, fold) = (store, &next, &fold);
            handles.push(scope.spawn(move || {
                let mut worker = Worker::new(scenario, store);
                let mut out = Vec::new();
                loop {
                    let block = next.fetch_add(1, Ordering::Relaxed);
                    if block >= blocks {
                        break;
                    }
                    let lo = block * block_size;
                    let hi = ((block + 1) * block_size).min(scenario.devices);
                    out.push((block, fold(block, worker.run_block(lo, hi))));
                }
                out
            }));
        }
        for h in handles {
            tagged.extend(h.join().expect("fleet worker panicked"));
        }
    });
    tagged.sort_by_key(|&(block, _)| block);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Materialises every device's result in device order on the
/// [`REPORT_BLOCK_SIZE`] grid, from a caller-held [`FirmwareStore`].
pub(crate) fn simulate_devices_in(
    scenario: &FleetScenario,
    workers: usize,
    store: &FirmwareStore,
) -> Vec<DeviceResult> {
    collect_blocks_in(scenario, workers, store, REPORT_BLOCK_SIZE, |_, results| {
        results
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::simulate_device_at;
    use crate::scenario::TimeMode;

    /// A mostly-silent stepped fleet drawn from the **full** catalogue,
    /// which contains apps whose boot path samples the seeded sensors —
    /// the configs the silent-device outcome cache must refuse.
    fn sensorful() -> FleetScenario {
        FleetScenario {
            name: "refusal-probe".to_string(),
            devices: 64,
            events_per_device: 4,
            silent_permille: 900,
            time_mode: TimeMode::Stepped,
            ..FleetScenario::default()
        }
    }

    #[test]
    fn sensor_sampling_probes_are_refused_and_silent_devices_stay_exact() {
        let scenario = sensorful();
        let store = FirmwareStore::for_scenario(&scenario);
        let mut worker = Worker::new(&scenario, &store);
        let results = worker.run_block(0, scenario.devices);
        assert_eq!(results.len(), scenario.devices);

        // The refusal path must actually be recorded: at least one config's
        // probe performed sensor reads, so its cache entry is `None`.
        let refused: Vec<String> = worker
            .silent_cache
            .iter()
            .filter(|(_, v)| v.is_none())
            .map(|(k, _)| k.clone())
            .collect();
        assert!(
            !refused.is_empty(),
            "a full-catalogue fleet must hit at least one sensor-sampling probe"
        );

        // A refusal is a promise of individual simulation, never a wrong
        // reuse: every silent device of a refused config must match the
        // single-device reference bit for bit, and the probe's grounds
        // (sensor draws > 0) must hold.
        let ctx = ConfigContext::new();
        let mut checked = 0;
        for (index, block_result) in results.iter().enumerate() {
            let cfg = scenario.device_config_in(&ctx, index);
            let key = cfg.firmware_key();
            if !cfg.silent || !refused.contains(&key) {
                continue;
            }
            let mut os = new_runtime(&store, &key, &cfg);
            assert!(
                simulate_device(&scenario, &cfg, &mut os, &[]).sensor_draws > 0,
                "config {key} was refused, so its silent run must draw sensors"
            );
            assert_eq!(
                *block_result,
                simulate_device_at(&scenario, &store, index),
                "device {index}"
            );
            checked += 1;
        }
        assert!(
            checked > 0,
            "the fleet must contain a silent device of a refused config"
        );
    }

    #[test]
    fn subscription_only_probes_are_accepted() {
        // The scaling preset's window is chosen so silent runs are
        // provably sensor-free — every probe's proof must hold.
        let scenario = FleetScenario::scaling(64);
        let store = FirmwareStore::for_scenario(&scenario);
        let mut worker = Worker::new(&scenario, &store);
        worker.run_block(0, scenario.devices);
        assert!(!worker.silent_cache.is_empty(), "probes ran");
        assert!(
            worker.silent_cache.values().all(|v| v.is_some()),
            "no subscription-only config may be refused"
        );
    }
}
