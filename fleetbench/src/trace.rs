//! The traced run: a per-layer ledger measured from outside the program.
//!
//! The replay runs every device of a workload on one thread, calling the
//! same public layers the fleet runner calls, in the order it calls them:
//! `device_config_in`, `traces::generate`, `FirmwareStore::get_or_build`,
//! `AmuletOs::with_options_shared`, `reset`/`boot`, the fault probe,
//! `post_event` with `pump`/`flush`, and `run_ota`.  It keeps the runner's
//! block grid, calendar order, runtime reuse and silent-device outcome
//! cache, so its counts are what one fleet worker does.  It records a span
//! around each call and counts each layer's work at the same boundaries.
//! Spans stay in memory until the run ends.
//!
//! The replay changes no simulated state: before the ledger is reported,
//! its summed cycles, delivered events and faults must equal the engine's
//! report, and the engine's devices folded block by block must render the
//! same report as the engine.

use crate::{digest_of, pinned_digest, report_digest, work_done, Workload};
use amulet_apps::TraceEvent;
use amulet_fleet::faults::{attack_payload, classify, run_ota};
use amulet_fleet::{
    simulate_in, stats::reduce_blocks, BlockSummary, ConfigContext, DeviceConfig, FirmwareStore,
    FleetScenario, TimeMode,
};
use amulet_os::{AmuletOs, DeliveryPolicy, Event, EventKind, OsOptions};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::time::Instant;

/// Devices per scheduling block, as in the fleet's wake calendar.
const BLOCK_SIZE: usize = 1024;

/// A layer boundary the traced run records spans at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Set-up: distinct configurations plus every AFT build.
    Setup,
    /// One `get_or_build` during set-up (a store miss and an AFT build).
    AftBuild,
    /// The workload's whole simulate call.
    Engine,
    /// The whole single-threaded replay.
    Replay,
    /// One device's simulation in the replay (parent of its OS spans).
    Device,
    /// `device_config`/`device_config_in` plus the firmware key.
    Config,
    /// `traces::generate` for one device.
    Traces,
    /// Store lookup plus `AmuletOs::with_options_shared`.
    RuntimeNew,
    /// `reset`, delivery-policy switch and `boot` of one leg.
    ResetBoot,
    /// The controlled fault probe of one leg.
    Probe,
    /// Posting and pumping one leg's trace, then the final flush.
    Deliver,
    /// One device's OTA transaction.
    Ota,
    /// `BlockSummary::from_devices` over one block.
    Fold,
    /// `reduce_blocks` over every block.
    Reduce,
    /// `render_document` of the report.
    Render,
}

impl Layer {
    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::AftBuild => "aft.build",
            Layer::Engine => "engine.run",
            Layer::Replay => "replay",
            Layer::Device => "device",
            Layer::Config => "scenario.config",
            Layer::Traces => "traces.generate",
            Layer::RuntimeNew => "os.runtime_new",
            Layer::ResetBoot => "os.reset_boot",
            Layer::Probe => "faults.probe",
            Layer::Deliver => "os.deliver",
            Layer::Ota => "faults.ota",
            Layer::Fold => "stats.fold",
            Layer::Reduce => "stats.reduce",
            Layer::Render => "render",
        }
    }
}

/// One recorded span.  `parent` and the span ids are indices into the
/// tracer's span list; `device` is the device index the work was for.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer boundary.
    pub layer: Layer,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The device the work was for.
    pub device: Option<u32>,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    fn begin(&mut self, layer: Layer, parent: Option<usize>, device: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p as u32),
            device: device.map(|d| d as u32),
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    fn time<R>(
        &mut self,
        layer: Layer,
        parent: Option<usize>,
        device: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(layer, parent, device);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every `layer` span, in seconds.
    fn total_s(&self, layer: Layer) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold(0.0, |sum, s| sum + (s.end_ns - s.start_ns) as f64)
            / 1e9
    }

    /// Writes every span as a tab-separated line: id, name, start and end
    /// in nanoseconds, parent id (`-` for none), device (`-` for none).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tdevice")?;
        let opt = |v: Option<u32>| v.map_or("-".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.device)
            )?;
        }
        out.flush()
    }
}

/// Counts of the work each layer did in the replay.
#[derive(Clone, Copy, Debug, Default)]
struct Ledger {
    trace_events: u64,
    runtimes: u64,
    boots: u64,
    events_delivered: u64,
    full_switches: u64,
    batch_boundaries: u64,
    syscalls: u64,
    faults: u64,
    instructions: u64,
    deliver_instructions: u64,
    data_accesses: u64,
    bus_reads: u64,
    bus_writes: u64,
    bus_exec_checks: u64,
    bus_denied: u64,
    probes: u64,
    ota_runs: u64,
    silent_cache_hits: u64,
}

/// Simulated cycles, delivered events and faults over both delivery legs:
/// what the replay must reconcile with the engine's report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Totals {
    cycles: u64,
    events: u64,
    faults: u64,
}

impl std::ops::AddAssign for Totals {
    fn add_assign(&mut self, o: Totals) {
        self.cycles += o.cycles;
        self.events += o.events;
        self.faults += o.faults;
    }
}

/// The runner's mapping from trace handler to event kind.
fn kind_for(handler: &str) -> EventKind {
    if handler.starts_with("on_timer") {
        EventKind::Timer
    } else if handler.starts_with("on_accel") || handler.starts_with("on_hr") {
        EventKind::Sensor
    } else {
        EventKind::System
    }
}

/// A device planned onto a block's calendar.
struct Pending {
    cfg: DeviceConfig,
    trace: Vec<TraceEvent>,
    first_wake_ms: u64,
}

/// The replay's state: one fleet worker's, plus the tracer and ledger.
struct Replay<'a> {
    scenario: &'a FleetScenario,
    store: &'a FirmwareStore,
    tracer: Tracer,
    ledger: Ledger,
    root: usize,
    runtime: Option<(String, AmuletOs)>,
    silent_cache: HashMap<String, Option<Totals>>,
    totals: Totals,
}

impl Replay<'_> {
    fn device_trace(&mut self, cfg: &DeviceConfig) -> Vec<TraceEvent> {
        let n = self.scenario.events_for(cfg);
        let trace = self.tracer.time(
            Layer::Traces,
            Some(self.root),
            Some(cfg.index),
            || match n {
                0 => Vec::new(),
                n => amulet_apps::traces::generate(&cfg.apps, cfg.trace_seed, n),
            },
        );
        self.ledger.trace_events += trace.len() as u64;
        trace
    }

    /// Simulates one device on the live runtime for `key` (creating it
    /// when the key changes) and returns its totals and sensor draws.
    fn run_device(&mut self, key: &str, cfg: &DeviceConfig, trace: &[TraceEvent]) -> (Totals, u64) {
        let device = Some(cfg.index);
        let span = self.tracer.begin(Layer::Device, Some(self.root), device);
        let parent = Some(span);
        if !matches!(&self.runtime, Some((k, _)) if k == key) {
            let store = self.store;
            let os = self.tracer.time(Layer::RuntimeNew, parent, device, || {
                AmuletOs::with_options_shared(
                    store.get_or_build(key, cfg),
                    OsOptions {
                        sensor_seed: cfg.sensor_seed,
                        delivery: DeliveryPolicy::PerEvent,
                        ..OsOptions::default()
                    },
                )
            });
            self.runtime = Some((key.to_string(), os));
            self.ledger.runtimes += 1;
        }
        let os = &mut self.runtime.as_mut().expect("runtime just installed").1;
        let (tracer, ledger, scenario) = (&mut self.tracer, &mut self.ledger, self.scenario);

        let mut totals = Totals::default();
        let mut sensor_draws = 0;
        os.set_sensor_seed(cfg.sensor_seed);
        if let Some(budget) = scenario.step_budget {
            os.set_step_budget(budget);
        }
        if let Some(policy) = scenario.watchdog_policy() {
            os.set_restart_policy(policy);
        }
        for policy in [DeliveryPolicy::PerEvent, scenario.batched_policy()] {
            tracer.time(Layer::ResetBoot, parent, device, || {
                os.reset();
                os.set_delivery_policy(policy);
                os.boot();
            });
            ledger.boots += 1;
            if let Some(kind) = cfg.fault {
                tracer.time(Layer::Probe, parent, device, || {
                    let payload = attack_payload(kind, os.firmware());
                    let (outcome, _) = os.call_handler(cfg.apps.len() - 1, "attack", payload);
                    classify(outcome)
                });
                ledger.probes += 1;
            }
            let retired_before = os.device.cpu.stats.instructions;
            let stepped = scenario.time_mode == TimeMode::Stepped;
            tracer.time(Layer::Deliver, parent, device, || {
                for e in trace {
                    let event = Event::new(
                        e.app_index,
                        e.handler.as_str(),
                        e.payload,
                        kind_for(&e.handler),
                    );
                    if stepped {
                        os.post_event(event.stamped(e.at_ms));
                        os.pump_counted();
                    } else {
                        os.post_event(event);
                        os.pump();
                    }
                }
                if stepped {
                    os.flush_counted();
                } else {
                    os.flush();
                }
            });
            let cpu = os.device.cpu.stats;
            let bus = os.device.bus.stats;
            ledger.deliver_instructions += cpu.instructions - retired_before;
            ledger.instructions += cpu.instructions;
            ledger.data_accesses += cpu.data_accesses;
            ledger.bus_reads += bus.reads;
            ledger.bus_writes += bus.writes;
            ledger.bus_exec_checks += bus.exec_checks;
            ledger.bus_denied += bus.denied;
            for s in &os.stats {
                ledger.events_delivered += s.events_delivered;
                ledger.full_switches += s.full_switches;
                ledger.batch_boundaries += s.batch_boundaries;
                ledger.syscalls += s.syscalls;
                ledger.faults += s.faults;
                totals.events += s.events_delivered;
                totals.faults += s.faults;
            }
            totals.cycles += os.total_cycles();
            sensor_draws += os.services.sensors.ticks;
        }
        if let Some(seed) = cfg.ota_seed {
            tracer.time(Layer::Ota, parent, device, || {
                run_ota(
                    os.firmware(),
                    &cfg.firmware_key(),
                    seed,
                    amulet_apps::traces::span_ms(trace),
                    scenario.ota_corrupt_permille,
                    scenario.ota_max_retries,
                    cfg.index,
                )
            });
            ledger.ota_runs += 1;
        }
        tracer.end(span);
        (totals, sensor_draws)
    }

    /// The silent-device outcome cache's entry for `key`, when it holds a
    /// reusable outcome.
    fn cached_silent(&mut self, key: &str) -> bool {
        if let Some(Some(t)) = self.silent_cache.get(key) {
            self.totals += *t;
            self.ledger.silent_cache_hits += 1;
            return true;
        }
        false
    }

    /// The wake-calendar walk (stepped scenarios), block by block.
    fn calendar(&mut self) {
        let ctx = ConfigContext::new();
        let devices = self.scenario.devices;
        for lo in (0..devices).step_by(BLOCK_SIZE) {
            let hi = (lo + BLOCK_SIZE).min(devices);
            let mut groups: BTreeMap<String, Vec<Pending>> = BTreeMap::new();
            for index in lo..hi {
                let scenario = self.scenario;
                let (cfg, key) =
                    self.tracer
                        .time(Layer::Config, Some(self.root), Some(index), || {
                            let cfg = scenario.device_config_in(&ctx, index);
                            let key = cfg.firmware_key();
                            (cfg, key)
                        });
                let (trace, first_wake_ms) = if cfg.silent_cacheable() {
                    if self.cached_silent(&key) {
                        continue;
                    }
                    (Vec::new(), u64::MAX)
                } else {
                    let trace = self.device_trace(&cfg);
                    let wake = trace.first().map_or(u64::MAX, |e| e.at_ms);
                    (trace, wake)
                };
                groups.entry(key).or_default().push(Pending {
                    cfg,
                    trace,
                    first_wake_ms,
                });
            }
            let mut order: Vec<(u64, String)> = groups
                .iter()
                .map(|(key, members)| {
                    let wake = members.iter().map(|p| p.first_wake_ms).min();
                    (wake.unwrap_or(u64::MAX), key.clone())
                })
                .collect();
            order.sort();
            for (_, key) in order {
                let mut members = groups.remove(&key).expect("group scheduled twice");
                members.sort_by_key(|p| (p.first_wake_ms, p.cfg.index));
                for p in &members {
                    self.run_pending(&key, p);
                }
            }
        }
    }

    fn run_pending(&mut self, key: &str, p: &Pending) {
        if p.cfg.silent_cacheable() {
            if self.cached_silent(key) {
                return;
            }
            let undecided = !self.silent_cache.contains_key(key);
            let (totals, sensor_draws) = self.run_device(key, &p.cfg, &p.trace);
            if undecided {
                let template = (sensor_draws == 0).then_some(totals);
                self.silent_cache.insert(key.to_string(), template);
            }
            self.totals += totals;
        } else {
            let (totals, _) = self.run_device(key, &p.cfg, &p.trace);
            self.totals += totals;
        }
    }

    /// The linear walk (arrival-order scenarios) as one worker runs it:
    /// every device grouped by firmware key, then in index order.
    fn linear(&mut self) {
        let scenario = self.scenario;
        let mut grouped: Vec<(String, DeviceConfig)> = (0..scenario.devices)
            .map(|index| {
                self.tracer
                    .time(Layer::Config, Some(self.root), Some(index), || {
                        let cfg = scenario.device_config(index);
                        (cfg.firmware_key(), cfg)
                    })
            })
            .collect();
        grouped.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.index.cmp(&b.1.index)));
        for (key, cfg) in &grouped {
            let trace = self.device_trace(cfg);
            let (totals, _) = self.run_device(key, cfg, &trace);
            self.totals += totals;
        }
    }
}

/// What one traced run measured.
#[derive(Debug)]
pub struct TracedSample {
    /// The engine report's digest.
    pub digest: String,
    /// The pinned digest for this scenario, if it has one.
    pub pinned: Option<&'static str>,
    /// Reconciliation failures; empty when the replay matched the engine.
    pub mismatches: Vec<String>,
    /// `(name, value, unit)` of every per-layer metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The spans, for writing out.
    pub tracer: Tracer,
}

/// Names and units of the per-layer metrics a traced run reports, in
/// [`TracedSample::metrics`] order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("aft.build_s", "s"),
    ("aft.builds", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("scenario.config_s", "s"),
    ("traces.generate_s", "s"),
    ("traces.events", "count"),
    ("os.runtime_new_s", "s"),
    ("os.runtimes", "count"),
    ("os.reset_boot_s", "s"),
    ("os.boots", "count"),
    ("os.deliver_s", "s"),
    ("os.events_delivered", "count"),
    ("os.full_switches", "count"),
    ("os.batch_boundaries", "count"),
    ("os.syscalls", "count"),
    ("os.faults", "count"),
    ("silent.cache_hits", "count"),
    ("cpu.instr_retired", "count"),
    ("cpu.data_accesses", "count"),
    ("cpu.ns_per_instr", "ns"),
    ("bus.reads", "count"),
    ("bus.writes", "count"),
    ("bus.exec_checks", "count"),
    ("bus.denied", "count"),
    ("faults.probe_s", "s"),
    ("faults.probes", "count"),
    ("faults.ota_s", "s"),
    ("faults.ota_runs", "count"),
    ("engine.run_s", "s"),
    ("engine.vs_replay", "ratio"),
    ("stats.fold_s", "s"),
    ("stats.blocks", "count"),
    ("render.s", "s"),
];

/// One traced run of `scenario`, a scenario of `workload`: set-up with a
/// span per AFT build, the engine call on `workers` threads, the
/// single-threaded replay, and the fold and render of the engine's
/// devices.
pub fn traced_sample(workload: Workload, scenario: &FleetScenario, workers: usize) -> TracedSample {
    let mut tracer = Tracer::default();

    let setup = tracer.begin(Layer::Setup, None, None);
    let store = FirmwareStore::for_scenario(scenario);
    for (key, cfg) in FirmwareStore::distinct_configs(scenario) {
        tracer.time(Layer::AftBuild, Some(setup), None, || {
            store.get_or_build(&key, &cfg)
        });
    }
    tracer.end(setup);
    let built = store.stats();

    let aggregate = tracer.time(Layer::Engine, None, None, || {
        workload.run_engine(scenario, workers, &store)
    });
    let after_engine = store.stats();

    let root = tracer.begin(Layer::Replay, None, None);
    let mut replay = Replay {
        scenario,
        store: &store,
        tracer,
        ledger: Ledger::default(),
        root,
        runtime: None,
        silent_cache: HashMap::new(),
        totals: Totals::default(),
    };
    match scenario.time_mode {
        TimeMode::ArrivalOrder => replay.linear(),
        TimeMode::Stepped => replay.calendar(),
    }
    let Replay {
        mut tracer,
        ledger,
        totals,
        ..
    } = replay;
    tracer.end(root);
    let after_replay = store.stats();

    // The engine's own devices, folded the way the streaming runner folds
    // them: one summary per block, reduced in block order.
    let devices = simulate_in(scenario, workers, &store).devices;
    let blocks: Vec<BlockSummary> = devices
        .chunks(BLOCK_SIZE)
        .map(|block| {
            tracer.time(Layer::Fold, None, None, || {
                BlockSummary::from_devices(block)
            })
        })
        .collect();
    drop(devices);
    let folded = tracer.time(Layer::Reduce, None, None, || reduce_blocks(&blocks));
    let document = tracer.time(Layer::Render, None, None, || {
        amulet_bench::fleet_sim::render_document(scenario, 1, &aggregate, None, None, None)
    });

    let digest = digest_of(&document);
    let mut mismatches = Vec::new();
    let (cycles, events) = work_done(&aggregate);
    let expected = Totals {
        cycles,
        events,
        faults: aggregate.per_event.faults + aggregate.batched.faults,
    };
    if totals != expected {
        mismatches.push(format!("replay {totals:?} != engine {expected:?}"));
    }
    let folded_digest = report_digest(scenario, &folded);
    if folded_digest != digest {
        mismatches.push(format!(
            "block fold digest {folded_digest} != engine {digest}"
        ));
    }

    let engine_s = tracer.total_s(Layer::Engine);
    let deliver_s = tracer.total_s(Layer::Deliver);
    let values: [f64; LAYER_METRICS.len()] = [
        tracer.total_s(Layer::AftBuild),
        built.builds as f64,
        (after_replay.hits - after_engine.hits) as f64,
        (after_replay.misses - after_engine.misses) as f64,
        tracer.total_s(Layer::Config),
        tracer.total_s(Layer::Traces),
        ledger.trace_events as f64,
        tracer.total_s(Layer::RuntimeNew),
        ledger.runtimes as f64,
        tracer.total_s(Layer::ResetBoot),
        ledger.boots as f64,
        deliver_s,
        ledger.events_delivered as f64,
        ledger.full_switches as f64,
        ledger.batch_boundaries as f64,
        ledger.syscalls as f64,
        ledger.faults as f64,
        ledger.silent_cache_hits as f64,
        ledger.instructions as f64,
        ledger.data_accesses as f64,
        deliver_s * 1e9 / ledger.deliver_instructions.max(1) as f64,
        ledger.bus_reads as f64,
        ledger.bus_writes as f64,
        ledger.bus_exec_checks as f64,
        ledger.bus_denied as f64,
        tracer.total_s(Layer::Probe),
        ledger.probes as f64,
        tracer.total_s(Layer::Ota),
        ledger.ota_runs as f64,
        engine_s,
        engine_s / tracer.total_s(Layer::Replay),
        tracer.total_s(Layer::Fold) + tracer.total_s(Layer::Reduce),
        blocks.len() as f64,
        tracer.total_s(Layer::Render),
    ];
    let metrics = LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    TracedSample {
        digest,
        pinned: pinned_digest(workload, scenario),
        mismatches,
        metrics,
        tracer,
    }
}
