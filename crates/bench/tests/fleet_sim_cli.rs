//! The `fleet_sim` command line, driven as a process.
//!
//! Hostile, contradictory or unknown arguments must exit 2 before anything
//! runs — never be truncated, ignored or reinterpreted into a different
//! campaign — and degenerate but legal knobs (zero devices, zero events,
//! zero workers) must still print a valid JSON report with no `NaN` or
//! infinity in it.  The deterministic report must be byte-identical for
//! any worker count, in both time modes (also for the 10⁴-device streamed
//! scaling preset), and for cold, warm and paranoid firmware-store runs;
//! `--verify` must pass its gate on the default fleet.  No run writes a
//! file it was not asked for.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `fleet_sim args` in a fresh, empty working directory and checks
/// that the run left it empty: the report goes to stdout, and only
/// `--report-out` and `--store` (always absolute paths here) write files.
fn fleet_sim(args: &[&str]) -> Output {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let cwd = std::env::temp_dir().join(format!(
        "fleet_sim_cli-{}-cwd{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&cwd).expect("empty working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_fleet_sim"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("fleet_sim starts");
    let left: Vec<_> = std::fs::read_dir(&cwd)
        .expect("working directory still there")
        .map(|e| e.expect("directory entry").file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&cwd);
    assert!(
        left.is_empty(),
        "fleet_sim {args:?} wrote {left:?} into its working directory"
    );
    out
}

/// Asserts that `fleet_sim args` exits 2 with no report, and that its
/// stderr names `reason`: each case must be refused for its own fault,
/// not for some other flag in the list.
fn assert_rejected(args: &[&str], reason: &str) {
    let out = fleet_sim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "fleet_sim {args:?} must exit 2; stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "a rejected run prints no report");
    assert!(
        stderr.contains(reason),
        "fleet_sim {args:?} must be refused for {reason:?}; stderr: {stderr}"
    );
}

#[test]
fn permille_flags_outside_0_to_1000_exit_2() {
    for flag in [
        "--silent-permille",
        "--fault-permille",
        "--ota-permille",
        "--ota-corrupt-permille",
    ] {
        // 1001 and 5000 fit `u16` but are not rates.
        for value in ["1001", "5000"] {
            assert_rejected(&[flag, value], "outside 0..=1000");
        }
        // 65536 and 66336 used to wrap to 0 and 800 through `as u16`.
        for value in ["65536", "66336", "-1", "0.5"] {
            assert_rejected(&[flag, value], "not a number that fits");
        }
    }
}

#[test]
fn ota_max_retries_beyond_u32_exits_2() {
    assert_rejected(
        &["--ota-max-retries", "4294967296"],
        "not a number that fits",
    );
}

#[test]
fn contradictory_unknown_and_bare_arguments_exit_2() {
    for (args, reason) in [
        (&["--store-cap-bytes", "1"][..], "needs --store DIR"),
        (&["--paranoid"], "needs --store DIR"),
        (
            &["--preset", "scaling", "--preset", "storm"],
            "--preset given twice",
        ),
        (&["--no-such-flag"], "unknown flag"),
        // Removed flags are refused, never silently accepted.
        (&["--linear"], "unknown flag"),
        (&["--no-write"], "unknown flag"),
        (&["--no-store"], "unknown flag"),
        (&["--scaling"], "unknown flag"),
        (&["--scaling-point"], "unknown flag"),
        (&["64"], "unexpected argument"),
    ] {
        assert_rejected(args, reason);
    }
}

/// Runs `fleet_sim` with `args` and returns the deterministic document it
/// wrote to `--report-out` plus the full report it printed; `name` keeps
/// concurrent tests' files apart.
fn report_out(args: &[&str], name: &str) -> (String, String) {
    let path =
        std::env::temp_dir().join(format!("fleet_sim_cli-{}-{name}.json", std::process::id()));
    let path_arg = path.to_str().expect("UTF-8 temp path");
    let args = [args, &["--report-out", path_arg]].concat();
    let out = fleet_sim(&args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "fleet_sim {args:?} must succeed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&path).expect("--report-out file written");
    let _ = std::fs::remove_file(&path);
    (doc, String::from_utf8(out.stdout).expect("UTF-8 report"))
}

#[test]
fn reports_are_byte_identical_for_1_and_8_workers_in_both_time_modes() {
    let arrival = ["--devices", "200", "--events", "60"];
    let stepped = [&arrival[..], &["--seed", "990951", "--mode", "stepped"]].concat();
    let mut docs = Vec::new();
    for (label, args) in [("arrival", &arrival[..]), ("stepped", &stepped[..])] {
        let (w1, _) = report_out(
            &[args, &["--workers", "1"]].concat(),
            &format!("{label}-w1"),
        );
        let (w8, _) = report_out(
            &[args, &["--workers", "8"]].concat(),
            &format!("{label}-w8"),
        );
        assert!(w1 == w8, "{label} report differs between 1 and 8 workers");
        docs.push(parse_json(&w1).unwrap_or_else(|at| panic!("invalid JSON at byte {at}")));
    }

    // The arrival-order fleet mixes all five platform profiles.
    let Value::Arr(platforms) = docs[0].at("aggregate/devices_per_platform") else {
        panic!("devices_per_platform is not an array");
    };
    let mut drawn: Vec<&str> = platforms.iter().map(|p| p.at("name").str()).collect();
    drawn.sort_unstable();
    assert_eq!(
        drawn,
        [
            "cortex-m33",
            "msp430fr5969",
            "msp430fr5969-advanced-mpu",
            "msp430fr5994",
            "riscv-pmp",
        ]
    );

    // The stepped report: idle dominates a wearable trace, and batching
    // trades visible delivery latency for its switch savings.
    let agg = docs[1].at("aggregate");
    assert!(agg.at("per_event/idle_energy_share").num() > 0.5);
    assert!(
        agg.at("batched/delivery_latency_ms/p50").num()
            > agg.at("per_event/delivery_latency_ms/p50").num()
    );
}

/// `--verify` arms the static gate fleet-wide: every distinct image of a
/// 300-device fleet certifies with zero proven escapes, benign code
/// proves safe, and the verifier still finds redundant bound checks.
#[test]
fn verify_gate_passes_fleet_wide() {
    let args = [
        "--devices",
        "300",
        "--events",
        "40",
        "--summary",
        "--verify",
    ];
    let out = fleet_sim(&args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "fleet_sim {args:?} must succeed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("UTF-8 report");
    let doc = parse_json(&text).unwrap_or_else(|at| panic!("invalid JSON at byte {at}"));
    let v = doc.at("verifier");
    assert!(matches!(v.at("passes_gate"), Value::Bool(true)), "{v:?}");
    assert_eq!(v.at("proven_escape").num(), 0.0, "{v:?}");
    assert!(v.at("proven_safe").num() > 0.0, "{v:?}");
    assert!(v.at("elidable_sites").num() > 0.0, "{v:?}");
}

/// The 10⁴-device streamed scaling preset — the mostly-silent campaign
/// the block engine exists for — renders byte-identical deterministic
/// reports on 1 and 8 workers in both time modes, within a wall-clock
/// budget of seconds, not minutes.
#[test]
fn scaling_preset_at_10k_devices_is_byte_identical_for_1_and_8_workers() {
    let scaling = ["--preset", "scaling", "--devices", "10000", "--summary"];
    for mode in ["stepped", "arrival-order"] {
        let args = [&scaling[..], &["--mode", mode]].concat();
        let (w1, stdout) = report_out(
            &[&args[..], &["--workers", "1"]].concat(),
            &format!("scaling-{mode}-w1"),
        );
        let (w8, _) = report_out(
            &[&args[..], &["--workers", "8"]].concat(),
            &format!("scaling-{mode}-w8"),
        );
        assert!(
            w1 == w8,
            "{mode} scaling report differs between 1 and 8 workers"
        );
        if mode == "stepped" {
            let doc = parse_json(&w1).unwrap_or_else(|at| panic!("invalid JSON at byte {at}"));
            assert_eq!(doc.at("scenario/silent_permille").num(), 800.0);
            assert_eq!(doc.at("aggregate/devices").num(), 10_000.0);
            let printed =
                parse_json(&stdout).unwrap_or_else(|at| panic!("invalid JSON at byte {at}"));
            let wall = printed.at("timing/wall_seconds").num();
            assert!(
                wall < 60.0,
                "10⁴ mostly-silent devices took {wall} s on one worker"
            );
        }
    }
}

/// A 10⁴-device scaling campaign run cold, warm and paranoid — each in a
/// fresh process, all sharing one store directory — renders the same
/// deterministic report three times.  The cold run builds and persists
/// every distinct image, the warm run loads every one from disk and
/// builds none, and the paranoid run rebuilds and byte-compares every
/// disk image without a mismatch.
#[test]
fn firmware_store_cold_warm_and_paranoid_runs_agree_at_10k_devices() {
    let dir = std::env::temp_dir().join(format!("fleet_sim_cli-{}-store", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().expect("UTF-8 temp path");
    let campaign = [
        "--preset",
        "scaling",
        "--devices",
        "10000",
        "--summary",
        "--store",
        store,
    ];
    let mut reports = Vec::new();
    let mut docs = Vec::new();
    for (phase, extra) in [
        ("cold", &[][..]),
        ("warm", &[]),
        ("paranoid", &["--paranoid"]),
    ] {
        let (report, stdout) = report_out(&[&campaign[..], extra].concat(), phase);
        reports.push(report);
        docs.push(parse_json(&stdout).unwrap_or_else(|at| panic!("invalid JSON at byte {at}")));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(reports[0] == reports[1], "cold and warm reports differ");
    assert!(reports[0] == reports[2], "cold and paranoid reports differ");

    let [cold, warm, paranoid] = [0, 1, 2].map(|i| docs[i].at("firmware_store"));
    let configs = cold.at("prewarm/configs").num();
    assert!(configs > 0.0, "{cold:?}");
    assert_eq!(cold.at("stats/builds").num(), configs, "{cold:?}");
    assert!(cold.at("stats/bytes_written").num() > 0.0, "{cold:?}");
    assert_eq!(warm.at("prewarm/configs").num(), configs, "{warm:?}");
    assert_eq!(
        warm.at("stats/builds").num(),
        0.0,
        "warm run rebuilt: {warm:?}"
    );
    assert_eq!(warm.at("stats/disk_hits").num(), configs, "{warm:?}");
    assert_eq!(
        warm.at("stats/bytes_read").num(),
        cold.at("stats/bytes_written").num(),
        "{warm:?}"
    );
    assert!(
        matches!(paranoid.at("paranoid"), Value::Bool(true)),
        "{paranoid:?}"
    );
    assert_eq!(
        paranoid.at("stats/verify_failures").num(),
        0.0,
        "{paranoid:?}"
    );
    assert_eq!(paranoid.at("stats/builds").num(), configs, "{paranoid:?}");
}

#[test]
fn degenerate_knobs_emit_valid_finite_json() {
    for knob in [["--devices", "0"], ["--events", "0"], ["--workers", "0"]] {
        let mut args = Vec::new();
        if knob[0] != "--devices" {
            args.extend(["--devices", "16"]);
        }
        args.extend(knob);
        let out = fleet_sim(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "fleet_sim {args:?} must succeed; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).expect("UTF-8 report");
        if let Err(at) = parse_json(&text) {
            panic!("fleet_sim {args:?} printed invalid JSON at byte {at}:\n{text}");
        }
        // The renderer writes a non-finite float as `null`, and these
        // reports have no other nulls: a `null` here is a NaN or an inf.
        assert!(
            !text.contains("null"),
            "fleet_sim {args:?} printed a non-finite number:\n{text}"
        );
    }
}

/// A parsed JSON value: just enough to read names and numbers out of a
/// report.
#[derive(Debug)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value at `path`, a `/`-separated list of object keys.
    fn at(&self, path: &str) -> &Value {
        path.split('/').fold(self, |v, key| match v {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("{path}: no field {key:?}")),
            other => panic!("{path}: {key:?} looked up in {other:?}"),
        })
    }

    fn num(&self) -> f64 {
        match self {
            Value::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
}

/// A parsed item and the byte offset just past it, or the offset where
/// parsing stopped.
type Parsed<T> = Result<(T, usize), usize>;

/// Parses `text` as exactly one RFC 8259 JSON value (plus whitespace); on
/// failure returns the byte offset where parsing stopped.  Strict
/// numbers, so `NaN`, `inf` and friends are rejected as tokens.
fn parse_json(text: &str) -> Result<Value, usize> {
    let b = text.as_bytes();
    let (v, i) = value(b, ws(b, 0))?;
    let i = ws(b, i);
    if i == b.len() {
        Ok(v)
    } else {
        Err(i)
    }
}

fn ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

fn value(b: &[u8], i: usize) -> Parsed<Value> {
    let literal = |lit: &str, v: Value| {
        b[i..]
            .starts_with(lit.as_bytes())
            .then(|| (v, i + lit.len()))
    };
    match b.get(i) {
        Some(b'{') => {
            let (fields, i) = seq(b, i, b'}', |b, i| {
                let (key, i) = string(b, i)?;
                let i = ws(b, i);
                if b.get(i) != Some(&b':') {
                    return Err(i);
                }
                let (v, i) = value(b, ws(b, i + 1))?;
                Ok(((key, v), i))
            })?;
            Ok((Value::Obj(fields), i))
        }
        Some(b'[') => seq(b, i, b']', value).map(|(items, i)| (Value::Arr(items), i)),
        Some(b'"') => string(b, i).map(|(s, i)| (Value::Str(s), i)),
        Some(b'-' | b'0'..=b'9') => number(b, i),
        _ => literal("true", Value::Bool(true))
            .or_else(|| literal("false", Value::Bool(false)))
            .or_else(|| literal("null", Value::Null))
            .ok_or(i),
    }
}

/// An object or array opened at `b[i]`: `item`s separated by commas.
fn seq<T>(b: &[u8], i: usize, close: u8, item: fn(&[u8], usize) -> Parsed<T>) -> Parsed<Vec<T>> {
    let mut items = Vec::new();
    let mut i = ws(b, i + 1);
    if b.get(i) == Some(&close) {
        return Ok((items, i + 1));
    }
    loop {
        let (v, next) = item(b, i)?;
        items.push(v);
        i = ws(b, next);
        match b.get(i) {
            Some(b',') => i = ws(b, i + 1),
            Some(&c) if c == close => return Ok((items, i + 1)),
            _ => return Err(i),
        }
    }
}

/// A string opened at `b[i]`.  An escaped character is kept as the
/// character after the backslash — enough for the names a report holds.
fn string(b: &[u8], i: usize) -> Parsed<String> {
    if b.get(i) != Some(&b'"') {
        return Err(i);
    }
    let mut out = Vec::new();
    let mut i = i + 1;
    loop {
        match b.get(i) {
            Some(b'"') => return Ok((String::from_utf8_lossy(&out).into_owned(), i + 1)),
            Some(b'\\') => {
                out.extend(b.get(i + 1));
                i += 2;
            }
            Some(&c) if c >= 0x20 => {
                out.push(c);
                i += 1;
            }
            _ => return Err(i),
        }
    }
}

fn number(b: &[u8], start: usize) -> Parsed<Value> {
    let digits = |b: &[u8], mut i: usize| -> Result<usize, usize> {
        let first = i;
        while b.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        if i == first {
            Err(i)
        } else {
            Ok(i)
        }
    };
    let mut i = start;
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    i = digits(b, i)?;
    if b.get(i) == Some(&b'.') {
        i = digits(b, i + 1)?;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        i = digits(b, i)?;
    }
    let text = std::str::from_utf8(&b[start..i]).expect("ASCII number");
    Ok((Value::Num(text.parse().map_err(|_| start)?), i))
}

#[test]
fn the_validator_rejects_what_it_must() {
    let doc = parse_json("{\"a\": [1, 2.5, -3e2, true, null, \"x\\\"y\"]}\n").expect("valid");
    let Value::Arr(items) = doc.at("a") else {
        panic!("{doc:?}");
    };
    assert_eq!(items[2].num(), -300.0);
    assert!(matches!(items[3..5], [Value::Bool(true), Value::Null]));
    assert_eq!(items[5].str(), "x\"y");
    for bad in [
        "NaN",
        "inf",
        "{\"a\": NaN}",
        "[1,]",
        "{\"a\" 1}",
        "[1] [2]",
        "01x",
    ] {
        assert!(parse_json(bad).is_err(), "{bad:?} must not validate");
    }
}
