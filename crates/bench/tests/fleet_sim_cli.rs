//! The `fleet_sim` command line, driven as a process.
//!
//! Hostile or contradictory knobs must exit 2 before anything runs — never
//! be truncated or reinterpreted into a different campaign — and degenerate
//! but legal knobs (zero devices, zero events, zero workers) must still
//! print a valid JSON report with no `NaN` or infinity in it.

use std::process::{Command, Output};

fn fleet_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fleet_sim"))
        .args(args)
        .output()
        .expect("fleet_sim starts")
}

fn assert_rejected(args: &[&str]) {
    let out = fleet_sim(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "fleet_sim {args:?} must exit 2; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "a rejected run prints no report");
}

#[test]
fn permille_flags_outside_0_to_1000_exit_2() {
    for flag in [
        "--silent-permille",
        "--fault-permille",
        "--ota-permille",
        "--ota-corrupt-permille",
    ] {
        // 65536 and 66336 used to wrap to 0 and 800 through `as u16`;
        // 1001 and 5000 fit `u16` but are not rates.
        for value in ["1001", "5000", "65536", "66336", "-1", "0.5"] {
            assert_rejected(&[flag, value, "--no-write", "--no-store"]);
        }
    }
}

#[test]
fn ota_max_retries_beyond_u32_exits_2() {
    assert_rejected(&[
        "--ota-max-retries",
        "4294967296",
        "--no-write",
        "--no-store",
    ]);
}

#[test]
fn eliding_the_linear_oracle_exits_2() {
    assert_rejected(&["--elide-checks", "--linear", "--no-write", "--no-store"]);
}

#[test]
fn degenerate_knobs_emit_valid_finite_json() {
    for knob in [["--devices", "0"], ["--events", "0"], ["--workers", "0"]] {
        let mut args = vec!["--no-write", "--no-store"];
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
        if let Err(at) = validate_json(&text) {
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

/// Checks that `text` is exactly one RFC 8259 JSON value (plus
/// whitespace); on failure returns the byte offset where parsing stopped.
/// Strict numbers, so `NaN`, `inf` and friends are rejected as tokens.
fn validate_json(text: &str) -> Result<(), usize> {
    let b = text.as_bytes();
    let mut i = value(b, ws(b, 0))?;
    i = ws(b, i);
    if i == b.len() {
        Ok(())
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

fn value(b: &[u8], i: usize) -> Result<usize, usize> {
    match b.get(i) {
        Some(b'{') => seq(b, i, b'}', |b, i| {
            let i = ws(b, string(b, i)?);
            if b.get(i) != Some(&b':') {
                return Err(i);
            }
            value(b, ws(b, i + 1))
        }),
        Some(b'[') => seq(b, i, b']', value),
        Some(b'"') => string(b, i),
        Some(b'-' | b'0'..=b'9') => number(b, i),
        _ => ["true", "false", "null"]
            .iter()
            .find(|lit| b[i..].starts_with(lit.as_bytes()))
            .map(|lit| i + lit.len())
            .ok_or(i),
    }
}

/// An object or array opened at `b[i]`: `item`s separated by commas.
fn seq(
    b: &[u8],
    i: usize,
    close: u8,
    item: fn(&[u8], usize) -> Result<usize, usize>,
) -> Result<usize, usize> {
    let mut i = ws(b, i + 1);
    if b.get(i) == Some(&close) {
        return Ok(i + 1);
    }
    loop {
        i = ws(b, item(b, i)?);
        match b.get(i) {
            Some(b',') => i = ws(b, i + 1),
            Some(&c) if c == close => return Ok(i + 1),
            _ => return Err(i),
        }
    }
}

fn string(b: &[u8], i: usize) -> Result<usize, usize> {
    if b.get(i) != Some(&b'"') {
        return Err(i);
    }
    let mut i = i + 1;
    loop {
        match b.get(i) {
            Some(b'"') => return Ok(i + 1),
            Some(b'\\') => i += 2,
            Some(&c) if c >= 0x20 => i += 1,
            _ => return Err(i),
        }
    }
}

fn number(b: &[u8], mut i: usize) -> Result<usize, usize> {
    let digits = |b: &[u8], mut i: usize| -> Result<usize, usize> {
        let start = i;
        while b.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        if i == start {
            Err(i)
        } else {
            Ok(i)
        }
    };
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
    Ok(i)
}

#[test]
fn the_validator_rejects_what_it_must() {
    assert!(validate_json("{\"a\": [1, 2.5, -3e2, true, null, \"x\\\"y\"]}\n").is_ok());
    for bad in [
        "NaN",
        "inf",
        "{\"a\": NaN}",
        "[1,]",
        "{\"a\" 1}",
        "[1] [2]",
        "01x",
    ] {
        assert!(validate_json(bad).is_err(), "{bad:?} must not validate");
    }
}
