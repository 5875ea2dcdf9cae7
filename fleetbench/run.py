#!/usr/bin/env python3
"""Fleet benchmark driver.

Builds the harness in this directory (release), then measures one workload
for --seconds seconds, starting a fresh harness process per sample, and
prints every metric as the last line of stdout:

    python3 fleetbench/run.py --workload dense --seed 7 --seconds 20 --trace 0
    python3 fleetbench/run.py                     # every workload, preset seeds

With `--workload all` (the default) the --seconds are split evenly over
dense, sparse and storm, and the last line maps each workload to its own
result, whose metrics carry the names BENCHMARK.json declares.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the median
over the samples.  On storm it also times the harness's reference kernel
in a process of its own before each sample, and reports the throughput
metrics at the reference host's speed: raw median x (median reference
time in this run / REFERENCE_S).  --trace 1 reports its per-layer metrics: it alternates
traced samples (which replay the workload layer by layer and must
reconcile with the engine's report) with untraced ones, whose simulate
time is the base of `trace.overhead`.

Every sample's report digest must equal the pinned digest (preset seed) or
else the first sample's digest for that seed; a sample that fails, panics
or mismatches counts in `failed`, and `correct` is true only when `failed`
is 0.  Run from the repository root.  Exits 1 without a result when
nothing could be measured, 2 on bad arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense", "sparse", "storm")
MIN_SAMPLES = 3
# One deadline for the whole invocation, counted after the build: no sample
# starts later than LAST_START_S and each is killed after SAMPLE_TIMEOUT_S,
# so any invocation, `all` included, measures for at most 165 s.
LAST_START_S = 120
SAMPLE_TIMEOUT_S = 45
BUILD_TIMEOUT_S = 840
# The reference kernel's median time on the host the benchmark was defined
# on: a 2-vCPU Xeon microVM at 2.0 GHz, 2 workers.  On a shared machine
# that host's memory system slows by up to ~30 % for minutes at a time.
# Storm's throughput and the reference, timed next to every sample, slow
# together, so storm's throughputs are scaled by it and the phases cancel.
# Dense's throughput does not follow the reference, so scaling would only
# add the reference's own noise (README.md, "Steadiness").
REFERENCE_S = 0.28
CALIBRATED_WORKLOADS = ("storm",)
CALIBRATED_METRICS = ("devices_per_s", "events_per_s", "sim_mcycles_per_s")


def fail(message):
    print(f"fleetbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the harness against the repository's crates; returns its path."""
    for crate in ("apps", "bench", "core", "fleet", "os"):
        manifest = os.path.join(ROOT, "crates", crate, "Cargo.toml")
        if not os.path.isfile(manifest):
            fail(f"{manifest} is missing: run from a full checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir(), "release", "fleetbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_metadata():
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "rustc": command_output(["rustc", "--version"]),
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_sample(binary, mode, workload=None, seed=None, extra=()):
    """One harness process; returns (document, None) or (None, error)."""
    cmd = [binary, mode]
    if workload is not None:
        cmd += ["--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    cmd += list(extra)
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{mode} timed out after {SAMPLE_TIMEOUT_S} s"
    if done.returncode != 0:
        return None, f"{mode} exited {done.returncode}: {done.stderr.strip()[-400:]}"
    try:
        return json.loads(done.stdout), None
    except ValueError as e:
        return None, f"{mode} printed no JSON: {e}"


class Checker:
    """Counts samples and checks each report digest against the pin, or
    else against the first digest seen for this seed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first_digest = None

    def accept(self, doc, error):
        self.attempted += 1
        if doc is not None:
            expected = doc["pinned"] or self.first_digest
            if expected is None:
                self.first_digest = doc["digest"]
            elif doc["digest"] != expected:
                error = f"report digest {doc['digest']} != expected {expected}"
        if error is not None:
            self.failed += 1
            self.errors.append(error)
            print(f"fleetbench: sample failed: {error}", file=sys.stderr)
            return False
        return True


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(binary, spec, workload, seed, seconds, traced, deadline):
    """Runs one workload for `seconds`, starting no sample after the
    monotonic time `deadline`; returns (result, metric table, record)."""
    checker = Checker()
    untraced, traced_docs, references = [], [], []
    spans = os.path.join(ROOT, ".bench_out", f"spans-{workload}.tsv")
    start = time.monotonic()
    while True:
        now = time.monotonic()
        if now > deadline or (now - start >= seconds and checker.attempted >= MIN_SAMPLES):
            break
        if traced and checker.attempted % 2 == 0:
            doc, err = run_sample(binary, "trace", workload, seed, ["--spans", spans])
            if checker.accept(doc, err):
                traced_docs.append(doc)
        else:
            if not traced and workload in CALIBRATED_WORKLOADS:
                ref, err = run_sample(binary, "reference")
                if err is not None:
                    checker.accept(None, err)
                    continue
                references.append(ref["reference_s"])
            doc, err = run_sample(binary, "sample", workload, seed)
            if checker.accept(doc, err):
                untraced.append(doc)

    metrics, table = {}, []
    specs = spec["per_layer"] if traced else spec["end_to_end"]
    if not (traced_docs if traced else untraced):
        return None, table, None
    scale = statistics.median(references) / REFERENCE_S if references else None
    if scale is not None:
        table.append(f"{'reference_s':<22} {statistics.median(references):>16.6g} s          "
                     f"n={len(references)} (throughput scale x{scale:.4f})")
    for m in specs:
        name, unit = m["name"], m["unit"]
        if name == "ok_share":
            values = [(checker.attempted - checker.failed) / checker.attempted]
        elif name == "trace.overhead":
            if not untraced:
                return None, table, None
            traced_s = [d["metrics"]["engine.run_s"]["value"] for d in traced_docs]
            values = [statistics.median(traced_s)
                      / statistics.median(d["run_s"] for d in untraced)]
        else:
            docs = traced_docs if traced else untraced
            values = [d["metrics"][name]["value"] for d in docs]
        value = statistics.median(values)
        q1, q3 = quartiles(values)
        raw = ""
        if name in CALIBRATED_METRICS and scale is not None:
            raw = f" raw={value:.6g}"
            value *= scale
        metrics[name] = {"value": value, "unit": unit}
        table.append(f"{name:<22} {value:>16.6g} {unit:<10} "
                     f"n={len(values)}{raw} q1={q1:.6g} q3={q3:.6g}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": (untraced or traced_docs)[0]["seed"],
        "workers": (untraced or traced_docs)[0]["workers"],
        "digest": (untraced or traced_docs)[0]["digest"],
        "errors": checker.errors,
        "reference_s": references,
        "samples": untraced + traced_docs,
        "result": result,
    }
    return result, table, record


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="replaces the preset's seed (default: the preset's own)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be 0 or more")

    host = host_metadata()
    binary = build()
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    seconds = args.seconds / len(workloads)
    deadline = time.monotonic() + LAST_START_S
    results = {}
    for workload in workloads:
        result, table, record = measure(binary, spec, workload, args.seed,
                                        seconds, args.trace == 1, deadline)
        if result is None:
            fail(f"{workload}: no sample succeeded")
        record["host"] = dict(host, workers=record["workers"])
        name = f"{workload}-seed{record['seed']}-trace{args.trace}.json"
        with open(os.path.join(ROOT, ".bench_out", name), "w") as f:
            json.dump(record, f, indent=2)
        print(f"== {workload} (seed {record['seed']}, digest {record['digest']})")
        print("\n".join(table))
        print("host: " + json.dumps(record["host"]))
        results[workload] = result
    print(json.dumps(results[workloads[0]] if len(results) == 1 else results))


if __name__ == "__main__":
    main()
