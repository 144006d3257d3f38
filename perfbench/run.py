#!/usr/bin/env python3
"""Host-time benchmark of the beaconing and BGP simulators.

Run from the root of a checkout:

  python3 perfbench/run.py --workload core-baseline --seed 7 --seconds 30 --trace 0

builds perfbench_driver (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), repeats the
workload for --seconds, one child process per repetition, checks every
repetition's output hash against perfbench/reference.json, prints one line
per metric and, as the last line, one JSON object {"correct", "attempted",
"failed", "metrics"}.

  --trace 0   end-to-end metrics (event profiling off)
  --trace 1   per-layer metrics from one traced run (spans, event profiler)

Maintenance modes:

  --selftest                   toy-size checks (see perfbench_driver selftest)
  --record-reference A-B       re-records reference.json for seeds A..B
                               after a deliberate change of simulated output

Workloads, metrics and the layer-to-metric table are described in
perfbench/NOTES.md.
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
REFERENCE = os.path.join(HERE, "reference.json")
# BENCHMARK.json at the repository root declares the workloads and the
# metrics (name and unit) each kind of run reports.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _DECLARED = json.load(_f)
WORKLOADS = [w["name"] for w in _DECLARED["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in _DECLARED["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _DECLARED["per_layer"]]

BUILD_TIMEOUT_S = 800
MEASURE_SLACK_S = 60
TRACE_TIMEOUT_S = 170


class BenchError(Exception):
    pass


# --- reporting ---------------------------------------------------------------


def describe(binary, name, samples):
    """One human-readable line: median, top percentile and sample count.

    The top percentile (the highest one with at least ten samples beyond it)
    comes from perfbench_driver, which implements and self-tests that rule.
    """
    line = f"  {name}: median {statistics.median(samples):.6g} s"
    proc = subprocess.run([binary, "percentile"], capture_output=True,
                          text=True, timeout=60,
                          input="\n".join(str(round(x * 1e9)) for x in samples))
    top = json.loads(proc.stdout)
    if "ptop_pct" not in top:
        line += f" (n={top['n']}; no percentile has 10 samples beyond it)"
    else:
        line += (f", p{top['ptop_pct']:.4g} {top['ptop'] * 1e-9:.6g} s "
                 f"(n={top['n']})")
    return line


def report(declared, values):
    """Prints and returns the declared metrics that `values` holds."""
    metrics = {}
    for name, unit in declared:
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name}: {values[name]:.6g} {unit}")
        else:
            print(f"  {name}: not measured")
    return metrics


# --- build and child processes -----------------------------------------------


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configures (once) and builds perfbench_driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")
    return os.path.join(out, "perfbench_driver")


def run_driver(binary, args, timeout):
    """Runs the driver; returns (exit code, parsed JSON lines).

    On a timeout the exit code is None and the lines are those the driver
    wrote before it was stopped.
    """
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
        code, out = proc.returncode, proc.stdout
        if proc.stderr:
            sys.stderr.write(proc.stderr)
    except subprocess.TimeoutExpired as e:
        code, out = None, e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        print(f"perfbench: driver stopped after {timeout:.0f} s", file=sys.stderr)
    lines = []
    for raw in out.splitlines():
        try:
            lines.append(json.loads(raw))
        except json.JSONDecodeError:
            pass
    return code, lines


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}


def reference_hash(workload, seed):
    return load_reference().get(workload, {}).get(str(seed))


# --- the two kinds of run ----------------------------------------------------


def end_to_end(binary, workload, seed, seconds):
    """Repeats the workload, one driver process per repetition, until the
    next repetition would end after `seconds` (at least once)."""
    start = time.monotonic()
    inputs, runs, setups = None, [], []
    crashed = False
    longest = 0.0
    while not runs or time.monotonic() + longest <= start + seconds:
        began = time.monotonic()
        code, lines = run_driver(
            binary, ["measure", "--workload", workload, "--seed", str(seed)],
            timeout=max(1.0, start + seconds + MEASURE_SLACK_S - began))
        longest = max(longest, time.monotonic() - began)
        inputs = inputs or next((l for l in lines if l.get("kind") == "inputs"),
                                None)
        run = next((l for l in lines if l.get("kind") == "run"), None)
        # A crash, a non-zero exit or a timeout fails the repetition; the
        # ones after it would most likely fail the same way.
        if code != 0 or run is None:
            crashed = True
            print(f"{workload} seed {seed}: driver "
                  f"{'timed out' if code is None else f'exited with {code}'} "
                  f"in repetition {len(runs) + 1}")
            break
        runs.append(run)
        setups += [l for l in lines if l.get("kind") == "setup"]

    expected = reference_hash(workload, seed)
    checked_against = "reference"
    if expected is None and runs:
        checked_against = "first repetition (no reference for this seed)"
        expected = runs[0]["hash"]
    mismatched = [r for r in runs if r["hash"] != expected]
    attempted = len(runs) + crashed
    failed = len(mismatched) + crashed
    failed_share = f"  failed_share: {failed}/{attempted} = {failed / attempted:.3g}"
    if not runs:
        print(failed_share)
        return False, attempted, failed, {}

    # Times come from the fastest repetition: on a shared machine other
    # tenants slow a run down for seconds at a time, and the fastest of many
    # short repetitions is the one they disturbed least. Set-up is the
    # fastest of the set-up-only repetitions. The counts and the peak RSS
    # are the same in every repetition of a seed, up to a few pages.
    setup = [r["topology_s"] + r["construct_s"] for r in setups]
    fastest = min(runs, key=lambda r: r["run_s"])
    values = {
        "run_s": fastest["run_s"],
        "events_per_s": fastest["events"] / fastest["run_s"],
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
        "allocs": statistics.median([r["allocs"] for r in runs]),
        "alloc_mb": statistics.median([r["alloc_bytes"] for r in runs]) / 1e6,
    }
    if setup:
        values["setup_s"] = min(setup)
    print(f"{workload} seed {seed}: input seed {inputs['input_seed']} "
          f"({inputs['candidates']} candidates), {len(runs)} repetitions; "
          f"{len(mismatched)} output hashes differ from the {checked_against}")
    print(failed_share)
    if setup:
        print(describe(binary, "set-up", setup))
    print(describe(binary, "run()", [r["run_s"] for r in runs]))
    print(f"  peak RSS {statistics.median([r['pre_run_peak_rss_mb'] for r in runs]):.4g}"
          f" MB before run(), {values['peak_rss_mb']:.4g} MB after it")
    return failed == 0, attempted, failed, report(END_TO_END, values)


def traced(binary, workload, seed):
    spans_out = os.path.join(build_dir(), f"spans-{workload}.txt")
    code, lines = run_driver(
        binary, ["trace", "--workload", workload, "--seed", str(seed),
                 "--spans-out", spans_out],
        timeout=TRACE_TIMEOUT_S)
    inputs = next((l for l in lines if l.get("kind") == "inputs"), None)
    trace = next((l for l in lines if l.get("kind") == "trace"), None)
    if inputs is None or trace is None:
        print(f"{workload} seed {seed}: traced run produced no result "
              f"({'timed out' if code is None else f'exit code {code}'})")
        return False, 1, 1, {}
    expected = reference_hash(workload, seed)
    checked_against = "reference"
    if expected is None:
        checked_against = "untraced run (no reference for this seed)"
        expected = trace["hash"]
    ok = (code == 0 and trace["equivalent"] and not trace["nesting_error"]
          and trace["hash"] == expected)
    print(f"{workload} seed {seed}: input seed {inputs['input_seed']}, traced "
          f"run, {trace['spans']} spans -> {spans_out}")
    print(f"  untraced run_s {trace['untraced_run_s']:.6g} s, traced run_s "
          f"{trace['traced_run_s']:.6g} s, tracing overhead "
          f"{trace['trace.overhead_s']:.6g} s")
    print(f"  traced driver equal to the untraced run: {trace['equivalent']}; "
          f"output hash {trace['hash']} "
          f"{'matches' if trace['hash'] == expected else 'DIFFERS FROM'} the "
          f"{checked_against}")
    if trace["nesting_error"]:
        print(f"  span nesting: {trace['nesting_error']}")
    if trace["handle_pcb_ptop_pct"]:
        print(f"  ptop is handle_pcb p{trace['handle_pcb_ptop_pct']:.6g}, "
              f"on_interval p{trace['on_interval_ptop_pct']:.6g}")
    return ok, 1, 0 if ok else 1, report(PER_LAYER, trace)


# --- maintenance modes -------------------------------------------------------


def selftest(binary):
    failures = []
    code, lines = run_driver(binary, ["selftest"], timeout=TRACE_TIMEOUT_S)
    if code != 0:
        failures.append(f"perfbench_driver selftest exited with {code}")
    toy = load_reference().get("toy", {})
    for l in lines:
        key = f"{l['workload']}/{l['seed']}"
        if toy.get(key) != l["hash"]:
            failures.append(f"toy {key}: hash {l['hash']} != reference {toy.get(key)}")
    for f in failures:
        print("FAILED:", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


def record_reference(binary, seeds):
    ref = {"toy": {}}
    _, lines = run_driver(binary, ["selftest"], timeout=TRACE_TIMEOUT_S)
    for l in lines:
        ref["toy"][f"{l['workload']}/{l['seed']}"] = l["hash"]
    for workload in WORKLOADS:
        ref[workload] = {}
        for seed in seeds:
            code, lines = run_driver(
                binary, ["measure", "--workload", workload, "--seed", str(seed)],
                timeout=TRACE_TIMEOUT_S)
            runs = [l for l in lines if l.get("kind") == "run"]
            if code != 0 or not runs:
                raise BenchError(f"{workload} seed {seed}: driver failed")
            ref[workload][str(seed)] = runs[0]["hash"]
            print(workload, seed, runs[0]["hash"], flush=True)
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=_DECLARED["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record-reference", metavar="A-B")
    args = p.parse_args()
    try:
        binary = build()
        if args.selftest:
            return selftest(binary)
        if args.record_reference:
            lo, hi = (int(x) for x in args.record_reference.split("-"))
            return record_reference(binary, range(lo, hi + 1))
        if args.workload is None:
            p.error("--workload is required")
        if args.trace:
            correct, attempted, failed, metrics = traced(binary, args.workload,
                                                         args.seed)
        else:
            correct, attempted, failed, metrics = end_to_end(
                binary, args.workload, args.seed, args.seconds)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
