#!/usr/bin/env python3
"""Self-test of fgpu-perf, run by `ctest --test-dir build-perf`.

    python3 perf/selftest.py build-perf/fgpu-perf

For every workload in BENCHMARK.json it makes the shortest run fgpu-perf allows
(five cold set-ups and two warm passes of each kind) under two seeds, plus one
traced run, and fails unless
  - every run's output parses, is correct and has no failed operation;
  - every counter is identical across the seeds and the traced run (a
    reset() leak or an order dependence changes them);
  - the metric names and units match BENCHMARK.json;
  - in the traced run, every span lies inside its parent without overlapping
    its siblings, and the self times within each pass sum to the pass's wall
    time within 2%.
"""
import json
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

EPS_US = 1e-3  # trace timestamps are printed in microseconds to the nanosecond


def run(binary, tmp, workload, seed, traced):
    stem = Path(tmp) / f"{workload}-{seed}{'-traced' if traced else ''}"
    out = stem.with_suffix(".json")
    trace = stem.with_suffix(".trace.json")
    cmd = [binary, f"--workload={workload}", f"--seed={seed}", "--seconds=0.01", f"--out={out}"]
    if traced:
        cmd.append(f"--trace={trace}")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    problems = [] if proc.returncode == 0 else [f"exit status {proc.returncode}: {proc.stderr}"]
    try:
        last = json.loads(proc.stdout.splitlines()[-1])
        result = json.loads(out.read_text())
    except (IndexError, ValueError, OSError) as e:
        return None, problems + [f"unparsable output: {e}"]
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"last stdout line has keys {sorted(last)}")
    if any(last[k] != result[k] for k in last):
        problems.append("last stdout line differs from the --out result")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']} ({result['first_error']})")
    return (result, trace if traced else None), problems


def trace_problems(path, result):
    events = [e for e in json.loads(path.read_text())["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["id"]: e for e in events}
    children = defaultdict(list)
    problems = []
    for e in events:
        parent = by_id.get(e["args"]["parent"])
        if parent is None:
            continue
        children[parent["args"]["id"]].append(e)
        if (e["ts"] < parent["ts"] - EPS_US or
                e["ts"] + e["dur"] > parent["ts"] + parent["dur"] + EPS_US):
            problems.append(f"span {e['name']} #{e['args']['id']} leaves its parent")
    for kids in children.values():
        kids.sort(key=lambda e: e["ts"])
        for a, b in zip(kids, kids[1:]):
            if a["ts"] + a["dur"] > b["ts"] + EPS_US:
                problems.append(f"spans #{a['args']['id']} and #{b['args']['id']} overlap")

    self_ms = defaultdict(float)  # pass id -> summed self time
    for e in events:
        own = e["dur"] - sum(k["dur"] for k in children[e["args"]["id"]])
        self_ms[e["args"]["pass"]] += own / 1e3
    walls = result["samples"]["traced_pass_ms"]
    roots = sorted((e for e in events if e["name"] == "pass"), key=lambda e: e["ts"])
    if len(roots) != len(walls) or not walls:
        problems.append(f"{len(roots)} traced pass spans for {len(walls)} traced passes")
    for root, wall in zip(roots, walls):
        total = self_ms[root["args"]["pass"]]
        if abs(total - wall) > 0.02 * wall:
            problems.append(f"pass {root['args']['pass']}: self times sum to {total:.4f} ms, "
                            f"wall {wall:.4f} ms")
    return problems


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = sys.argv[1]
    bench = compare.load_benchmark()
    failures = []
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for seed, traced in ((1, False), (2, False), (3, True)):
                got, problems = run(binary, tmp, workload, seed, traced)
                label = f"{workload} seed {seed}{' traced' if traced else ''}"
                failures += [f"{label}: {p}" for p in problems]
                if got is None:
                    continue
                result, trace = got
                failures += [f"{label}: {p}" for p in compare.name_problems(result, bench)]
                if trace is not None:
                    failures += [f"{label}: {p}" for p in trace_problems(trace, result)]
                runs.append((label, result))
            for label, result in runs[1:]:
                if result["counts"] != runs[0][1]["counts"]:
                    failures.append(f"{label}: counters differ from {runs[0][0]}")
            print(f"{workload}: {len(runs)} runs checked", flush=True)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
