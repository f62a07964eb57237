#!/usr/bin/env python3
"""Compares two sets of fgpu-perf results against the bounds in BENCHMARK.json.

    python3 perf/compare.py --base old/*.json [--new new/*.json]

Each file is a result written by `fgpu-perf --out` (or `perf/run.py --out`).
For every workload x end-to-end metric it prints each set's median, quartiles
and spread (the interquartile distance as a share of the median, as
statistics.quantiles(n=4) gives them) and, with --new, the change of the
median. The change reads "unresolved" when a set is NOISY, unless every new
run is better than every base run. Traced results get a per-layer median
table, without bounds.

Exit status 1 when any of these holds:
  - a metric name appears in a result but not in BENCHMARK.json, or the
    other way round (end_to_end for untraced runs, per_layer for traced ones);
  - a result is incorrect or has failed operations;
  - a new median is worse than the base median by more than the bound;
  - a spread exceeds its bound (verdict NOISY): the set cannot resolve a
    change of that size.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_benchmark(path=BENCHMARK):
    with open(path) as f:
        return json.load(f)


def name_problems(result, bench):
    """Metric names of `result` that BENCHMARK.json lacks, and vice versa."""
    defs = bench["per_layer"] if result.get("traced") else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in defs}
    got = result["metrics"]
    problems = [f"metric {n!r} is not in BENCHMARK.json" for n in got if n not in want]
    problems += [f"metric {n!r} is missing" for n in want if n not in got]
    problems += [f"metric {n!r} has unit {got[n]['unit']!r}, BENCHMARK.json says {u!r}"
                 for n, u in want.items() if n in got and got[n]["unit"] != u]
    return problems


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def load_set(files, bench, problems, label):
    """Groups result files as {(workload, traced): [result, ...]}."""
    runs = defaultdict(list)
    for path in files:
        with open(path) as f:
            result = json.load(f)
        where = f"{label} {path}"
        problems += [f"{where}: {p}" for p in name_problems(result, bench)]
        if not result["correct"] or result["failed"]:
            problems.append(f"{where}: correct={result['correct']} failed={result['failed']}"
                            f" ({result.get('first_error', '')})")
        runs[(result["workload"], bool(result.get("traced")))].append(result)
    return runs


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True, help="result files of the base")
    parser.add_argument("--new", nargs="+", default=[], help="result files of the change")
    parser.add_argument("--benchmark", default=str(BENCHMARK))
    args = parser.parse_args()

    bench = load_benchmark(args.benchmark)
    problems = []
    sets = [("base", load_set(args.base, bench, problems, "base"))]
    if args.new:
        sets.append(("new", load_set(args.new, bench, problems, "new")))

    workloads = [w["name"] for w in bench["workloads"]]
    for label, runs in sets:
        untraced = {w for w, traced in runs if not traced}
        if untraced:
            problems += [f"{label}: no untraced results for {w}" for w in workloads
                         if w not in untraced]

    header = f"{'workload':<14} {'metric':<12} {'set':<4} {'median':>12} {'q1':>12} " \
             f"{'q3':>12} {'spread':>7} {'n':>3}  {'bound':>6}  verdict"
    print(header)
    for w in workloads:
        for m in bench["end_to_end"]:
            medians, samples, noisy = {}, {}, False
            for label, runs in sets:
                vals = values(runs.get((w, False), []), m["name"])
                if not vals:
                    continue
                median, q1, q3, spread = summarize(vals)
                medians[label], samples[label] = median, vals
                verdict = "ok"
                if spread > m["bound"]:
                    verdict, noisy = "NOISY", True
                    problems.append(f"{label} {w} {m['name']}: spread {spread:.4f} > bound")
                print(f"{w:<14} {m['name']:<12} {label:<4} {median:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>7.2%} {len(vals):>3}  {m['bound']:>6.2%}  {verdict}")
            if len(medians) == 2 and medians["base"]:
                change = (medians["new"] - medians["base"]) / medians["base"]
                worse = change if m["better"] == "lower" else -change
                if m["better"] == "lower":
                    all_better = max(samples["new"]) < min(samples["base"])
                else:
                    all_better = min(samples["new"]) > max(samples["base"])
                verdict = "WORSE" if worse > m["bound"] else "ok"
                if verdict == "ok" and noisy and not all_better:
                    # With a spread wider than the bound, a regression within
                    # the spread cannot be ruled out.
                    verdict = "unresolved"
                if verdict == "WORSE":
                    problems.append(f"{w} {m['name']}: {change:+.2%} exceeds bound")
                print(f"{w:<14} {m['name']:<12} {'chg':<4} {change:>+12.2%}"
                      f"{'':>41}  {m['bound']:>6.2%}  {verdict}")

    traced = [(label, runs) for label, runs in sets if any(t for _, t in runs)]
    if traced:
        print("\nper-layer medians of traced runs (no bounds)")
        print(f"{'workload':<14} {'metric':<32} " +
              "  ".join(f"{label:>14}" for label, _ in traced) + "  unit")
        for w in workloads:
            for m in bench["per_layer"]:
                cols = []
                for label, runs in traced:
                    vals = values(runs.get((w, True), []), m["name"])
                    cols.append(statistics.median(vals) if vals else None)
                if all(not c for c in cols):
                    continue
                text = "  ".join(f"{c:>14.6g}" if c is not None else f"{'-':>14}" for c in cols)
                print(f"{w:<14} {m['name']:<32} {text}  {m['unit']}")

    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
