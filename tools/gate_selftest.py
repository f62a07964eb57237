#!/usr/bin/env python3
"""Self-test of check_baseline.py: proves every gate still bites.

Golden cases: each committed golden (BENCH_table1.json, BENCH_compare.json,
BENCH_mem.json, BENCH_codegen.json, BENCH_dse.json, BENCH_fig7.json) is
parsed, edited in a deep copy and written back the way the exporters write
it (indent 2, trailing newline), so the unedited copy is byte-equal to the
golden and must pass. Each planted drift must fail, and one failure line
must name the drifted item (every listed token appears on that line). The
drifts common to every golden are a field added, a field removed, the
schema tag flipped and a benchmark dropped; each golden adds drifts of its
own, down to single leaves (one stall bucket, one remark's text) and a
key-order-only edit.

Spearman cases: the DSE golden with its spearman set to 0.79 and to 0.8,
each compared with itself: the first must fail the floor, the second pass.

Digest cases: two tiny fgpu.stats.v1 documents (-O0 and -O2, two
benchmarks, each with vortex and turbo entries) go through --turbo-digests:
the clean pair must pass, and each planted fault must fail with its own
message.

Unreadable cases: a missing document and one holding malformed JSON, in
pair mode and in --turbo-digests mode. Each must fail with a
`check_baseline: PATH: cannot read (...)` line, not a Python traceback.

Stdlib only.

  python3 tools/gate_selftest.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
GATE = os.path.join(TOOLS, "check_baseline.py")


def run_gate(args):
    """Runs check_baseline.py; returns (exit code, failure lines, output)."""
    done = subprocess.run([sys.executable, GATE, *args], capture_output=True, text=True)
    failures = [line[4:] for line in done.stderr.splitlines() if line.startswith("  - ")]
    return done.returncode, failures, done.stdout + done.stderr


def write(path, doc):
    with open(path, "w") as f:
        f.write(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Golden cases. A mutation edits a deep copy of the golden in place and
# returns the tokens its failure line must carry, or None when the gate must
# pass.

def first(items, pred):
    return next(item for item in items if pred(item))


def field_added(doc):
    doc["selftest_field"] = 0
    return ["selftest_field", "(absent) -> 0"]


def field_removed(doc):
    parent, prefix = (doc["suite"], "suite.") if "suite" in doc else (doc, "")
    key = sorted(k for k in parent if k not in ("schema", "benchmarks"))[0]
    del parent[key]
    return [f"{prefix}{key} ", "-> (absent)"]


def tag_flipped(doc):
    before = doc["schema"]
    doc["schema"] = before[:-1] + "2"
    return [f'schema "{before}" -> "{doc["schema"]}"']


def benchmark_dropped(doc):
    dropped = doc["benchmarks"].pop(0)
    if isinstance(dropped, dict):
        return [f"benchmarks[{dropped['name']}] ", "-> (absent)"]
    return ["benchmarks[0] ", f'"{dropped}" -> (absent)']


def stats_leaf(device, *keys):
    """Bumps one numeric leaf under the first benchmark's DEVICE entry."""
    def mutate(doc):
        bench = doc["benchmarks"][0]
        parent = bench[device]
        for key in keys[:-1]:
            parent = parent[key]
        before = parent[keys[-1]]
        parent[keys[-1]] = before + 1
        path = ".".join((f"benchmarks[{bench['name']}]", device) + keys)
        return [f"{path} {before} -> {before + 1}"]
    return mutate


def stats_ok_flip(doc):
    bench = doc["benchmarks"][0]
    assert bench["vortex"]["ok"] is True
    bench["vortex"]["ok"] = False
    return [f"benchmarks[{bench['name']}].vortex.ok true -> false"]


def stats_digest(doc):
    bench = doc["benchmarks"][0]
    before = bench["vortex"]["output_digest"]
    bench["vortex"]["output_digest"] = "0x0000000000000000"
    return [f"benchmarks[{bench['name']}].vortex.output_digest",
            f'"{before}" -> "0x0000000000000000"']


def stats_key_order(doc):
    """Reverses the suite object's keys: every value stays, only bytes move.
    Line 4 is the suite object's first key."""
    doc["suite"] = dict(reversed(list(doc["suite"].items())))
    return ["line 4", "key order"]


def both_ok(doc):
    return first(doc["benchmarks"], lambda b: b.get("speedup_hls_over_vortex", 0) > 0)


def compare_coverage(doc):
    bench = both_ok(doc)
    bench["coverage"] = "neither"
    return [f"benchmarks[{bench['name']}].coverage", '"both" -> "neither"']


def compare_speedup(factor):
    def mutate(doc):
        bench = both_ok(doc)
        before = bench["speedup_hls_over_vortex"]
        bench["speedup_hls_over_vortex"] = before * factor
        return [f"benchmarks[{bench['name']}].speedup_hls_over_vortex {before} -> "]
    return mutate


def mem_miss_class(doc):
    bench = doc["benchmarks"][0]
    kernel = bench["vortex"]["kernels"][0]
    kernel["l1d"]["miss_classes"]["conflict"] += 1
    return [f"benchmarks[{bench['name']}].vortex.kernels[{kernel['kernel']}]"
            ".l1d.miss_classes.conflict"]


def mem_l2_by_pc(doc):
    bench = doc["benchmarks"][0]
    kernel = bench["vortex"]["kernels"][0]
    site = kernel["l2_by_pc"][0]
    site["misses"] += 1
    return [f"benchmarks[{bench['name']}].vortex.kernels[{kernel['kernel']}]"
            f".l2_by_pc[0].misses {site['misses'] - 1} -> {site['misses']}"]


def codegen_kernel(doc, pred):
    for bench in doc["benchmarks"]:
        for kernel in bench["kernels"]:
            if pred(kernel):
                return f"benchmarks[{bench['name']}].kernels[{kernel['kernel']}]", kernel
    raise AssertionError("no kernel matches")


def codegen_spills(doc):
    where, kernel = codegen_kernel(doc, lambda k: True)
    slots = kernel["spill_slots"]
    kernel["spill_slots"] = slots + 1
    return [f"{where}.spill_slots {slots} -> {slots + 1}"]


def codegen_remark_added(doc):
    where, kernel = codegen_kernel(doc, lambda k: k["remarks"])
    remark = kernel["remarks"][0]
    count = sum(r["name"] == remark["name"] for r in kernel["remarks"])
    kernel["remarks"].append(copy.deepcopy(remark))
    return [f"{where}.remarks[{remark['name']}#{count + 1}] (absent) -> "]


def codegen_remark_detail(doc):
    where, kernel = codegen_kernel(doc, lambda k: k["remarks"])
    remark = kernel["remarks"][0]
    remark["detail"] += " (edited)"
    return [f"{where}.remarks[{remark['name']}].detail", "(edited)"]


def codegen_pass_after(doc):
    where, kernel = codegen_kernel(doc, lambda k: k["passes"])
    stage = kernel["passes"][-1]
    key = sorted(stage["after"])[0]
    stage["after"][key] += 1
    return [f"{where}.passes[{stage['pass']}].after.{key}"]


def dse_funnel(doc):
    survivors = doc["funnel"]["analytical"]["survivors"]
    doc["funnel"]["analytical"]["survivors"] = survivors + 1
    return [f"funnel.analytical.survivors {survivors} -> {survivors + 1}"]


def dse_pareto(doc):
    label = doc["pareto"].pop(0)
    return ["pareto[0] ", f'"{label}" -> ']


def dse_evaluated(field):
    def mutate(doc):
        entry = doc["evaluated"][0]
        before = entry[field]
        entry[field] = before + 1
        return [f"evaluated[{entry['config']}].{field} {before} -> {before + 1}"]
    return mutate


def fig7_cell(doc):
    bench = doc["benchmarks"][0]
    before = bench["cycles"][0][0]
    bench["cycles"][0][0] = before + 1
    return [f"benchmarks[{bench['name']}].cycles[0][0] {before} -> {before + 1}"]


def fig7_size_dropped(doc):
    doc["sizes"].pop()
    n = len(doc["sizes"])
    return [f"sizes length {n + 1} -> {n}"]


COMMON = [
    ("itself", lambda doc: None),
    ("field added", field_added),
    ("field removed", field_removed),
    ("schema tag flipped", tag_flipped),
    ("benchmark dropped", benchmark_dropped),
]

GOLDENS = {
    "BENCH_table1.json": [
        ("vortex total_cycles +1", stats_leaf("vortex", "total_cycles")),
        ("hls total_cycles +1", stats_leaf("hls", "total_cycles")),
        ("vortex ok flipped", stats_ok_flip),
        ("vortex stalls.lsu +1", stats_leaf("vortex", "last_launch", "perf", "stalls", "lsu")),
        ("vortex output_digest changed", stats_digest),
        ("suite keys reordered", stats_key_order),
    ],
    "BENCH_compare.json": [
        ("coverage changed", compare_coverage),
        ("speedup drift 6%", compare_speedup(1.06)),
        ("speedup drift 4%", compare_speedup(1.04)),
    ],
    "BENCH_mem.json": [
        ("l1d conflict misses +1", mem_miss_class),
        ("l2_by_pc misses +1", mem_l2_by_pc),
    ],
    "BENCH_codegen.json": [
        ("spill_slots +1", codegen_spills),
        ("remark added", codegen_remark_added),
        ("remark detail edited", codegen_remark_detail),
        ("pass after-size +1", codegen_pass_after),
    ],
    "BENCH_dse.json": [
        ("funnel count +1", dse_funnel),
        ("Pareto member dropped", dse_pareto),
        ("simulated_cycles +1", dse_evaluated("simulated_cycles")),
        ("predicted_cycles +1", dse_evaluated("predicted_cycles")),
    ],
    "BENCH_fig7.json": [
        ("cycle cell +1", fig7_cell),
        ("sweep size dropped", fig7_size_dropped),
    ],
}


def golden_cases(tmp):
    failures = []
    count = 0
    current = os.path.join(tmp, "current.json")
    for name, own in GOLDENS.items():
        golden = os.path.join(ROOT, name)
        with open(golden) as f:
            doc = json.load(f)
        for label, mutate in COMMON + own:
            count += 1
            planted = copy.deepcopy(doc)
            want = mutate(planted)
            write(current, planted)
            rc, lines, output = run_gate([golden, current])
            if want is None:
                ok = rc == 0
            else:
                ok = rc == 1 and any(all(token in line for token in want) for line in lines)
            if not ok:
                failures.append(f"{name} {label}: exit {rc}, want "
                                f"{'pass' if want is None else want}; output:\n{output}")
    return count, failures


def spearman_cases(tmp):
    """The floor holds on any current DSE document, golden or not: each
    planted copy is compared with itself."""
    with open(os.path.join(ROOT, "BENCH_dse.json")) as f:
        doc = json.load(f)
    path = os.path.join(tmp, "dse.json")
    failures = []
    cases = [(0.79, 1, "spearman 0.79 below the floor 0.8"), (0.8, 0, "")]
    for value, want_rc, want_text in cases:
        doc["spearman"] = value
        write(path, doc)
        rc, _, output = run_gate([path, path])
        if rc != want_rc or want_text not in output:
            failures.append(f"spearman {value}: exit {rc} (want {want_rc}), output:\n{output}")
    return len(cases), failures


# ---------------------------------------------------------------------------
# Digest cases (--turbo-digests over two --device=all stats documents).

def stats_doc(opt_level):
    def run(digest):
        return {"ok": True, "verify_ok": True, "output_digest": digest}

    return {
        "schema": "fgpu.stats.v1",
        "suite": {"opt_level": opt_level, "benchmark_count": 2},
        "benchmarks": [
            {"name": name, "vortex": run(digest), "turbo": run(digest)}
            for name, digest in (("vecadd", "0x00000000000000a1"),
                                 ("sgemm", "0x00000000000000b2"))
        ],
    }


def digest_cases(tmp):
    o0, o2 = stats_doc(0), stats_doc(2)

    flipped_turbo = copy.deepcopy(o0)
    flipped_turbo["benchmarks"][1]["turbo"]["output_digest"] = "0x00000000000000ff"

    # Both -O2 tiers agree, so only the -O0-vs-O2 comparison can catch it.
    flipped_o2 = copy.deepcopy(o2)
    for device in ("vortex", "turbo"):
        flipped_o2["benchmarks"][0][device]["output_digest"] = "0x00000000000000ff"

    no_turbo = copy.deepcopy(o2)
    for bench in no_turbo["benchmarks"]:
        del bench["turbo"]

    cases = [
        ("clean pair", o0, o2, 0, "turbo-digests: 2 benchmarks"),
        ("flipped turbo digest", flipped_turbo, o2, 1, "-O0 sgemm: digest mismatch"),
        ("flipped -O2 vortex digest", o0, flipped_o2, 1, "vecadd: -O0 digest"),
        ("no turbo entries", o0, no_turbo, 1, "-O2 document has no turbo entries"),
    ]
    failures = []
    for label, a, b, want_rc, want_text in cases:
        paths = []
        for name, doc in (("o0.json", a), ("o2.json", b)):
            path = os.path.join(tmp, name)
            write(path, doc)
            paths.append(path)
        rc, _, output = run_gate([*paths, "--turbo-digests"])
        if rc != want_rc or want_text not in output:
            failures.append(f"digest {label}: exit {rc} (want {want_rc}), output:\n{output}")
    return len(cases), failures


# ---------------------------------------------------------------------------
# Unreadable cases: the failure names the document, with no traceback.

def unreadable_cases(tmp):
    golden = os.path.join(ROOT, "BENCH_fig7.json")
    missing = os.path.join(tmp, "nothere.json")
    malformed = os.path.join(tmp, "malformed.json")
    with open(malformed, "w") as f:
        f.write("{bad")
    cases = [
        ("pair, missing", [golden, missing], missing),
        ("pair, malformed", [golden, malformed], malformed),
        ("digests, missing", [golden, missing, "--turbo-digests"], missing),
        ("digests, malformed", [malformed, golden, "--turbo-digests"], malformed),
    ]
    failures = []
    for label, args, bad in cases:
        rc, _, output = run_gate(args)
        if rc != 1 or f"check_baseline: {bad}: cannot read (" not in output or \
                "Traceback" in output:
            failures.append(f"unreadable {label}: exit {rc} (want 1), output:\n{output}")
    return len(cases), failures


def main():
    counts = []
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for cases in (golden_cases, spearman_cases, digest_cases, unreadable_cases):
            count, found = cases(tmp)
            counts.append(count)
            failures += found
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:
        print(f"gate self-test: {counts[0]} golden cases, {counts[1]} Spearman cases, "
              f"{counts[2]} digest cases and {counts[3]} unreadable cases as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
