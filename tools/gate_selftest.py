#!/usr/bin/env python3
"""Self-test of check_baseline.py: proves every gate still bites.

Golden cases: each committed golden (BENCH_table1.json, BENCH_compare.json,
BENCH_mem.json, BENCH_codegen.json, BENCH_dse.json) compared with itself
must pass. Each planted drift, written to a temporary copy, must fail, and
one failure line must name the drifted item (every listed token appears on
that line). The drifts common to every golden are a field added, a field
removed, the schema tag flipped and a benchmark dropped; each document kind
adds drifts of its own signature.

Digest cases: two tiny fgpu.stats.v1 documents (-O0 and -O2, two
benchmarks, each with vortex and turbo entries) go through --turbo-digests:
the clean pair must pass, and each planted fault must fail with its own
message.

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


def gate(golden, current):
    """Compares CURRENT against the committed GOLDEN."""
    return run_gate([golden, current])


# ---------------------------------------------------------------------------
# Golden cases. A mutation edits a deep copy of the golden in place and
# returns the tokens its failure line must carry, or None when the gate must
# pass.

def first(items, pred):
    return next(item for item in items if pred(item))


def field_added(doc):
    doc["selftest_field"] = 0
    return ["'selftest_field'"]


def field_removed(doc):
    if "suite" in doc:
        key = sorted(doc["suite"])[0]
        del doc["suite"][key]
        return [f"'suite.{key}'", "vanished"]
    del doc["exact_budget"]
    return ["'exact_budget'", "vanished"]


def tag_flipped(doc):
    doc["schema"] = doc["schema"][:-1] + "2"
    return [f"'{doc['schema']}'"]


def benchmark_dropped(doc):
    dropped = doc["benchmarks"].pop(0)
    return [dropped["name"] if isinstance(dropped, dict) else dropped]


def stats_cycles(device):
    def mutate(doc):
        bench = doc["benchmarks"][0]
        cycles = bench[device]["total_cycles"]
        bench[device]["total_cycles"] = cycles + 1
        return [f"{bench['name']}/{device}", f"{cycles} -> {cycles + 1}"]
    return mutate


def stats_ok_flip(doc):
    bench = doc["benchmarks"][0]
    assert bench["vortex"]["ok"] is True
    bench["vortex"]["ok"] = False
    return [f"{bench['name']}/vortex", "True -> False"]


def both_ok(doc):
    return first(doc["benchmarks"], lambda b: b.get("speedup_hls_over_vortex", 0) > 0)


def compare_coverage(doc):
    bench = both_ok(doc)
    bench["coverage"] = "neither"
    return [f"{bench['name']} coverage", "'both' -> 'neither'"]


def compare_speedup(factor):
    def mutate(doc):
        bench = both_ok(doc)
        before = bench["speedup_hls_over_vortex"]
        bench["speedup_hls_over_vortex"] = before * factor
        if factor < 1.05:
            return None
        return [f"{bench['name']} speedup", f"{before:.4f}x -> {before * factor:.4f}x"]
    return mutate


def mem_miss_class(doc):
    bench = doc["benchmarks"][0]
    kernel = bench["vortex"]["kernels"][0]
    kernel["l1d"]["miss_classes"]["conflict"] += 1
    return [f"{bench['name']}/vortex/{kernel['kernel']}/l1d"]


def codegen_kernel(doc, pred):
    for bench in doc["benchmarks"]:
        for kernel in bench["kernels"]:
            if pred(kernel):
                return bench, kernel
    raise AssertionError("no kernel matches")


def codegen_spills(doc):
    bench, kernel = codegen_kernel(doc, lambda k: True)
    slots = kernel["spill_slots"]
    kernel["spill_slots"] = slots + 1
    return [f"{bench['name']}/{kernel['kernel']}", "spill_slots", f"{slots} -> {slots + 1}"]


def codegen_remark(doc):
    bench, kernel = codegen_kernel(doc, lambda k: k["remarks"])
    remark = kernel["remarks"][0]
    key = (remark["pass"], remark["action"])
    count = sum((r["pass"], r["action"]) == key for r in kernel["remarks"])
    kernel["remarks"].append(copy.deepcopy(remark))
    return [f"{bench['name']}/{kernel['kernel']}", "remark count", f"{key[0]}/{key[1]}",
            f"{count} -> {count + 1}"]


def codegen_pass_after(doc):
    bench, kernel = codegen_kernel(doc, lambda k: k["passes"])
    stage = kernel["passes"][-1]
    key = sorted(stage["after"])[0]
    stage["after"][key] += 1
    return [f"{bench['name']}/{kernel['kernel']}", f"stage '{stage['pass']}'"]


def dse_funnel(doc):
    survivors = doc["funnel"]["analytical"]["survivors"]
    doc["funnel"]["analytical"]["survivors"] = survivors + 1
    return ["analytical.survivors", f"{survivors} -> {survivors + 1}"]


def dse_pareto(doc):
    label = doc["pareto"].pop(0)
    return [f"'{label}'", "Pareto"]


def dse_cycles(doc):
    entry = doc["evaluated"][0]
    cycles = entry["simulated_cycles"]
    entry["simulated_cycles"] = cycles + 1
    return [entry["config"], "simulated", f"{cycles} -> {cycles + 1}"]


def dse_spearman(value):
    def mutate(doc):
        doc["spearman"] = value
        return None if value >= 0.8 else ["Spearman", f"{value:.4f} below the floor 0.8"]
    return mutate


COMMON = [
    ("itself", lambda doc: None),
    ("field added", field_added),
    ("field removed", field_removed),
    ("schema tag flipped", tag_flipped),
    ("benchmark dropped", benchmark_dropped),
]

GOLDENS = {
    "BENCH_table1.json": [
        ("vortex total_cycles +1", stats_cycles("vortex")),
        ("hls total_cycles +1", stats_cycles("hls")),
        ("vortex ok flipped", stats_ok_flip),
    ],
    "BENCH_compare.json": [
        ("coverage changed", compare_coverage),
        ("speedup drift 6%", compare_speedup(1.06)),
        ("speedup drift 4% (within tolerance)", compare_speedup(1.04)),
    ],
    "BENCH_mem.json": [
        ("l1d conflict misses +1", mem_miss_class),
    ],
    "BENCH_codegen.json": [
        ("spill_slots +1", codegen_spills),
        ("remark count +1", codegen_remark),
        ("pass after-size +1", codegen_pass_after),
    ],
    "BENCH_dse.json": [
        ("funnel count +1", dse_funnel),
        ("Pareto member dropped", dse_pareto),
        ("simulated_cycles +1", dse_cycles),
        ("Spearman below 0.8", dse_spearman(0.79)),
        ("Spearman at 0.8", dse_spearman(0.8)),
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
            with open(current, "w") as f:
                json.dump(planted, f)
            rc, lines, output = gate(golden, current)
            if want is None:
                ok = rc == 0
            else:
                ok = rc == 1 and any(all(token in line for token in want) for line in lines)
            if not ok:
                failures.append(f"{name} {label}: exit {rc}, want "
                                f"{'pass' if want is None else want}; output:\n{output}")
    return count, failures


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
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        rc, _, output = run_gate([*paths, "--turbo-digests"])
        if rc != want_rc or want_text not in output:
            failures.append(f"digest {label}: exit {rc} (want {want_rc}), output:\n{output}")
    return len(cases), failures


def main():
    with tempfile.TemporaryDirectory() as tmp:
        goldens, failures = golden_cases(tmp)
        digests, digest_failures = digest_cases(tmp)
    failures += digest_failures
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:
        print(f"gate self-test: {goldens} golden cases and {digests} digest cases as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
