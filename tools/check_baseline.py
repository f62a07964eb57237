#!/usr/bin/env python3
"""Gate exported fgpu documents against their committed goldens.

  check_baseline.py BASE CUR [BASE CUR ...]
  check_baseline.py O0.json O2.json --turbo-digests
  check_baseline.py --schema-list FILE [FILE ...]

Pair mode: each (BASE, CUR) pair is dispatched on its "schema" tag through
GATES, and every pair goes through the same steps:

  * both documents carry the same tag, and GATES registers it;
  * key-path drift: the set of key paths must match (a field added,
    removed or renamed without bumping the schema tag);
  * benchmark set: every benchmark object in one document is in the other
    (a DSE document's "benchmarks" lists names, a sweep parameter that its
    signature compares instead);
  * signature: the schema's signature function maps a document to named
    items, and every item must match. Counts match exactly; a Ratio
    matches within SPEEDUP_TOLERANCE either way; a Floor matches while the
    current value stays at or above SPEARMAN_MIN.

The signatures (the goldens CI compares against in parentheses):

  fgpu.stats.v1 (BENCH_table1.json): ok and total_cycles per benchmark on
    vortex and hls. Any cycle delta fails: the simulator is deterministic
    and its fast paths are host-speed-only.
  fgpu.compare.v1 (BENCH_compare.json): each benchmark's coverage class
    (both / vortex_only / hls_only / neither) and its HLS-over-vortex
    speedup. The Fig. 6 ratios are the paper's headline numbers, so drift
    beyond 5% in either direction fails.
  fgpu.mem.v1 (BENCH_mem.json): per benchmark, device, kernel and cache
    level, the (accesses, misses, compulsory, capacity, conflict) vector.
  fgpu.codegen.v1 (BENCH_codegen.json): per kernel, the static compiler
    metrics, every pipeline stage's (position, remarks, before, after) and
    the remark count per (pass, action).
  fgpu.dse.v1 (BENCH_dse.json): the sweep parameters, every funnel count,
    Pareto membership, each evaluated configuration's simulated cycles and
    ok, and the analytical model's Spearman rank correlation >= 0.8.
  fgpu.profile.v1, fgpu.hlsprof.v1, fgpu.fig7.v1: key paths and benchmark
    set only (CI byte-compares them instead).

Output-digest gate (--turbo-digests): O0 and O2 are the fgpu.stats.v1
documents of two fgpu-run --device=all runs at different opt levels (CI:
-O0, the straight-lowering oracle, and -O2). Inside each document, every
benchmark's "turbo" entry must be ok and its output_digest must equal the
"vortex" entry's bit-for-bit: the binary-translation tier must retire
exactly the architectural state the cycle-exact oracle does. Across the two
documents, every benchmark's vortex output_digest and verify_ok must match:
the optimizer must preserve every output bit. A document without turbo
entries, or two documents at one opt level, fails, so the gate cannot pass
vacuously.

Schema lint (--schema-list): every listed document must carry a "schema"
field whose value is a key of GATES (the OBSERVABILITY.md schema index), so
a new exporter cannot ship an unregistered or typo'd tag.

tools/gate_selftest.py plants a drift of each kind into a copy of each
golden and proves the gate fails on it. Stdlib only.
"""

import argparse
import json
import sys

SPEEDUP_TOLERANCE = 0.05
SPEARMAN_MIN = 0.8


class Ratio:
    """A speedup ratio (0 when absent): matches within SPEEDUP_TOLERANCE of the baseline."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        if not isinstance(other, Ratio):
            return NotImplemented
        base, cur = self.value, other.value
        if base > 0 and cur > 0:
            return abs(cur - base) / base <= SPEEDUP_TOLERANCE
        return (base > 0) == (cur > 0)

    def __repr__(self):
        return f"{self.value:.4f}x"


class Floor:
    """A score that matches while the current value is at or above SPEARMAN_MIN."""

    def __init__(self, value):
        self.value = value if isinstance(value, (int, float)) else None

    def __eq__(self, other):
        if not isinstance(other, Floor):
            return NotImplemented
        return other.value is not None and other.value >= SPEARMAN_MIN

    def __repr__(self):
        if self.value is None:
            return "missing"
        below = f" below the floor {SPEARMAN_MIN}" if self.value < SPEARMAN_MIN else ""
        return f"{self.value:.4f}{below}"


def schema_paths(node, prefix=""):
    """The set of key paths in a JSON tree; array elements share a path."""
    paths = set()
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.add(path)
            paths.update(schema_paths(value, path))
    elif isinstance(node, list):
        for value in node:
            paths.update(schema_paths(value, prefix + "[]"))
    return paths


def by_name(doc):
    return {b["name"]: b for b in doc.get("benchmarks", []) if isinstance(b, dict)}


def stats_signature(doc):
    sig = {}
    for name, bench in by_name(doc).items():
        for device in ("vortex", "hls"):
            run = bench.get(device) or {}
            sig[f"{name}/{device} ok"] = run.get("ok")
            sig[f"{name}/{device} total_cycles"] = run.get("total_cycles")
    return sig


def compare_signature(doc):
    sig = {}
    for name, bench in by_name(doc).items():
        sig[f"{name} coverage"] = bench.get("coverage")
        sig[f"{name} speedup"] = Ratio(bench.get("speedup_hls_over_vortex", 0.0))
    return sig


def mem_signature(doc):
    sig = {}
    for name, bench in by_name(doc).items():
        for device in ("vortex", "hls"):
            for kernel in (bench.get(device) or {}).get("kernels", []):
                for level in ("l1d", "l1i", "l2", "readpath"):
                    p = kernel.get(level)
                    if p is not None:
                        mc = p.get("miss_classes", {})
                        sig[f"{name}/{device}/{kernel.get('kernel')}/{level}"] = (
                            p.get("accesses"), p.get("misses"), mc.get("compulsory"),
                            mc.get("capacity"), mc.get("conflict"))
    return sig


CODEGEN_STATIC = ("opt_level", "barrier_dispatch", "code_words", "spill_slots",
                  "simt_instructions", "mem_instructions")


def codegen_signature(doc):
    sig = {}
    for name, bench in by_name(doc).items():
        for kernel in bench.get("kernels", []):
            where = f"{name}/{kernel.get('kernel')}"
            for field in CODEGEN_STATIC:
                sig[f"{where}: {field}"] = kernel.get(field)
            for i, p in enumerate(kernel.get("passes", [])):
                sig[f"{where}: stage '{p.get('pass')}' #{i}"] = (
                    p.get("remarks"), sorted(p.get("before", {}).items()),
                    sorted(p.get("after", {}).items()))
            for r in kernel.get("remarks", []):
                key = f"{where}: remark count {r.get('pass')}/{r.get('action')}"
                sig[key] = sig.get(key, 0) + 1
    return sig


def dse_signature(doc):
    sig = {f"sweep {field}": doc.get(field)
           for field in ("grid", "benchmarks", "opt_level", "exact_budget")}
    for stage, value in doc.get("funnel", {}).items():
        if isinstance(value, dict):
            sig.update({f"funnel {stage}.{key}": n for key, n in value.items()})
        else:
            sig[f"funnel {stage}"] = value
    for label in doc.get("pareto", []):
        sig[f"Pareto member {label!r}"] = True
    for entry in doc.get("evaluated", []):
        sig[f"{entry.get('config')} simulated_cycles"] = entry.get("simulated_cycles")
        sig[f"{entry.get('config')} ok"] = entry.get("ok")
    sig["Spearman"] = Floor(doc.get("spearman"))
    return sig


def no_signature(doc):
    return {}


# Every schema version an fgpu tool exports (the OBSERVABILITY.md schema
# index), with the signature its gate compares. A new exporter registers
# here AND in the index table.
GATES = {
    "fgpu.stats.v1": stats_signature,
    "fgpu.profile.v1": no_signature,
    "fgpu.hlsprof.v1": no_signature,
    "fgpu.mem.v1": mem_signature,
    "fgpu.compare.v1": compare_signature,
    "fgpu.codegen.v1": codegen_signature,
    "fgpu.dse.v1": dse_signature,
    "fgpu.fig7.v1": no_signature,
}


def load(path):
    with open(path) as f:
        return json.load(f)


def check_pair(base_path, cur_path):
    """GATING comparison of CUR against the golden BASE. Returns failures."""
    base, cur = load(base_path), load(cur_path)
    tag = base.get("schema")
    if cur.get("schema") != tag:
        return [f"schema tag drift: baseline {tag!r} vs current {cur.get('schema')!r}"]
    if tag not in GATES:
        return [f"{base_path}: unknown schema {tag!r} (known: {', '.join(GATES)})"]
    kind = tag.split(".")[1]

    failures = []
    base_paths, cur_paths = schema_paths(base), schema_paths(cur)
    for path in sorted(base_paths - cur_paths):
        failures.append(f"{kind}: schema drift: field '{path}' vanished")
    for path in sorted(cur_paths - base_paths):
        failures.append(f"{kind}: schema drift: new field '{path}' not in the baseline "
                        f"(regenerate {base_path} and bump the schema tag if breaking)")

    base_names, cur_names = by_name(base).keys(), by_name(cur).keys()
    for name in sorted(base_names - cur_names):
        failures.append(f"{kind}: {name} present in baseline but missing from the run")
    for name in sorted(cur_names - base_names):
        failures.append(f"{kind}: {name} ran but has no baseline entry")

    signature = GATES[tag]
    base_sig, cur_sig = signature(base), signature(cur)
    for key in sorted(base_sig.keys() | cur_sig.keys()):
        want, got = base_sig.get(key), cur_sig.get(key)
        if want != got:
            failures.append(f"{kind}: {key} {want!r} -> {got!r}")
    if not failures:
        print(f"check_baseline: {cur_path} matches {base_path} "
              f"({len(base_sig)} {kind} signature items)")
    return failures


def check_turbo_digests(o0, o2):
    """GATING output-digest gate over two --device=all stats documents
    (see the module docstring). Returns failures."""
    failures = []
    for doc, which in ((o0, "baseline"), (o2, "current")):
        if doc.get("schema") != "fgpu.stats.v1":
            failures.append(f"turbo-digests: {which} doc has schema "
                            f"{doc.get('schema')!r}, expected fgpu.stats.v1")
    if failures:
        return failures
    levels = [doc.get("suite", {}).get("opt_level") for doc in (o0, o2)]
    if levels[0] == levels[1]:
        failures.append(f"turbo-digests: both documents are at -O{levels[0]}; "
                        "the gate needs two opt levels")

    o0_benchmarks = by_name(o0)
    o2_benchmarks = by_name(o2)
    for level, benchmarks in zip(levels, (o0_benchmarks, o2_benchmarks)):
        compared = 0
        for name, entry in sorted(benchmarks.items()):
            vortex, turbo = entry.get("vortex"), entry.get("turbo")
            if vortex is None or turbo is None:
                failures.append(f"turbo-digests: -O{level} {name}: vortex and turbo entries "
                                "needed (run with --device=all)")
                continue
            compared += 1
            if not vortex.get("ok"):
                # The oracle itself failed — nothing to cross-check against.
                failures.append(f"turbo-digests: -O{level} {name}: cycle-exact "
                                "reference run not ok")
            elif not turbo.get("ok"):
                failures.append(f"turbo-digests: -O{level} {name}: turbo run failed")
            elif vortex.get("output_digest") != turbo.get("output_digest"):
                failures.append(f"turbo-digests: -O{level} {name}: digest mismatch "
                                f"(vortex {vortex.get('output_digest')}, "
                                f"turbo {turbo.get('output_digest')})")
        if compared == 0:
            failures.append(f"turbo-digests: -O{level} document has no turbo entries")

    for name in sorted(set(o0_benchmarks) ^ set(o2_benchmarks)):
        failures.append(f"turbo-digests: {name} is in only one of the two documents")
    for name in sorted(set(o0_benchmarks) & set(o2_benchmarks)):
        a = o0_benchmarks[name].get("vortex") or {}
        b = o2_benchmarks[name].get("vortex") or {}
        if (a.get("output_digest"), a.get("verify_ok")) != \
                (b.get("output_digest"), b.get("verify_ok")):
            failures.append(f"turbo-digests: {name}: -O{levels[0]} digest "
                            f"{a.get('output_digest')} verify={a.get('verify_ok')} vs "
                            f"-O{levels[1]} digest {b.get('output_digest')} "
                            f"verify={b.get('verify_ok')}")
    if not failures:
        print(f"turbo-digests: {len(o0_benchmarks)} benchmarks; turbo matches the "
              f"cycle-exact oracle at -O{levels[0]} and -O{levels[1]}, and the vortex "
              "outputs are bit-identical across the two levels")
    return failures


def check_schema_list(paths):
    """Lint: every document's schema tag is a registered version. Returns failures."""
    failures = []
    for path in paths:
        try:
            doc = load(path)
        except (OSError, json.JSONDecodeError) as e:
            failures.append(f"schema-list: {path}: unreadable ({e})")
            continue
        tag = doc.get("schema") if isinstance(doc, dict) else None
        if tag is None:
            failures.append(f"schema-list: {path}: no 'schema' field")
        elif tag not in GATES:
            failures.append(f"schema-list: {path}: unknown schema {tag!r} "
                            f"(known: {', '.join(GATES)})")
    if not failures:
        print(f"schema-list: {len(paths)} document(s), every schema tag is registered")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("documents", nargs="*", metavar="BASE CUR",
                        help="golden and current document pairs")
    parser.add_argument("--turbo-digests", action="store_true",
                        help="GATE turbo-vs-vortex output digests inside, and "
                             "vortex digests across, two --device=all stats "
                             "documents (the -O0 one first, then -O2)")
    parser.add_argument("--schema-list", nargs="+", metavar="FILE",
                        help="lint: every listed document's 'schema' field must "
                             "be a registered version")
    args = parser.parse_args()

    docs = args.documents
    if args.schema_list:
        if docs or args.turbo_digests:
            parser.error("--schema-list takes no other arguments")
        failures = check_schema_list(args.schema_list)
    elif args.turbo_digests:
        if len(docs) != 2:
            parser.error("--turbo-digests takes exactly two documents")
        failures = check_turbo_digests(load(docs[0]), load(docs[1]))
    else:
        if not docs or len(docs) % 2:
            parser.error("expected BASE CUR pairs")
        failures = []
        for base, cur in zip(docs[::2], docs[1::2]):
            failures += check_pair(base, cur)

    if failures:
        print(f"check_baseline: {len(failures)} failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
