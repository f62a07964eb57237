#!/usr/bin/env python3
"""Guard the committed fgpu.stats.v1 baseline (BENCH_table1.json).

Compares a freshly generated stats document against the golden baseline
and exits non-zero on:

  * schema drift — the set of key paths in either document differs
    (fields added, removed, or renamed without bumping the schema tag);
  * coverage drift — a benchmark changed its ok/fail status on either
    device (Table I is the paper's central claim);
  * cycle regression — a passing soft-GPU benchmark got more than
    --max-regression slower than the baseline (default 10%);
  * with --max-cycles=N, a passing soft-GPU benchmark growing by more
    than N absolute cycles fails. --max-cycles=0 is the optimizer gate:
    no benchmark may regress by even one cycle;
  * with --exact-cycles, ANY cycle delta on either device fails. This is
    the gate for host-speed-only changes (decode cache, idle skipping):
    simulator fast paths must not move a single reported cycle.

A per-benchmark soft-GPU cycle table (baseline/current/delta/% plus the
geomean) is always printed, pass or fail, so every CI log doubles as a
perf report.

Cycle *improvements* are reported but never fail (outside --exact-cycles):
refresh the baseline (see README of the CI step) when an intentional perf
change lands.

Output-digest gate (--turbo-digests): BASELINE and CURRENT are the
fgpu.stats.v1 documents of two fgpu-run --device=all runs at different
opt levels (CI: -O0, the straight-lowering oracle, and -O2). Inside each
document, every benchmark's "turbo" entry must be ok and its output_digest
must equal the "vortex" entry's bit-for-bit: the binary-translation tier
must retire exactly the architectural state the cycle-exact oracle does.
Across the two documents, every benchmark's vortex output_digest and
verify_ok must match: the optimizer must preserve every output bit. A
document without turbo entries, or two documents at one opt level, fails,
so the gate cannot pass vacuously. Schema/coverage/cycle gates are skipped
in this mode; they belong to the baseline path.

Memory-profile documents (fgpu.mem.v1 from fgpu-run --memprof) are GATED
with --mem-baseline/--mem-current (BENCH_mem.json in CI):

  * schema-tag and key-path drift, as for the stats document;
  * the benchmark set must match the baseline exactly;
  * per-kernel, per-level miss-class drift — every (accesses, misses,
    compulsory, capacity, conflict) vector of every cache level (l1d/
    l1i/l2 on the soft GPU, the read-path shadow on HLS) must match the
    baseline EXACTLY. Miss classification is deterministic, so any delta
    is a real behavior change that demands a baseline refresh.

Comparison documents (fgpu.compare.v1 from fgpu-run --compare) are GATED
with --compare-baseline/--compare-current (BENCH_compare.json in CI):

  * schema-tag and key-path drift, as for the stats document;
  * the benchmark set must match the baseline exactly;
  * coverage drift — any benchmark changing its "both/vortex_only/
    hls_only/neither" class fails (the Table I claim again, joined);
  * speedup drift — a both-ok benchmark's HLS-over-vortex speedup ratio
    moving more than --speedup-tolerance (default 5%) in either direction
    fails: the Fig. 6 ratios are the paper's headline numbers, so both
    regressions AND unexplained improvements demand a baseline refresh.

Codegen documents (fgpu.codegen.v1 from fgpu-run --remarks) are GATED
with --codegen-baseline/--codegen-current (BENCH_codegen.json in CI):

  * schema-tag and key-path drift, as for the stats document;
  * the benchmark and kernel sets must match the baseline exactly;
  * per-kernel static compiler metrics — code size, spill slots, SIMT and
    memory instruction counts, dispatch style — must match EXACTLY;
  * the per-pass pipeline (stage list, per-stage remark counts, and every
    before/after IR-size snapshot) must match EXACTLY;
  * remark counts per (pass, action) must match EXACTLY. Compilation is
    deterministic, so any delta is a real compiler-behavior change that
    demands a baseline refresh (and an EXPERIMENTS.md note if cycles moved).

DSE documents (fgpu.dse.v1 from fgpu-run --dse) are GATED with
--dse-baseline/--dse-current (BENCH_dse.json in CI), a standalone mode
like --schema-list:

  * schema-tag and key-path drift, as for the stats document;
  * funnel-count drift — every stage count (candidates, analytical
    evaluated/infeasible/unfit/survivors, screen shapes/failed/survivors,
    exact selected/ok) must match EXACTLY: the analytical pre-filter and
    the turbo screen are deterministic, so any delta is a model or
    pruning change that demands a baseline refresh;
  * Pareto-frontier drift — the frontier membership (config labels) must
    match exactly, as must each evaluated configuration's simulated
    cycles (the document is byte-deterministic by contract);
  * Spearman floor — the rank correlation of the analytical model over
    the evaluated slice must stay >= --spearman-min (default 0.8, the
    ISSUE acceptance floor; the quick grid at --dse-exact=64 sits at
    ~0.89, the full grid at ~0.92).

Schema lint (--schema-list FILE...): standalone mode, no positional
arguments needed. Every listed document must carry a "schema" field whose
value is one of the known exported versions (the OBSERVABILITY.md schema
index). Catches a new exporter shipping an unregistered or typo'd tag.

Usage: check_baseline.py BASELINE CURRENT [--max-regression=0.10]
                         [--max-cycles=N] [--exact-cycles]
                         [--mem-baseline=M.json --mem-current=M2.json]
                         [--compare-baseline=C.json --compare-current=C2.json
                          --speedup-tolerance=0.05]
                         [--codegen-baseline=G.json --codegen-current=G2.json]
       check_baseline.py O0.json O2.json --turbo-digests
       check_baseline.py --dse-baseline=D.json --dse-current=D2.json
                         [--spearman-min=0.8]
       check_baseline.py --schema-list FILE [FILE...]

Stdlib only — runs on a bare CI python3.
"""

import argparse
import json
import math
import sys


def cycle_table(base_benchmarks, cur_benchmarks):
    """Always-printed soft-GPU cycle report: baseline/current/delta/% + geomean."""
    rows = []
    ratios = []
    for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
        b = (base_benchmarks[name].get("vortex") or {}).get("total_cycles")
        c = (cur_benchmarks[name].get("vortex") or {}).get("total_cycles")
        if b is None or c is None:
            continue
        pct = (c - b) / b * 100.0 if b > 0 else 0.0
        rows.append((name, b, c, c - b, pct))
        if b > 0 and c > 0:
            ratios.append(c / b)
    if not rows:
        return
    print(f"{'benchmark':<22} {'baseline':>12} {'current':>12} {'delta':>10} {'pct':>9}")
    for name, b, c, d, pct in rows:
        print(f"{name:<22} {b:>12} {c:>12} {d:>+10} {pct:>+8.2f}%")
    geo = math.prod(ratios) ** (1.0 / len(ratios)) if ratios else 1.0
    print(f"{'geomean':<22} {'':>12} {'':>12} {'':>10} {(geo - 1) * 100.0:>+8.2f}%")


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
    return {b["name"]: b for b in doc.get("benchmarks", [])}


def device_ok(entry, device):
    run = entry.get(device)
    return None if run is None else bool(run.get("ok"))


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


def compare_compare(compare_baseline, compare_current, tolerance):
    """GATING comparison of two fgpu.compare.v1 documents. Returns failures."""
    failures = []
    with open(compare_baseline) as f:
        base = json.load(f)
    with open(compare_current) as f:
        cur = json.load(f)

    for doc, path in ((base, compare_baseline), (cur, compare_current)):
        if doc.get("schema") != "fgpu.compare.v1":
            failures.append(f"compare doc {path} has schema {doc.get('schema')!r}, "
                            "expected fgpu.compare.v1")
    if failures:
        return failures

    base_paths = schema_paths(base)
    cur_paths = schema_paths(cur)
    for path in sorted(base_paths - cur_paths):
        failures.append(f"compare schema drift: field '{path}' vanished")
    for path in sorted(cur_paths - base_paths):
        failures.append(f"compare schema drift: new field '{path}' not in the baseline "
                        "(regenerate BENCH_compare.json and bump the schema tag if breaking)")

    base_benchmarks = by_name(base)
    cur_benchmarks = by_name(cur)
    for name in sorted(set(base_benchmarks) - set(cur_benchmarks)):
        failures.append(f"compare: {name} present in baseline but missing from the run")
    for name in sorted(set(cur_benchmarks) - set(base_benchmarks)):
        failures.append(f"compare: {name} ran but has no baseline entry")

    for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
        b, c = base_benchmarks[name], cur_benchmarks[name]
        if b.get("coverage") != c.get("coverage"):
            failures.append(
                f"compare: {name} coverage changed {b.get('coverage')!r} -> "
                f"{c.get('coverage')!r} "
                f"(hls fail_reason: {(c.get('hls') or {}).get('fail_reason', '?')!r})")
            continue
        b_speedup = b.get("speedup_hls_over_vortex", 0.0)
        c_speedup = c.get("speedup_hls_over_vortex", 0.0)
        if b_speedup > 0.0 and c_speedup > 0.0:
            drift = abs(c_speedup - b_speedup) / b_speedup
            if drift > tolerance:
                failures.append(
                    f"compare: {name} speedup drift {b_speedup:.4f}x -> {c_speedup:.4f}x "
                    f"({drift:.1%} > {tolerance:.0%} tolerance)")
        elif (b_speedup > 0.0) != (c_speedup > 0.0):
            failures.append(
                f"compare: {name} speedup appeared/vanished "
                f"({b_speedup:.4f}x -> {c_speedup:.4f}x)")

    b_geo = base.get("summary", {}).get("geomean_speedup_hls_over_vortex", 0.0)
    c_geo = cur.get("summary", {}).get("geomean_speedup_hls_over_vortex", 0.0)
    if not failures and b_geo > 0.0 and c_geo > 0.0:
        print(f"compare: geomean HLS-over-vortex speedup {b_geo:.3f}x -> {c_geo:.3f}x; "
              f"{len(base_benchmarks)} benchmarks within {tolerance:.0%}")
    return failures


# Every schema version an fgpu tool exports (the OBSERVABILITY.md index).
# A new exporter must register here AND in the index table, or the
# --schema-list CI lint fails.
KNOWN_SCHEMAS = (
    "fgpu.stats.v1",
    "fgpu.profile.v1",
    "fgpu.hlsprof.v1",
    "fgpu.mem.v1",
    "fgpu.compare.v1",
    "fgpu.codegen.v1",
    "fgpu.dse.v1",
    "fgpu.fig7.v1",
)


def compare_dse(dse_baseline, dse_current, spearman_min):
    """GATING comparison of two fgpu.dse.v1 documents. Returns failures."""
    failures = []
    with open(dse_baseline) as f:
        base = json.load(f)
    with open(dse_current) as f:
        cur = json.load(f)

    for doc, path in ((base, dse_baseline), (cur, dse_current)):
        if doc.get("schema") != "fgpu.dse.v1":
            failures.append(f"dse doc {path} has schema {doc.get('schema')!r}, "
                            "expected fgpu.dse.v1")
    if failures:
        return failures

    base_paths = schema_paths(base)
    cur_paths = schema_paths(cur)
    for path in sorted(base_paths - cur_paths):
        failures.append(f"dse schema drift: field '{path}' vanished")
    for path in sorted(cur_paths - base_paths):
        failures.append(f"dse schema drift: new field '{path}' not in the baseline "
                        "(regenerate BENCH_dse.json and bump the schema tag if breaking)")

    for field in ("grid", "benchmarks", "opt_level", "exact_budget"):
        if base.get(field) != cur.get(field):
            failures.append(f"dse: sweep parameter {field!r} changed "
                            f"{base.get(field)!r} -> {cur.get(field)!r} "
                            "(baseline and run must use the same grid settings)")

    # Funnel counts: the analytical pre-filter and turbo screen are
    # deterministic, so every stage count must match exactly.
    def flat_counts(doc):
        counts = {}
        funnel = doc.get("funnel", {})
        for key, value in funnel.items():
            if isinstance(value, dict):
                for sub, n in value.items():
                    counts[f"{key}.{sub}"] = n
            else:
                counts[key] = value
        return counts

    base_counts = flat_counts(base)
    cur_counts = flat_counts(cur)
    for key in sorted(set(base_counts) | set(cur_counts)):
        want, got = base_counts.get(key), cur_counts.get(key)
        if want != got:
            failures.append(f"dse: funnel count drift at {key}: {want} -> {got}")

    # Pareto membership is part of the paper-facing result: any change is a
    # real ranking change that demands a refresh (and an EXPERIMENTS.md note).
    base_pareto = list(base.get("pareto", []))
    cur_pareto = list(cur.get("pareto", []))
    for label in sorted(set(base_pareto) - set(cur_pareto)):
        failures.append(f"dse: config {label!r} left the Pareto frontier")
    for label in sorted(set(cur_pareto) - set(base_pareto)):
        failures.append(f"dse: config {label!r} joined the Pareto frontier "
                        "(not in the baseline)")

    # The evaluated slice is byte-deterministic by contract: exact-match the
    # simulated cycles per configuration.
    base_eval = {e.get("config"): e for e in base.get("evaluated", [])}
    cur_eval = {e.get("config"): e for e in cur.get("evaluated", [])}
    for label in sorted(set(base_eval) - set(cur_eval)):
        failures.append(f"dse: evaluated config {label!r} missing from the run")
    for label in sorted(set(cur_eval) - set(base_eval)):
        failures.append(f"dse: evaluated config {label!r} not in the baseline "
                        "(selection drift)")
    for label in sorted(set(base_eval) & set(cur_eval)):
        b, c = base_eval[label], cur_eval[label]
        if b.get("simulated_cycles") != c.get("simulated_cycles"):
            failures.append(
                f"dse: {label}: simulated cycles drift "
                f"{b.get('simulated_cycles')} -> {c.get('simulated_cycles')}")
        if b.get("ok") != c.get("ok"):
            failures.append(f"dse: {label}: ok changed {b.get('ok')} -> {c.get('ok')}")

    spearman = cur.get("spearman")
    if not isinstance(spearman, (int, float)):
        failures.append("dse: 'spearman' missing from the current document")
    elif spearman < spearman_min:
        failures.append(f"dse: Spearman {spearman:.4f} below the floor "
                        f"{spearman_min} (--spearman-min): the analytical "
                        "pre-filter no longer ranks the evaluated slice")

    if not failures:
        funnel = cur.get("funnel", {})
        print(f"dse: {funnel.get('candidates')} candidates -> "
              f"{funnel.get('analytical', {}).get('survivors')} analytical -> "
              f"{funnel.get('screen', {}).get('survivors')} screened -> "
              f"{funnel.get('exact', {}).get('ok')} cycle-exact; "
              f"Spearman {spearman:.4f} >= {spearman_min}, "
              f"{len(cur_pareto)} Pareto members match the baseline")
    return failures


def check_schema_list(paths):
    """Lint: every document's schema tag is a registered version. Returns failures."""
    failures = []
    checked = 0
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            failures.append(f"schema-list: {path}: unreadable ({e})")
            continue
        tag = doc.get("schema") if isinstance(doc, dict) else None
        if tag is None:
            failures.append(f"schema-list: {path}: no 'schema' field")
        elif tag not in KNOWN_SCHEMAS:
            failures.append(f"schema-list: {path}: unknown schema {tag!r} "
                            f"(known: {', '.join(KNOWN_SCHEMAS)})")
        else:
            checked += 1
    if not failures:
        print(f"schema-list: {checked} document(s), every schema tag is registered")
    return failures


def codegen_kernel_signatures(bench):
    """Per-kernel static-metric / pipeline / remark-count signature."""
    sig = {}
    for kernel in bench.get("kernels", []):
        remark_counts = {}
        for r in kernel.get("remarks", []):
            key = (r.get("pass"), r.get("action"))
            remark_counts[key] = remark_counts.get(key, 0) + 1
        sig[kernel.get("kernel")] = {
            "static": {
                "opt_level": kernel.get("opt_level"),
                "barrier_dispatch": kernel.get("barrier_dispatch"),
                "code_words": kernel.get("code_words"),
                "spill_slots": kernel.get("spill_slots"),
                "simt_instructions": kernel.get("simt_instructions"),
                "mem_instructions": kernel.get("mem_instructions"),
            },
            # The whole pipeline shape: stage order, per-stage remark counts,
            # and every before/after IR-size snapshot.
            "passes": [(p.get("pass"), p.get("remarks"),
                        tuple(sorted(p.get("before", {}).items())),
                        tuple(sorted(p.get("after", {}).items())))
                       for p in kernel.get("passes", [])],
            "remarks": remark_counts,
        }
    return sig


def compare_codegen(codegen_baseline, codegen_current):
    """GATING comparison of two fgpu.codegen.v1 documents. Returns failures."""
    failures = []
    with open(codegen_baseline) as f:
        base = json.load(f)
    with open(codegen_current) as f:
        cur = json.load(f)

    for doc, path in ((base, codegen_baseline), (cur, codegen_current)):
        if doc.get("schema") != "fgpu.codegen.v1":
            failures.append(f"codegen doc {path} has schema {doc.get('schema')!r}, "
                            "expected fgpu.codegen.v1")
    if failures:
        return failures

    base_paths = schema_paths(base)
    cur_paths = schema_paths(cur)
    for path in sorted(base_paths - cur_paths):
        failures.append(f"codegen schema drift: field '{path}' vanished")
    for path in sorted(cur_paths - base_paths):
        failures.append(f"codegen schema drift: new field '{path}' not in the baseline "
                        "(regenerate BENCH_codegen.json and bump the schema tag if breaking)")

    base_benchmarks = by_name(base)
    cur_benchmarks = by_name(cur)
    for name in sorted(set(base_benchmarks) - set(cur_benchmarks)):
        failures.append(f"codegen: {name} present in baseline but missing from the run")
    for name in sorted(set(cur_benchmarks) - set(base_benchmarks)):
        failures.append(f"codegen: {name} ran but has no baseline entry")

    kernels = 0
    for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
        sig_b = codegen_kernel_signatures(base_benchmarks[name])
        sig_c = codegen_kernel_signatures(cur_benchmarks[name])
        for kernel in sorted(set(sig_b) - set(sig_c)):
            failures.append(f"codegen: {name}/{kernel}: kernel vanished")
        for kernel in sorted(set(sig_c) - set(sig_b)):
            failures.append(f"codegen: {name}/{kernel}: new kernel not in baseline")
        for kernel in sorted(set(sig_b) & set(sig_c)):
            kernels += 1
            b, c = sig_b[kernel], sig_c[kernel]
            for field in b["static"]:
                if b["static"][field] != c["static"][field]:
                    failures.append(
                        f"codegen: {name}/{kernel}: {field} drift "
                        f"{b['static'][field]} -> {c['static'][field]}")
            if b["passes"] != c["passes"]:
                # Name the first diverging stage for a readable failure.
                detail = "pipeline shape changed"
                for sb, sc in zip(b["passes"], c["passes"]):
                    if sb != sc:
                        detail = (f"stage {sb[0]!r}: (remarks, before, after) "
                                  f"{sb[1:]} -> {sc[1:]}")
                        break
                else:
                    detail = (f"stage list changed "
                              f"{[p[0] for p in b['passes']]} -> "
                              f"{[p[0] for p in c['passes']]}")
                failures.append(f"codegen: {name}/{kernel}: {detail}")
            for key in sorted(set(b["remarks"]) | set(c["remarks"])):
                want = b["remarks"].get(key, 0)
                got = c["remarks"].get(key, 0)
                if want != got:
                    failures.append(
                        f"codegen: {name}/{kernel}: remark count drift for "
                        f"{key[0]}/{key[1]}: {want} -> {got}")
    if not failures:
        print(f"codegen: {len(base_benchmarks)} benchmarks / {kernels} kernels, every "
              f"static metric, pipeline stage, and remark count matches the baseline")
    return failures


def mem_kernel_signature(bench):
    """Per-(device, kernel) map of per-level miss-class vectors."""
    sig = {}
    for device in ("vortex", "hls"):
        dev = bench.get(device)
        if dev is None:
            continue
        for kernel in dev.get("kernels", []):
            levels = {}
            for level in ("l1d", "l1i", "l2", "readpath"):
                p = kernel.get(level)
                if p is None:
                    continue
                mc = p.get("miss_classes", {})
                levels[level] = (p.get("accesses"), p.get("misses"),
                                 mc.get("compulsory"), mc.get("capacity"),
                                 mc.get("conflict"))
            sig[(device, kernel.get("kernel"))] = levels
    return sig


def compare_mem(mem_baseline, mem_current):
    """GATING comparison of two fgpu.mem.v1 documents. Returns failures."""
    failures = []
    with open(mem_baseline) as f:
        base = json.load(f)
    with open(mem_current) as f:
        cur = json.load(f)

    for doc, path in ((base, mem_baseline), (cur, mem_current)):
        if doc.get("schema") != "fgpu.mem.v1":
            failures.append(f"mem doc {path} has schema {doc.get('schema')!r}, "
                            "expected fgpu.mem.v1")
    if failures:
        return failures

    base_paths = schema_paths(base)
    cur_paths = schema_paths(cur)
    for path in sorted(base_paths - cur_paths):
        failures.append(f"mem schema drift: field '{path}' vanished")
    for path in sorted(cur_paths - base_paths):
        failures.append(f"mem schema drift: new field '{path}' not in the baseline "
                        "(regenerate BENCH_mem.json and bump the schema tag if breaking)")

    base_benchmarks = by_name(base)
    cur_benchmarks = by_name(cur)
    for name in sorted(set(base_benchmarks) - set(cur_benchmarks)):
        failures.append(f"mem: {name} present in baseline but missing from the run")
    for name in sorted(set(cur_benchmarks) - set(base_benchmarks)):
        failures.append(f"mem: {name} ran but has no baseline entry")

    kernels = 0
    for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
        sig_b = mem_kernel_signature(base_benchmarks[name])
        sig_c = mem_kernel_signature(cur_benchmarks[name])
        for key in sorted(set(sig_b) - set(sig_c)):
            failures.append(f"mem: {name}/{key[0]}/{key[1]}: kernel vanished")
        for key in sorted(set(sig_c) - set(sig_b)):
            failures.append(f"mem: {name}/{key[0]}/{key[1]}: new kernel not in baseline")
        for key in sorted(set(sig_b) & set(sig_c)):
            kernels += 1
            for level in sorted(set(sig_b[key]) | set(sig_c[key])):
                want = sig_b[key].get(level)
                got = sig_c[key].get(level)
                if want != got:
                    failures.append(
                        f"mem: {name}/{key[0]}/{key[1]}/{level}: miss-class drift "
                        f"(accesses, misses, compulsory, capacity, conflict) "
                        f"{want} -> {got}")
    if not failures:
        print(f"mem: {len(base_benchmarks)} benchmarks / {kernels} kernels, every "
              f"per-level miss-class vector matches the baseline")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?",
                        help="golden stats document (unused with --schema-list)")
    parser.add_argument("current", nargs="?",
                        help="freshly generated stats document")
    parser.add_argument("--max-regression", type=float, default=0.10,
                        help="allowed fractional cycle growth (default 0.10)")
    parser.add_argument("--max-cycles", type=int, default=None,
                        help="allowed absolute per-benchmark cycle growth; "
                             "0 fails on any regression (optimizer gate)")
    parser.add_argument("--exact-cycles", action="store_true",
                        help="fail on ANY cycle delta (gate for host-speed-only changes)")
    parser.add_argument("--mem-baseline",
                        help="fgpu.mem.v1 baseline (GATING, e.g. BENCH_mem.json)")
    parser.add_argument("--mem-current", help="fgpu.mem.v1 current run (GATING)")
    parser.add_argument("--compare-baseline",
                        help="fgpu.compare.v1 baseline (GATING, e.g. BENCH_compare.json)")
    parser.add_argument("--compare-current", help="fgpu.compare.v1 current run (GATING)")
    parser.add_argument("--codegen-baseline",
                        help="fgpu.codegen.v1 baseline (GATING, e.g. BENCH_codegen.json)")
    parser.add_argument("--codegen-current", help="fgpu.codegen.v1 current run (GATING)")
    parser.add_argument("--dse-baseline",
                        help="fgpu.dse.v1 baseline (GATING, standalone; "
                             "e.g. BENCH_dse.json)")
    parser.add_argument("--dse-current", help="fgpu.dse.v1 current run (GATING)")
    parser.add_argument("--spearman-min", type=float, default=0.8,
                        help="minimum Spearman rank correlation the DSE gate "
                             "accepts over the evaluated slice (default 0.8)")
    parser.add_argument("--schema-list", nargs="+", metavar="FILE",
                        help="standalone lint: every listed document's 'schema' "
                             "field must be a registered version")
    parser.add_argument("--speedup-tolerance", type=float, default=0.05,
                        help="allowed fractional speedup-ratio drift, either "
                             "direction (default 0.05)")
    parser.add_argument("--turbo-digests", action="store_true",
                        help="GATE turbo-vs-vortex output digests inside, and "
                             "vortex digests across, two --device=all stats "
                             "documents (BASELINE at -O0, CURRENT at -O2)")
    args = parser.parse_args()

    if args.schema_list:
        failures = check_schema_list(args.schema_list)
        if failures:
            print(f"check_baseline: {len(failures)} failure(s) in --schema-list:",
                  file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        return 0

    if args.dse_baseline or args.dse_current:
        if not (args.dse_baseline and args.dse_current):
            parser.error("--dse-baseline and --dse-current must be given together")
        failures = compare_dse(args.dse_baseline, args.dse_current, args.spearman_min)
        if failures:
            print(f"check_baseline: {len(failures)} failure(s) in the DSE gate:",
                  file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        return 0

    if not args.baseline or not args.current:
        parser.error("BASELINE and CURRENT are required (except with --schema-list)")

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    if args.turbo_digests:
        failures = check_turbo_digests(base, cur)
        if failures:
            print(f"check_baseline: {len(failures)} failure(s) in --turbo-digests:",
                  file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        return 0

    failures = []

    if base.get("schema") != cur.get("schema"):
        failures.append(
            f"schema tag drift: baseline {base.get('schema')!r} vs current {cur.get('schema')!r}")

    base_paths = schema_paths(base)
    cur_paths = schema_paths(cur)
    for path in sorted(base_paths - cur_paths):
        failures.append(f"schema drift: field '{path}' vanished from the current stats")
    for path in sorted(cur_paths - base_paths):
        failures.append(f"schema drift: new field '{path}' not in the baseline "
                        "(regenerate BENCH_table1.json and bump the schema tag if breaking)")

    base_benchmarks = by_name(base)
    cur_benchmarks = by_name(cur)
    cycle_table(base_benchmarks, cur_benchmarks)
    for name in sorted(set(base_benchmarks) - set(cur_benchmarks)):
        failures.append(f"{name}: present in baseline but missing from the run")
    for name in sorted(set(cur_benchmarks) - set(base_benchmarks)):
        failures.append(f"{name}: ran but has no baseline entry")

    for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
        b, c = base_benchmarks[name], cur_benchmarks[name]
        for device in ("vortex", "hls"):
            was, now = device_ok(b, device), device_ok(c, device)
            if was != now:
                failures.append(f"{name}/{device}: ok changed {was} -> {now} "
                                f"(fail_reason: {(c.get(device) or {}).get('fail_reason', '?')!r})")
        if args.exact_cycles:
            for device in ("vortex", "hls"):
                base_cycles = (b.get(device) or {}).get("total_cycles")
                cur_cycles = (c.get(device) or {}).get("total_cycles")
                if base_cycles != cur_cycles:
                    failures.append(
                        f"{name}/{device}: cycle drift under --exact-cycles "
                        f"{base_cycles} -> {cur_cycles}")
        if device_ok(b, "vortex") and device_ok(c, "vortex"):
            base_cycles = b["vortex"]["total_cycles"]
            cur_cycles = c["vortex"]["total_cycles"]
            if args.max_cycles is not None and cur_cycles > base_cycles + args.max_cycles:
                failures.append(
                    f"{name}/vortex: cycles grew {base_cycles} -> {cur_cycles} "
                    f"(+{cur_cycles - base_cycles} > --max-cycles={args.max_cycles})")
            if base_cycles > 0:
                delta = (cur_cycles - base_cycles) / base_cycles
                if delta > args.max_regression:
                    failures.append(
                        f"{name}/vortex: cycle regression {base_cycles} -> {cur_cycles} "
                        f"(+{delta:.1%} > {args.max_regression:.0%})")
                elif delta != 0 and not args.exact_cycles:
                    print(f"note: {name}/vortex cycles {base_cycles} -> {cur_cycles} "
                          f"({delta:+.1%}, within budget)")

    if args.mem_baseline and args.mem_current:
        failures.extend(compare_mem(args.mem_baseline, args.mem_current))

    if args.compare_baseline and args.compare_current:
        failures.extend(compare_compare(args.compare_baseline, args.compare_current,
                                        args.speedup_tolerance))

    if args.codegen_baseline and args.codegen_current:
        failures.extend(compare_codegen(args.codegen_baseline, args.codegen_current))

    if failures:
        print(f"check_baseline: {len(failures)} failure(s) vs {args.baseline}:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"check_baseline: {len(base_benchmarks)} benchmarks match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
