#!/usr/bin/env python3
"""Gate exported fgpu documents against their committed goldens.

  check_baseline.py BASE CUR [BASE CUR ...]
  check_baseline.py O0.json O2.json --turbo-digests
  check_baseline.py --schema-list FILE [FILE ...]

Pair mode: each CUR passes only if its bytes equal BASE's. Every exported
document is byte-deterministic (across --jobs, pooled vs fresh devices and
idle-skip modes), so one comparison gates every golden whole: Table I's
cycles and stall buckets, the Fig. 6 speedups, every miss class, compiler
remark and DSE cell. On a mismatch both documents are parsed and walked
together, and up to MAX_SHOWN differing values are printed as

  kind: path base -> cur

where kind is the schema's middle word and path names the value:
benchmarks[vecadd].vortex.last_launch.perf.stalls.lsu 71948 -> 71949.
Array elements that carry a name, kernel, config or pass are named by it
(a repeated name gets #2, #3, ... in order); other elements by index. A
value missing on one side prints as (absent). When the values are equal
and only the bytes differ (key order, whitespace, number spelling), the
first differing line is printed instead.

Every current fgpu.dse.v1 document must also keep the analytical model's
Spearman rank correlation at or above SPEARMAN_MIN, so comparing a DSE
document with itself (the weekly full grid has no golden) checks the floor.

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
field whose value is in SCHEMAS (the OBSERVABILITY.md schema index), so a
new exporter cannot ship an unregistered or typo'd tag.

A document that cannot be opened or parsed fails the gate with one
`check_baseline: PATH: cannot read (reason)` line (in --schema-list mode,
as one of its failures).

tools/gate_selftest.py plants drifts into copies of each golden and proves
the gate fails on each and names it. Stdlib only.
"""

import argparse
import itertools
import json
import sys

SPEARMAN_MIN = 0.8
MAX_SHOWN = 20
LABELS = ("name", "kernel", "config", "pass")

# Every schema version an fgpu tool exports (the OBSERVABILITY.md schema
# index). A new exporter registers here AND in the index table.
SCHEMAS = {
    "fgpu.stats.v1",
    "fgpu.profile.v1",
    "fgpu.hlsprof.v1",
    "fgpu.mem.v1",
    "fgpu.compare.v1",
    "fgpu.codegen.v1",
    "fgpu.dse.v1",
    "fgpu.fig7.v1",
}


ABSENT = object()  # a value missing on one side


def show(value):
    if value is ABSENT:
        return "(absent)"
    if isinstance(value, dict):
        return f"{{{len(value)} keys}}"
    if isinstance(value, list):
        return f"[{len(value)} items]"
    return json.dumps(value)


def elements(items):
    """An array's elements keyed by label ("vecadd", "licm.hoist#2") or index."""
    keyed, seen = {}, {}
    for i, item in enumerate(items):
        label = next((item[k] for k in LABELS if isinstance(item, dict)
                      and isinstance(item.get(k), str)), None)
        if label is None:
            keyed[str(i)] = item
            continue
        seen[label] = seen.get(label, 0) + 1
        keyed[label if seen[label] == 1 else f"{label}#{seen[label]}"] = item
    return keyed


def differences(base, cur, path=""):
    """Yields (path, base, cur) for every value that differs, in document order."""
    if isinstance(base, dict) and isinstance(cur, dict):
        children = {f"{path}.{k}" if path else k: (base.get(k, ABSENT), cur.get(k, ABSENT))
                    for k in [*base, *(k for k in cur if k not in base)]}
    elif isinstance(base, list) and isinstance(cur, list):
        if len(base) != len(cur):
            yield f"{path} length", len(base), len(cur)
        b, c = elements(base), elements(cur)
        children = {f"{path}[{k}]": (b.get(k, ABSENT), c.get(k, ABSENT))
                    for k in [*b, *(k for k in c if k not in b)]}
    else:
        if type(base) is not type(cur) or base != cur:
            yield path, base, cur
        return
    for child, (b, c) in children.items():
        if b is ABSENT or c is ABSENT:
            yield child, b, c
        else:
            yield from differences(b, c, child)


def first_line_difference(base_text, cur_text):
    lines = itertools.zip_longest(base_text.split("\n"), cur_text.split("\n"),
                                  fillvalue="(end)")
    return next((n, b, c) for n, (b, c) in enumerate(lines, 1) if b != c)


class Unreadable(Exception):
    """A document that cannot be opened or parsed; the message names it."""


def read(path):
    """Returns the text of the document at PATH and its parsed JSON."""
    try:
        with open(path) as f:
            text = f.read()
        return text, json.loads(text)
    except (OSError, ValueError) as e:
        raise Unreadable(f"{path}: cannot read ({e})") from None


def load(path):
    return read(path)[1]


def check_pair(base_path, cur_path):
    """GATING comparison of CUR against the golden BASE. Returns failures."""
    base_text, base = read(base_path)
    cur_text, cur = read(cur_path)
    tag = (base.get("schema") if isinstance(base, dict) else None) or base_path
    kind = tag.split(".")[1] if tag.count(".") == 2 else tag

    failures = []
    if base_text != cur_text:
        diffs = list(differences(base, cur))
        for path, b, c in diffs[:MAX_SHOWN]:
            failures.append(f"{kind}: {path} {show(b)} -> {show(c)}")
        if len(diffs) > MAX_SHOWN:
            failures.append(f"{kind}: {len(diffs)} differing values, first {MAX_SHOWN} shown")
        if not diffs:
            n, b, c = first_line_difference(base_text, cur_text)
            failures.append(f"{kind}: values equal, bytes differ (key order or whitespace) "
                            f"at line {n}: {b.strip()!r} -> {c.strip()!r}")
    if isinstance(cur, dict) and cur.get("schema") == "fgpu.dse.v1":
        rho = cur.get("spearman")
        if not isinstance(rho, (int, float)) or rho < SPEARMAN_MIN:
            failures.append(f"{kind}: {cur_path}: spearman {rho} below the floor {SPEARMAN_MIN}")
    if not failures:
        print(f"check_baseline: {cur_path} matches {base_path} byte for byte")
    return failures


def by_name(doc):
    return {b["name"]: b for b in doc.get("benchmarks", []) if isinstance(b, dict)}


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
        except Unreadable as e:
            failures.append(f"schema-list: {e}")
            continue
        tag = doc.get("schema") if isinstance(doc, dict) else None
        if tag is None:
            failures.append(f"schema-list: {path}: no 'schema' field")
        elif tag not in SCHEMAS:
            failures.append(f"schema-list: {path}: unknown schema {tag!r} "
                            f"(known: {', '.join(sorted(SCHEMAS))})")
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
    elif args.turbo_digests:
        if len(docs) != 2:
            parser.error("--turbo-digests takes exactly two documents")
    elif not docs or len(docs) % 2:
        parser.error("expected BASE CUR pairs")

    try:
        if args.schema_list:
            failures = check_schema_list(args.schema_list)
        elif args.turbo_digests:
            failures = check_turbo_digests(load(docs[0]), load(docs[1]))
        else:
            failures = []
            for base, cur in zip(docs[::2], docs[1::2]):
                failures += check_pair(base, cur)
    except Unreadable as e:
        print(f"check_baseline: {e}", file=sys.stderr)
        return 1

    if failures:
        print(f"check_baseline: {len(failures)} failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
