#!/usr/bin/env python3
"""Self-test of check_baseline.py --turbo-digests, the output-digest gate.

Writes two tiny fgpu.stats.v1 documents (-O0 and -O2, two benchmarks, each
with vortex and turbo entries) to a temporary directory and runs the gate
on them: the clean pair must pass, and each planted fault must fail with
its own message. Stdlib only.

  python3 tools/digest_gate_selftest.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_baseline.py")


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


def gate(tmp, o0, o2):
    paths = []
    for name, doc in (("o0.json", o0), ("o2.json", o2)):
        path = os.path.join(tmp, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        paths.append(path)
    done = subprocess.run([sys.executable, GATE, *paths, "--turbo-digests"],
                          capture_output=True, text=True)
    return done.returncode, done.stdout + done.stderr


def main():
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
    with tempfile.TemporaryDirectory() as tmp:
        for label, a, b, want_rc, want_text in cases:
            rc, output = gate(tmp, a, b)
            if rc != want_rc or want_text not in output:
                failures.append(f"{label}: exit {rc} (want {want_rc}), output:\n{output}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:
        print(f"digest gate self-test: {len(cases)} cases as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
