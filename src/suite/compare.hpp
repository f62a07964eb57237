// Side-by-side comparison of the two execution flows — the paper's core
// deliverable (Fig. 6 speedups, Table I coverage, Tables II-IV area, the
// synthesis-time-vs-portability tradeoff) as one versioned document instead
// of numbers scattered across two DeviceRuns.
//
// write_compare_json joins each benchmark's vortex and HLS runs into a
// fgpu.compare.v1 record: per-device outcome + cycles + modeled time + DRAM
// traffic, HLS-only synthesis cost (hours, area, pipeline), a coverage
// class ("both" / "vortex_only" / "hls_only" / "neither"), the
// HLS-over-vortex speedup when both passed, and a categorical verdict.
// Suite-level sections aggregate pass counts, the geomean speedup, total
// modeled synthesis hours per flow, and the Table-I failure-reason diff.
//
// Determinism contract: identical to fgpu.stats.v1 — output depends only on
// simulated counters (no wall-clock, no host state), so the document is
// byte-identical across --jobs (asserted by tests/test_runner.cpp) and
// gated byte for byte against its golden (tools/check_baseline.py
// BENCH_compare.json CUR).
#pragma once

#include <ostream>

#include "suite/runner.hpp"

namespace fgpu::suite {

// Version tag of the comparison export (fgpu-run --compare; see
// OBSERVABILITY.md "Comparisons"). Bump on any breaking change to field
// names, units, or the speedup/verdict definitions.
inline constexpr const char* kCompareSchema = "fgpu.compare.v1";

// Serializes the joined vortex/HLS comparison to fgpu.compare.v1. Expects a
// run with both devices enabled (fgpu-run rejects --compare with a single
// --device); benchmarks missing a side are still emitted with coverage
// reflecting the absent run.
void write_compare_json(std::ostream& os, const RunnerOptions& options,
                        const SuiteRunResult& result);

}  // namespace fgpu::suite
