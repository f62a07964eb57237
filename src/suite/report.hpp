// Structured stats export: serializes the simulator's counter types
// (vortex::PerfCounters, vortex::ClusterStats, mem::MemStats,
// fpga::AreaReport, vcl::LaunchStats, suite::DeviceRun) to the versioned
// JSON schema documented field-by-field in OBSERVABILITY.md.
//
// The writers are deliberately free functions over a JsonWriter so bench
// binaries and the suite runner compose them into larger documents (one
// file per suite run) instead of each maintaining an ad-hoc printf table.
//
// Determinism contract: output depends only on the counter values — no
// wall-clock time, hostnames, pointers, or iteration over unordered
// containers — so two runs of the same workloads produce byte-identical
// JSON regardless of --jobs (asserted by tests/test_runner.cpp).
#pragma once

#include "fpga/board.hpp"
#include "mem/timing.hpp"
#include "suite/suite.hpp"
#include "trace/json.hpp"
#include "vortex/cluster.hpp"
#include "vortex/perf.hpp"

namespace fgpu::suite {

// Version tag stamped into every stats document. Bump on any breaking
// change to field names, units, or aggregation rules (OBSERVABILITY.md).
inline constexpr const char* kStatsSchema = "fgpu.stats.v1";

// Version tag of the per-PC profiler export (fgpu-run --profile; see
// OBSERVABILITY.md "Profiles" for the field-by-field schema).
inline constexpr const char* kProfileSchema = "fgpu.profile.v1";

// Version tag of the HLS per-site profile export (fgpu-run --hlsprof; see
// OBSERVABILITY.md "HLS profiles"): per-access-site stall/occupancy
// attribution with KIR provenance plus the structured synthesis report.
inline constexpr const char* kHlsProfSchema = "fgpu.hlsprof.v1";

// Version tag of the memory-hierarchy profile export (fgpu-run --memprof;
// see OBSERVABILITY.md "Memory profiles"): per-level 3C miss
// classification, reuse-distance histograms, MSHR/DRAM occupancy
// histograms, and per-PC / per-AccessSite miss attribution.
inline constexpr const char* kMemSchema = "fgpu.mem.v1";

// Version tag of the compiler-observability export (fgpu-run --remarks; see
// OBSERVABILITY.md "Codegen reports"): per-pass telemetry (IR-size and
// pressure deltas, remark counts) plus the structured optimization-remark
// stream with KIR provenance, optionally cycle-joined into a hotspot
// ranking. Contains no wall-clock fields — per-pass times stay in memory.
inline constexpr const char* kCodegenSchema = "fgpu.codegen.v1";

// Version tag of the design-space-exploration export (fgpu-run --dse; see
// OBSERVABILITY.md "Design-space exploration"): three-stage funnel counts
// (analytical prune -> turbo screen -> cycle-exact slice), the evaluated
// slice with predicted vs simulated cycles, the (cycles, utilization)
// Pareto frontier, and the Spearman rank correlation of the analytical
// model. Byte-identical across --jobs and fresh-vs-pooled devices.
inline constexpr const char* kDseSchema = "fgpu.dse.v1";

// Which sections of a LaunchStats/DeviceRun are meaningful.
enum class DeviceKind { kVortex, kHls, kTurbo };

// Each writes one JSON object at the writer's current position.
void write_json(trace::JsonWriter& w, const vortex::PerfCounters& perf);
void write_json(trace::JsonWriter& w, const mem::MemStats& stats);
void write_json(trace::JsonWriter& w, const fpga::AreaReport& area);
void write_json(trace::JsonWriter& w, const vortex::ClusterStats& stats);
void write_json(trace::JsonWriter& w, const vcl::LaunchStats& stats, DeviceKind kind);
void write_json(trace::JsonWriter& w, const DeviceRun& run, DeviceKind kind,
                const std::string& device_name);
// One kernel's accumulated per-PC profile (per-PC table with decoded
// instructions and KIR provenance, occupancy timeline, cache-conflict
// histograms) — the "kernels" array elements of fgpu.profile.v1.
void write_json(trace::JsonWriter& w, const KernelProfile& profile);
// Structured HLS synthesis report: per-module area rows + fitter verdict.
void write_json(trace::JsonWriter& w, const hls::SynthReport& synth);
// One kernel's accumulated per-site HLS attribution — the "kernels" array
// elements of fgpu.hlsprof.v1.
void write_json(trace::JsonWriter& w, const HlsKernelProfile& profile);
// One cache level's memory profile (miss classes, reuse-distance and MSHR
// occupancy histograms); by_tag attribution is written by the callers that
// know how to render the tags.
void write_json(trace::JsonWriter& w, const mem::CacheMemProfile& profile);
// DRAM side of the memory profile: per-channel request counts, queue-depth
// histograms, bandwidth busy cycles, and the imbalance summary.
void write_json(trace::JsonWriter& w, const mem::DramMemProfile& profile);
// One kernel's accumulated memory-hierarchy profile — the "kernels" array
// elements of fgpu.mem.v1 (vortex levels with per-PC provenance joins, or
// the HLS read-path shadow profile with per-site joins).
void write_json(trace::JsonWriter& w, const KernelMemProfile& profile);

}  // namespace fgpu::suite
