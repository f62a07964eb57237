// Compiler passes over KIR.
//
// Two of these reproduce the paper's §III-B HLS area-optimization steps as
// real program transformations (applied to the same kernel both backends
// consume):
//   * cse_variable_reuse  — "O1: Variable Reuse" (Fig. 6, Listing 2):
//     repeated pure subexpressions (including repeated global loads) are
//     hoisted into local variables.
//   * mark_pipelined_loads — "O2: Load Unit Pipelining" (Fig. 6, Listing 3):
//     annotates global loads as __pipelined_load, switching the HLS LSU
//     from 32 burst-coalesced load units to a single pipelined unit.
//
// The remaining passes serve the soft-GPU flow: verify (front-end checks),
// const_fold, expand_builtins (exp/log/floor lowered to polynomial KIR so
// the device needs no libm), and analyze_divergence (drives SPLIT/JOIN vs
// plain-branch selection in codegen — the paper's "uniform statement
// analysis" opportunity, §IV-A).
#pragma once

#include "common/status.hpp"
#include "kir/kir.hpp"

namespace fgpu::codegen {
class RemarkSink;  // codegen/remarks.hpp; passes only pass the pointer on
}

namespace fgpu::kir {

// Deep-clones a kernel's statement tree (statements are shared_ptrs, so a
// plain Kernel copy aliases them; passes mutate statements in place).
Kernel clone_kernel(const Kernel& kernel);

// Static checks: variables defined before use, assignment targets exist,
// buffer/param indices in range, loop variables not mutated in their body.
Status verify(const Kernel& kernel);
Status verify(const Module& module);

// Folds constant subexpressions. Returns number of folded nodes.
int const_fold(Kernel& kernel);

// O1 "variable reuse": hoists repeated subexpressions into lets. A repeated
// expression containing loads is hoisted only if every occurrence executes
// before any store/atomic that may overwrite the loaded location (buffers
// are assumed non-aliasing, like HLS compilers treating restrict pointers).
// Returns the number of introduced variables.
int cse_variable_reuse(Kernel& kernel);

// O2 "load unit pipelining": marks global loads with the pipelined-LSU
// annotation. Returns the number of loads marked.
int mark_pipelined_loads(Kernel& kernel);

// Selective variant: marks only loads that initialize let-bound variables —
// exactly how the paper's Listing 3 applies __pipelined_load to the three
// hoisted "variable reuse" temporaries.
int mark_pipelined_loads_in_lets(Kernel& kernel);

// Replaces exp/log/floor/rsqrt/powi calls with inline KIR (polynomial
// approximations using bit-level float manipulation). sqrt stays native —
// both targets have hardware sqrt. Returns number of expanded calls.
//
// Copy-on-write like the other rewrites, with one exception: every load is
// copied, once per occurrence, so a load node shared by several parents in
// the input (`x * x` built from one load) comes out as one node per
// occurrence, and so does every node on the path above it. (An expanded
// builtin's polynomial reuses its argument's copy; among loads that is the
// only sharing in the output.) A subtree with no load and no expanded call
// is returned as the input's own pointer. Keep the load copy: HLS access
// sites (hls::AccessSite::site) and the interpreter's per-site counts
// (SiteCount) key on load node address, and two occurrences sharing one
// load node would give both HLS sites their merged count. No consumer keys
// on the address of any other node. The consumers that key on sites, the
// HLS cache and the analytical model, run clone_kernel + expand_builtins
// first.
int expand_builtins(Kernel& kernel);
int expand_builtins(Module& module);

// Divergence analysis: sets Stmt::divergent on control statements.
// `group_id_uniform` reflects the dispatch mapping: true when work-groups
// map to cores (barrier kernels), false for grid-stride dispatch where even
// get_group_id varies across lanes.
void analyze_divergence(Kernel& kernel, bool group_id_uniform);

// ---------------------------------------------------------------------------
// Soft-GPU -O pipeline passes (opt.cpp). These run at -O2 inside
// codegen::compile_kernel (on the kernel clone); they are semantics-
// preserving against the reference interpreter bit for bit.
// ---------------------------------------------------------------------------

// Removes statements with no observable effect: lets/assignments to
// variables that are never read (pure right-hand sides only), empty ifs
// with pure conditions, and empty for-loops with pure bounds and a
// provably-terminating (positive constant) step. Iterates to fixpoint.
// Returns the number of statements removed.
//
// All three -O2 passes take an optional codegen::RemarkSink and report
// applied/missed/blocked rewrites with statement provenance. Null sink
// (the default) is the exact pre-observability pipeline — no strings are
// built, no branches change.
int dead_code_elim(Kernel& kernel, codegen::RemarkSink* sink = nullptr);

// Loop-invariant code motion over KIR for/while loops: hoists maximal pure
// invariant subexpressions (e.g. the `row * size` address products inside
// sgemm's k-loop) into fresh `licm%d` lets directly before the loop and
// rewrites the loop to reference them. Pure expressions cannot trap (the
// ISA's div/rem never trap), so evaluating them on the zero-trip path is
// safe. Returns the number of hoisted expressions.
int licm(Kernel& kernel, codegen::RemarkSink* sink = nullptr);

// Strength reduction of integer arithmetic: x*2^k -> x<<k (exact mod 2^32);
// x/2^k -> x>>k and x%2^k -> x & (2^k-1) only where x is provably
// non-negative (signed division truncates toward zero, so the shift/mask
// forms are only equivalent for non-negative dividends). Returns the number
// of rewritten operations.
int strength_reduce(Kernel& kernel, codegen::RemarkSink* sink = nullptr);

// ---------------------------------------------------------------------------
// Provenance + size helpers shared by codegen's source map and the remark
// layer (codegen/remarks.hpp).
// ---------------------------------------------------------------------------

// Short one-line rendering of a statement (nested bodies elided), truncated
// to 80 chars. This is THE provenance string: codegen stamps it into the
// PC source map and every remark carries it, which is what lets
// fgpu.codegen.v1 join remarks against measured per-PC cycles.
std::string stmt_summary(const Kernel& kernel, const Stmt& stmt);

// KIR size metric for pass telemetry: statements + expression nodes over
// the whole kernel body.
int kernel_size(const Kernel& kernel);

}  // namespace fgpu::kir
