#include "codegen/regalloc.hpp"

#include <algorithm>
#include <cassert>
#include <climits>
#include <queue>
#include <tuple>

namespace fgpu::codegen {
namespace {

struct UseInfo {
  int first = -1;
  int last = -1;
  bool is_float = false;

  void touch(int pos, bool flt) {
    if (first < 0) first = pos;
    last = std::max(last, pos);
    is_float = is_float || flt;
  }
};

struct BackEdge {
  int from;
  int to;
};

std::vector<BackEdge> collect_back_edges(const MFunction& fn) {
  std::vector<int> label_pos(static_cast<size_t>(fn.num_labels), -1);
  for (size_t i = 0; i < fn.code.size(); ++i) {
    if (fn.code[i].is_label()) {
      label_pos[static_cast<size_t>(fn.code[i].bind_label)] = static_cast<int>(i);
    }
  }
  std::vector<BackEdge> back_edges;
  for (size_t i = 0; i < fn.code.size(); ++i) {
    const MInstr& m = fn.code[i];
    if (m.is_label() || m.is_li || m.target < 0) continue;
    const int t = label_pos[static_cast<size_t>(m.target)];
    assert(t >= 0 && "branch to unbound label");
    if (t <= static_cast<int>(i)) back_edges.push_back({static_cast<int>(i), t});
  }
  return back_edges;
}

// Per-vreg access positions (sorted) and def count, for the spill-cost
// heuristic and the split-safety check.
struct AccessInfo {
  std::vector<int> positions;
  int def_count = 0;

  int def_pos() const { return positions.empty() ? -1 : positions.front(); }

  // First access at position >= pos, or INT_MAX.
  int next_access(int pos) const {
    auto it = std::lower_bound(positions.begin(), positions.end(), pos);
    return it == positions.end() ? INT_MAX : *it;
  }

  // Any access in [lo, hi)?
  bool accessed_in(int lo, int hi) const {
    auto it = std::lower_bound(positions.begin(), positions.end(), lo);
    return it != positions.end() && *it < hi;
  }
};

// Per-vreg tables are dense vectors indexed by `vreg - kFirstVirtual`;
// every vreg of `fn` was handed out by MFunction::new_vreg.
size_t vreg_count(const MFunction& fn) {
  return static_cast<size_t>(std::max(fn.next_vreg - kFirstVirtual, 0));
}

std::vector<AccessInfo> collect_accesses(const MFunction& fn) {
  std::vector<AccessInfo> info(vreg_count(fn));
  for (size_t i = 0; i < fn.code.size(); ++i) {
    const MInstr& m = fn.code[i];
    if (m.is_label()) continue;
    const int pos = static_cast<int>(i);
    auto touch = [&](int reg) {
      if (!is_virtual(reg)) return;
      auto& a = info[static_cast<size_t>(reg - kFirstVirtual)];
      if (a.positions.empty() || a.positions.back() != pos) a.positions.push_back(pos);
    };
    touch(m.rs1);
    touch(m.rs2);
    touch(m.rs3);
    if (is_virtual(m.rd)) {
      touch(m.rd);
      ++info[static_cast<size_t>(m.rd - kFirstVirtual)].def_count;
    }
  }
  return info;
}

}  // namespace

std::vector<Interval> compute_intervals(const MFunction& fn) {
  std::vector<UseInfo> uses(vreg_count(fn));

  for (size_t i = 0; i < fn.code.size(); ++i) {
    const MInstr& m = fn.code[i];
    if (m.is_label()) continue;
    const int pos = static_cast<int>(i);
    auto touch = [&](int reg, bool flt) {
      if (is_virtual(reg)) uses[static_cast<size_t>(reg - kFirstVirtual)].touch(pos, flt);
    };
    touch(m.rd, slot_rd_float(m.op));
    touch(m.rs1, slot_rs1_float(m.op));
    touch(m.rs2, slot_rs2_float(m.op));
    touch(m.rs3, slot_rs3_float(m.op));
  }

  // Extend intervals across backward branches until fixpoint, so values
  // defined before a loop and used inside remain live through all
  // iterations (and values defined in iteration N survive into N+1).
  // Only values defined before the loop header and still used at or after it
  // can be live across iterations (codegen re-defines in-body temporaries at
  // the top of every iteration, so they never cross the back edge).
  const auto back_edges = collect_back_edges(fn);
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& info : uses) {
      for (const auto& edge : back_edges) {
        if (info.first < edge.to && info.last >= edge.to && info.last < edge.from) {
          info.last = edge.from;
          changed = true;
        }
      }
    }
  }

  std::vector<Interval> intervals;
  intervals.reserve(uses.size());
  for (size_t k = 0; k < uses.size(); ++k) {
    const UseInfo& info = uses[k];
    if (info.first < 0) continue;
    intervals.push_back(
        Interval{static_cast<int>(k) + kFirstVirtual, info.first, info.last, info.is_float});
  }
  std::sort(intervals.begin(), intervals.end(), [](const Interval& a, const Interval& b) {
    return std::tie(a.start, a.vreg) < std::tie(b.start, b.vreg);
  });
  return intervals;
}

Allocation allocate_registers(const MFunction& fn, const RegAllocConfig& config,
                              RemarkSink* sink) {
  Allocation alloc;
  const auto intervals = compute_intervals(fn);
  const auto accesses = collect_accesses(fn);
  const auto back_edges = collect_back_edges(fn);
  const auto access = [&](int vreg) -> const AccessInfo& {
    return accesses[static_cast<size_t>(vreg - kFirstVirtual)];
  };

  // Peak simultaneous liveness over both register classes (intervals are
  // sorted by start): the `max_pressure` figure of the pass telemetry.
  {
    std::priority_queue<int, std::vector<int>, std::greater<int>> live_ends;
    for (const auto& interval : intervals) {
      while (!live_ends.empty() && live_ends.top() < interval.start) live_ends.pop();
      live_ends.push(interval.end);
      alloc.max_pressure =
          std::max(alloc.max_pressure, static_cast<int>(live_ends.size()));
    }
  }

  // Spill/split remark with the defining statement's provenance and the
  // number of accesses the stack will serve (the decision's cost proxy).
  const auto note = [&](const char* name, const char* detail, int vreg, int from_pos) {
    if (sink == nullptr) return;
    const auto& a = access(vreg);
    const int64_t served = a.positions.end() - std::lower_bound(a.positions.begin(),
                                                                a.positions.end(), from_pos);
    std::string site = "<unknown>";
    const int def = a.def_pos();
    if (def >= 0 && static_cast<size_t>(def) < fn.code.size()) {
      const int src = fn.code[static_cast<size_t>(def)].src;
      if (src >= 0 && static_cast<size_t>(src) < fn.sources.size()) {
        site = fn.sources[static_cast<size_t>(src)];
      }
    }
    sink->add("regalloc", "applied", name, site, detail, served);
  };

  // Splitting victim W at position P is safe only when W's register cannot
  // be observed stale: W is single-def (the def also refreshes the slot),
  // and no backward branch can re-enter W's pre-split range after the
  // register has been handed over. A back edge (from >= P, to) is dangerous
  // exactly when it skips W's def (to > def) and W still has register
  // accesses in [to, P).
  auto split_safe = [&](int vreg, int split_pos) {
    const auto& a = access(vreg);
    if (a.def_count != 1) return false;
    const int def = a.def_pos();
    if (def < 0 || def >= split_pos) return false;
    if (a.next_access(split_pos) == INT_MAX) return false;  // nothing to serve
    for (const auto& edge : back_edges) {
      if (edge.from >= split_pos && edge.to > def && a.accessed_in(edge.to, split_pos)) {
        return false;
      }
    }
    return true;
  };

  // Slot numbers are assigned after the scan so non-overlapping lifetimes
  // can share slots; the scan records requests in the meantime.
  struct SlotRequest {
    int vreg;
    int start;  // first position the slot holds a live value (the store)
    int end;
    bool is_split;
  };
  std::vector<SlotRequest> requests;

  // Allocate int and float classes independently.
  for (const bool want_float : {false, true}) {
    const auto& pool = want_float ? config.float_regs : config.int_regs;
    struct Active {
      Interval interval;
      int phys;
    };
    std::vector<Active> active;
    std::vector<int> free_regs(pool.rbegin(), pool.rend());  // pop_back yields pool order
    const auto encode = [&](int phys) { return want_float ? phys + kPhysFloatBase : phys; };

    for (const auto& interval : intervals) {
      if (interval.is_float != want_float) continue;
      const int start = interval.start;
      // Expire finished intervals.
      for (size_t i = 0; i < active.size();) {
        if (active[i].interval.end < start) {
          free_regs.push_back(active[i].phys);
          active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
      if (!free_regs.empty()) {
        const int phys = free_regs.back();
        free_regs.pop_back();
        alloc.assignment[interval.vreg] = encode(phys);
        active.push_back({interval, phys});
        continue;
      }
      // Under pressure: evict the interval whose next access is furthest
      // away (ties: fewer remaining accesses — cheaper to serve from the
      // stack — then later end, then lower vreg). The current interval
      // competes with its first access *after* its def.
      auto cost_key = [&](const Interval& iv, int next) {
        const auto& a = access(iv.vreg);
        const int remaining =
            static_cast<int>(a.positions.end() -
                             std::lower_bound(a.positions.begin(), a.positions.end(), start));
        return std::make_tuple(next, -remaining, iv.end, -iv.vreg);
      };
      const int current_next = access(interval.vreg).next_access(start + 1);
      Active* victim = nullptr;
      for (auto& cand : active) {
        const int cand_next = access(cand.interval.vreg).next_access(start);
        if (!victim || cost_key(cand.interval, cand_next) >
                           cost_key(victim->interval,
                                    access(victim->interval.vreg).next_access(start))) {
          victim = &cand;
        }
      }
      const int victim_next =
          victim ? access(victim->interval.vreg).next_access(start) : INT_MIN;
      if (victim && cost_key(victim->interval, victim_next) >
                        cost_key(interval, current_next)) {
        // Evict the victim; split it if safe, spill it whole otherwise.
        const int w = victim->interval.vreg;
        alloc.assignment.erase(w);
        if (split_safe(w, start)) {
          note("ra.split", "evicted live range split: register until eviction, stack after",
               w, start);
          alloc.split[w] = SplitAssign{encode(victim->phys), start, -1};
          requests.push_back({w, access(w).def_pos(), victim->interval.end, true});
        } else {
          note("ra.spill", "evicted live range spilled whole", w, victim->interval.start);
          requests.push_back({w, victim->interval.start, victim->interval.end, false});
        }
        alloc.assignment[interval.vreg] = encode(victim->phys);
        victim->interval = interval;
      } else {
        note("ra.spill", "no profitable eviction: interval spilled at definition",
             interval.vreg, start);
        requests.push_back({interval.vreg, start, interval.end, false});
      }
    }
  }

  // Lifetime-based slot assignment: a slot is reusable once the interval it
  // held has ended.
  std::sort(requests.begin(), requests.end(), [](const SlotRequest& a, const SlotRequest& b) {
    return std::tie(a.start, a.end, a.vreg) < std::tie(b.start, b.end, b.vreg);
  });
  using EndSlot = std::pair<int, int>;  // (end, slot)
  std::priority_queue<EndSlot, std::vector<EndSlot>, std::greater<EndSlot>> in_use;
  int next_slot = 0;
  for (const auto& req : requests) {
    int slot;
    if (!in_use.empty() && in_use.top().first < req.start) {
      slot = in_use.top().second;
      in_use.pop();
    } else {
      slot = next_slot++;
    }
    in_use.push({req.end, slot});
    if (req.is_split) {
      alloc.split[req.vreg].slot = slot;
    } else {
      alloc.spill_slot[req.vreg] = slot;
    }
  }
  alloc.num_spill_slots = next_slot;
  return alloc;
}

}  // namespace fgpu::codegen
