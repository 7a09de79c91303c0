// The one forward worklist fixpoint behind ptlint's block pass, the
// call-graph resolver's global interval pass and ptflow's per-function and
// calling-context passes.
//
// The engine owns the per-node entry states, the FIFO worklist and the
// widening join; the caller owns the transfer. `run(visit)` pops each
// queued node and hands `visit` a copy of its entry state; `visit`
// interprets the node and calls `join` for every successor. A State needs
// three members: `reached`, `regs` (RegIntervals) and `bool join_from(const
// State&)` returning whether the join changed anything.
//
// Widening: every join that changes a node counts, the join that first
// reaches it included (a seed does not). From the (kWidenAfter+1)-th
// counted join on, each register whose interval moved goes straight to ⊤,
// so every loop converges. A join that moves no interval but drops known
// bits requeues the node without counting, so known bits never make a loop
// widen earlier than its intervals do. Known bits, flags and taint are not
// widened: they live in finite lattices and stop changing on their own.
#pragma once

#include <deque>
#include <map>

#include "analysis/domain.h"

namespace ptstore::analysis {

/// Changing joins a node absorbs before its moving registers widen to ⊤.
inline constexpr int kWidenAfter = 4;

/// The smallest State: registers plus reachability (the call-graph
/// resolver's; ptlint and ptflow add their own flags and taint).
struct IntervalState {
  RegIntervals regs = entry_intervals();
  bool reached = false;

  bool join_from(const IntervalState& o) {
    if (!o.reached) return false;
    if (!reached) {
      *this = o;
      return true;
    }
    return join_intervals(regs, o.regs);
  }
};

template <typename State>
class Fixpoint {
 public:
  /// Enter `st` at an analysis root; queue it if that changed the node.
  /// Roots do not count toward widening.
  void seed(u64 at, const State& st) {
    if (slots_[at].state.join_from(st)) work_.push_back(at);
  }

  /// Join `st` into `at` along an edge, widening as described above, and
  /// queue `at` if its entry state changed.
  void join(u64 at, const State& st) {
    Slot& slot = slots_[at];
    const bool was_reached = slot.state.reached;
    const RegIntervals before = slot.state.regs;
    if (!slot.state.join_from(st)) return;
    work_.push_back(at);
    const auto moved = [&](unsigned r) {
      const Domain& now = slot.state.regs[r];
      return now.lo != before[r].lo || now.hi != before[r].hi;
    };
    bool any_moved = false, bits_dropped = false;
    for (unsigned r = 1; r < 32; ++r) {
      any_moved = any_moved || moved(r);
      bits_dropped =
          bits_dropped || slot.state.regs[r].kmask != before[r].kmask;
    }
    if (bits_dropped && !any_moved) return;  // Known bits alone: not counted.
    if (++slot.changes > kWidenAfter && was_reached) {
      for (unsigned r = 1; r < 32; ++r) {
        if (moved(r)) slot.state.regs[r] = Domain::top();
      }
    }
  }

  /// Drain the worklist in FIFO order: `visit(at, entry_state)` per pop.
  template <typename Visit>
  void run(Visit&& visit) {
    while (!work_.empty()) {
      const u64 at = work_.front();
      work_.pop_front();
      visit(at, State(slots_[at].state));  // A copy: visit may join into `at`.
    }
  }

  /// Entry state of `at`, or nullptr if no reached state ever joined in.
  const State* state(u64 at) const {
    auto it = slots_.find(at);
    return it == slots_.end() || !it->second.state.reached ? nullptr
                                                           : &it->second.state;
  }

 private:
  struct Slot {
    State state;
    int changes = 0;
  };
  std::map<u64, Slot> slots_;
  std::deque<u64> work_;
};

}  // namespace ptstore::analysis
