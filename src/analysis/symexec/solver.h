// Dependency-free constraint solver for ptsym witness queries. No external
// SMT: every expression node carries an analysis Domain (analysis/domain.h,
// the interval × known-bits product the static analyses share), and solving
// is propagate + split:
//
//   1. Forward pass (children → parents) runs each operator's shared
//      Domain transfer; constraint domains are met into their nodes.
//   2. Backward pass (parents → children) inverts the operators that are
//      invertible enough to matter for kernel address arithmetic: add/sub
//      with a pinned operand, and/or/xor/shifts by constants, compares
//      forced to a definite truth value (signed compares go through the
//      2^63 bias when the interval does not straddle the sign boundary).
//   3. A candidate assignment is picked greedily (preferred value first —
//      secret sentinels — then domain corners) and accepted only if the
//      *concrete* evaluation of every constraint and the caller's goal
//      predicate pass. Abstract imprecision therefore never yields a false
//      SAT.
//   4. If the pick fails, the widest input domain is split at its midpoint
//      and both halves are searched, preferred half first. Each split costs
//      one unit of budget; exhausting the budget returns kBudget, which the
//      driver must surface as UNKNOWN — never as a verdict.
//
// UNSAT is only reported when propagation derives bottom or when every
// input is pinned to a single value that still fails the concrete check;
// both are sound refutations of the constraint set.
#pragma once

#include <functional>
#include <vector>

#include "analysis/domain.h"
#include "analysis/symexec/expr.h"

namespace ptstore::analysis::symexec {

enum class SolveStatus : u8 {
  kSat,     // assignment found and concretely validated
  kUnsat,   // constraint set refuted within the abstraction (sound)
  kBudget,  // split budget exhausted — caller must report UNKNOWN
};

const char* solve_status_name(SolveStatus s);

struct SolveResult {
  SolveStatus status = SolveStatus::kUnsat;
  std::vector<u64> assign;  // indexed by InputId; valid when kSat
  u32 splits_used = 0;
};

class Solver {
 public:
  /// `arena` must outlive the solver. `split_budget` bounds the number of
  /// branch-and-bound splits across the whole solve() call.
  Solver(const ExprArena& arena, u32 split_budget);

  /// Require node's value to lie in `d`.
  void require(ExprId node, Domain d);
  void require_eq(ExprId node, u64 v) { require(node, Domain::exact(v)); }
  void require_in(ExprId node, u64 lo, u64 hi) {
    require(node, Domain::range(lo, hi));
  }
  /// Mark a node whose inputs matter to the goal predicate even if no
  /// require() mentions it (e.g. a sanctioned-home post-check on an EA).
  void note_support(ExprId node);

  using GoalCheck = std::function<bool(const std::vector<u64>& assign)>;

  /// Search for an assignment satisfying all requirements plus `goal`
  /// (optional). The returned assignment is always concretely validated.
  SolveResult solve(const GoalCheck& goal = {});

 private:
  struct Split {
    ExprId node;
    Domain dom;
  };

  bool propagate(std::vector<Domain>& doms, const std::vector<Split>& splits);
  void forward(std::vector<Domain>& doms, ExprId id);
  void backward(std::vector<Domain>& doms, ExprId id);
  std::vector<u64> pick(const std::vector<Domain>& doms);
  bool concrete_ok(const std::vector<u64>& assign, const GoalCheck& goal);
  SolveStatus search(std::vector<Split>& splits, const GoalCheck& goal,
                     SolveResult& out);

  const ExprArena& arena_;
  u32 budget_;
  u32 splits_used_ = 0;
  std::vector<Split> constraints_;
  std::vector<ExprId> support_inputs_;  // node ids of kInput leaves to split
};

}  // namespace ptstore::analysis::symexec
