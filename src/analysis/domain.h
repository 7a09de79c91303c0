// The one abstract value domain of the static analyses: a reduced product
// of an unsigned 64-bit interval [lo, hi] and known bits (kmask, kval).
// ptlint, ptflow and the call-graph resolver carry one Domain per register
// through interval_step(); the ptsym solver carries one per expression node
// through Solver::forward. Both call the same per-operator transfers below,
// so they can never disagree on address arithmetic.
//
// Every transfer is the meet of an interval rule and a known-bits rule,
// followed by reduce(). Interval rules are modular: a sum or difference
// keeps its interval whenever the result set does not wrap around 2^64
// (exact values and a constant shift of an interval included), and
// anything that would wrap, lose bits or is unmodelled degrades soundly to
// ⊤ — imprecision only ever widens.
#pragma once

#include <array>
#include <string>

#include "common/types.h"

namespace ptstore::isa {
struct Inst;
}

namespace ptstore::analysis {

struct Domain {
  u64 lo = 0;
  u64 hi = ~u64{0};
  u64 kmask = 0;  // bit set => bit of the value is known
  u64 kval = 0;   // known bit values (subset of kmask)
  bool bottom = false;

  static Domain top() { return Domain{}; }
  static Domain exact(u64 v) { return Domain{v, v, ~u64{0}, v, false}; }
  static Domain range(u64 lo, u64 hi) {
    Domain d;
    d.lo = lo;
    d.hi = hi;
    d.bottom = lo > hi;
    return d;
  }

  /// Unconstrained: no bound beyond the known bits' own envelope, and not
  /// even the sign bit known. Alignment or tag bits alone do not say where
  /// an address points, so an aligned but otherwise unknown pointer stays
  /// ⊤ to the region checks and to describe().
  bool is_top() const {
    return !bottom && (kmask >> 63) == 0 && lo == kval &&
           hi == (kval | ~kmask);
  }
  bool is_singleton() const { return !bottom && lo == hi; }
  /// The interval lies on one side of 2^63, so signed order is unsigned
  /// order on it.
  bool sign_contiguous() const { return (lo >> 63) == (hi >> 63); }
  bool contains(u64 v) const {
    return !bottom && v >= lo && v <= hi && (v & kmask) == kval;
  }
  bool operator==(const Domain&) const = default;

  /// Meet with another interval; may go bottom.
  void meet_interval(u64 nlo, u64 nhi);
  /// Meet with known bits; conflicting known bits go bottom.
  void meet_known(u64 nmask, u64 nval);
  void meet(const Domain& other);
  /// Re-establish the reduced product: interval common-prefix bits become
  /// known bits, and the known-bits envelope [kval, kval|~kmask] clamps the
  /// interval. Sound both ways: no value passing contains() before
  /// reduce() is excluded after.
  void reduce();
  /// Least upper bound: interval hull and the known bits both sides share.
  /// Neither side is bottom (no analysis state ever is).
  Domain join(const Domain& o) const;

  /// Relation to a non-empty region [base, end): fully inside, fully
  /// outside, or possibly overlapping. Outside also holds when the interval
  /// meets the region but no value there has the known bits (say, every
  /// member has bit 31 clear and every region address has it set).
  bool inside(u64 base, u64 end) const { return lo >= base && hi < end; }
  bool outside(u64 base, u64 end) const;
  bool may_overlap(u64 base, u64 end) const { return !outside(base, end); }

  /// "[top]", "0x…" or "[0x…, 0x…]": the interval after reduce().
  std::string describe() const;
};

// ---- forward transfers ----
// Operands are never bottom (a bottom operand makes the whole expression
// infeasible, which Solver::forward decides before it dispatches); shift
// amounts are 0..63.
Domain add(const Domain& a, const Domain& b);
Domain sub(const Domain& a, const Domain& b);
Domain mul(const Domain& a, const Domain& b);
Domain bit_and(const Domain& a, const Domain& b);
Domain bit_or(const Domain& a, const Domain& b);
Domain bit_xor(const Domain& a, const Domain& b);
Domain shl(const Domain& a, unsigned s);
Domain srl(const Domain& a, unsigned s);
Domain sra(const Domain& a, unsigned s);
/// 32-bit wrap + sign-extend (the *w family result shape).
Domain sext_w(const Domain& a);
/// Compares yield 0 or 1; lts compares as signed.
Domain cmp_eq(const Domain& a, const Domain& b);
Domain cmp_ne(const Domain& a, const Domain& b);
Domain cmp_ltu(const Domain& a, const Domain& b);
Domain cmp_lts(const Domain& a, const Domain& b);

/// x + sext(imm): the addi / memory-offset shape.
inline Domain add_imm(const Domain& a, i64 imm) {
  return add(a, Domain::exact(static_cast<u64>(imm)));
}

/// One Domain per architectural register (x0 pinned to exact 0).
using RegIntervals = std::array<Domain, 32>;

/// The registers at an analysis root: x0 = 0, everything else ⊤.
RegIntervals entry_intervals();

/// Join x1..x31 of `from` into `into`; true if any register changed.
bool join_intervals(RegIntervals& into, const RegIntervals& from);

/// The RISC-V caller-saved set (ra, t0–t6, a0–a7): any callee may write
/// these; callee-saved registers and sp/gp/tp survive per the ABI the
/// assembler-built images follow.
inline constexpr u8 kCallerSaved[] = {1,  5,  6,  7,  10, 11, 12, 13,
                                      14, 15, 16, 17, 28, 29, 30, 31};

/// Send every caller-saved register to ⊤ (a call-return edge).
void clobber_caller_saved(RegIntervals& regs);

/// Shared forward transfer for one instruction's register effect: constants
/// and address arithmetic stay precise, a jal/jalr link register gets the
/// exact return address, everything unmodelled (loads, CSR reads, mul/div,
/// compares) degrades soundly to ⊤. Used by the linter, the call-graph
/// resolver and ptflow so they can never disagree on address formation.
void interval_step(u64 pc, const isa::Inst& in, RegIntervals& regs);

}  // namespace ptstore::analysis
