#include "analysis/domain.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/bits.h"
#include "isa/inst.h"

namespace ptstore::analysis {
namespace {

constexpr u64 kSignBit = u64{1} << 63;

/// Every value below 2^bit_width(v): the smallest all-ones bound on v.
u64 ones_through(u64 v) {
  return mask_lo(static_cast<unsigned>(std::bit_width(v)));
}

u64 sext32(u64 v) {
  return static_cast<u64>(static_cast<i64>(static_cast<i32>(v)));
}

u64 sra64(u64 v, unsigned s) {
  return static_cast<u64>(static_cast<i64>(v) >> s);
}

/// The values start + [0, wa + wb] mod 2^64 — a sum or difference of two
/// intervals of widths wa and wb — as an interval, or ⊤ when that set
/// wraps around 2^64 and so is not one.
Domain modular(u64 start, u64 wa, u64 wb) {
  const u64 w = wa + wb;
  if (w < wa || start + w < start) return Domain::top();
  return Domain::range(start, start + w);
}

/// Known bits of a + b + carry_in, where b's known bits are (bmask, bval):
/// a result bit is known where both operand bits and the carry into it are
/// (the carry is known where the all-ones and the all-zeros completions of
/// the unknown bits agree on it).
void meet_sum_bits(Domain& r, const Domain& a, u64 bmask, u64 bval,
                   u64 carry_in) {
  const u64 max_sum = (a.kval | ~a.kmask) + (bval | ~bmask) + carry_in;
  const u64 min_sum = a.kval + bval + carry_in;
  const u64 a_zero = a.kmask & ~a.kval, b_zero = bmask & ~bval;
  const u64 carry_known =
      ~(max_sum ^ a_zero ^ b_zero) | (min_sum ^ a.kval ^ bval);
  r.meet_known(a.kmask & bmask & carry_known, min_sum);
}

Domain reduced(Domain r) {
  r.reduce();
  return r;
}

/// A compare result: 1 when provably true, 0 when provably false, else
/// either.
Domain truth(bool always, bool never) {
  if (always) return Domain::exact(1);
  return never ? Domain::exact(0) : reduced(Domain::range(0, 1));
}

}  // namespace

void Domain::meet_interval(u64 nlo, u64 nhi) {
  if (bottom) return;
  lo = std::max(lo, nlo);
  hi = std::min(hi, nhi);
  if (lo > hi) bottom = true;
}

void Domain::meet_known(u64 nmask, u64 nval) {
  if (bottom) return;
  nval &= nmask;
  const u64 both = kmask & nmask;
  if ((kval & both) != (nval & both)) {
    bottom = true;
    return;
  }
  kmask |= nmask;
  kval |= nval;
}

void Domain::meet(const Domain& other) {
  if (other.bottom) {
    bottom = true;
    return;
  }
  meet_interval(other.lo, other.hi);
  meet_known(other.kmask, other.kval);
}

void Domain::reduce() {
  if (bottom) return;
  for (int round = 0; round < 2 && !bottom; ++round) {
    // Interval → known bits: the common high-order prefix of lo and hi is
    // fixed for every value in [lo,hi].
    const u64 prefix = ~ones_through(lo ^ hi);
    if (prefix) meet_known(prefix, lo & prefix);
    if (bottom) return;
    // Known bits → interval: every matching value lies in
    // [kval, kval | ~kmask] (free bits all-0 / all-1).
    meet_interval(kval, kval | ~kmask);
  }
}

Domain Domain::join(const Domain& o) const {
  Domain r = range(std::min(lo, o.lo), std::max(hi, o.hi));
  r.kmask = kmask & o.kmask & ~(kval ^ o.kval);
  r.kval = kval & r.kmask;
  return reduced(r);
}

bool Domain::outside(u64 base, u64 end) const {
  if (hi < base || lo >= end) return true;
  Domain in_region = *this;
  in_region.meet_interval(base, end - 1);
  in_region.reduce();
  return in_region.bottom;
}

std::string Domain::describe() const {
  const Domain d = reduced(*this);
  std::ostringstream os;
  if (d.is_top()) {
    os << "[top]";
  } else if (d.is_singleton()) {
    os << "0x" << std::hex << d.lo;
  } else {
    os << "[0x" << std::hex << d.lo << ", 0x" << d.hi << "]";
  }
  return os.str();
}

Domain add(const Domain& a, const Domain& b) {
  Domain r = modular(a.lo + b.lo, a.hi - a.lo, b.hi - b.lo);
  meet_sum_bits(r, a, b.kmask, b.kval, 0);
  return reduced(r);
}

Domain sub(const Domain& a, const Domain& b) {
  Domain r = modular(a.lo - b.hi, a.hi - a.lo, b.hi - b.lo);
  meet_sum_bits(r, a, b.kmask, ~b.kval & b.kmask, 1);  // a + ~b + 1
  return reduced(r);
}

Domain mul(const Domain& a, const Domain& b) {
  if (a.is_singleton() && b.is_singleton()) return Domain::exact(a.lo * b.lo);
  Domain r;
  if (b.is_singleton() && b.lo != 0 && a.hi <= ~u64{0} / b.lo)
    r.meet_interval(a.lo * b.lo, a.hi * b.lo);
  else if (a.is_singleton() && a.lo != 0 && b.hi <= ~u64{0} / a.lo)
    r.meet_interval(a.lo * b.lo, a.lo * b.hi);
  return reduced(r);
}

Domain bit_and(const Domain& a, const Domain& b) {
  Domain r;
  const u64 zero = (a.kmask & ~a.kval) | (b.kmask & ~b.kval);
  const u64 one = (a.kmask & a.kval) & (b.kmask & b.kval);
  r.meet_known(zero | one, one);
  r.meet_interval(0, std::min(a.hi, b.hi));
  return reduced(r);
}

Domain bit_or(const Domain& a, const Domain& b) {
  Domain r;
  const u64 one = (a.kmask & a.kval) | (b.kmask & b.kval);
  const u64 zero = (a.kmask & ~a.kval) & (b.kmask & ~b.kval);
  r.meet_known(zero | one, one);
  r.meet_interval(std::max(a.lo, b.lo), ones_through(a.hi | b.hi));
  return reduced(r);
}

Domain bit_xor(const Domain& a, const Domain& b) {
  Domain r;
  const u64 both = a.kmask & b.kmask;
  r.meet_known(both, (a.kval ^ b.kval) & both);
  r.meet_interval(0, ones_through(a.hi | b.hi));
  return reduced(r);
}

Domain shl(const Domain& a, unsigned s) {
  Domain r;
  r.meet_known((a.kmask << s) | mask_lo(s), a.kval << s);
  if (a.hi <= (~u64{0} >> s)) r.meet_interval(a.lo << s, a.hi << s);
  return reduced(r);
}

Domain srl(const Domain& a, unsigned s) {
  Domain r;
  r.meet_known((a.kmask >> s) | ~(~u64{0} >> s), a.kval >> s);
  r.meet_interval(a.lo >> s, a.hi >> s);
  return reduced(r);
}

Domain sra(const Domain& a, unsigned s) {
  Domain r;
  // The s vacated high bits copy the sign bit: known exactly when it is.
  const u64 fill = ~(~u64{0} >> s);
  u64 km = a.kmask >> s, kv = a.kval >> s;
  if (a.kmask & kSignBit) {
    km |= fill;
    if (a.kval & kSignBit) kv |= fill;
  }
  r.meet_known(km, kv);
  // Monotone in unsigned order: non-negative results stay below negative
  // ones, even for an interval that straddles 2^63.
  r.meet_interval(sra64(a.lo, s), sra64(a.hi, s));
  return reduced(r);
}

Domain sext_w(const Domain& a) {
  Domain r;
  // Low 32 known bits survive; if bit 31 is known the top 32 bits are its
  // copies.
  r.meet_known(a.kmask & 0xFFFFFFFFu, a.kval & 0xFFFFFFFFu);
  if (a.kmask & 0x80000000u) {
    r.meet_known(~u64{0} << 31, (a.kval & 0x80000000u) ? ~u64{0} << 31 : 0);
  }
  // Monotone when every member shares bits 63..31 (no 32-bit wrap, one sign).
  if ((a.lo >> 31) == (a.hi >> 31)) r.meet_interval(sext32(a.lo), sext32(a.hi));
  return reduced(r);
}

Domain cmp_eq(const Domain& a, const Domain& b) {
  const bool disjoint = a.hi < b.lo || b.hi < a.lo;
  return truth(a.is_singleton() && b.is_singleton() && a.lo == b.lo, disjoint);
}

Domain cmp_ne(const Domain& a, const Domain& b) {
  const Domain eq = cmp_eq(a, b);
  return eq.is_singleton() ? Domain::exact(1 - eq.lo) : eq;
}

Domain cmp_ltu(const Domain& a, const Domain& b) {
  return truth(a.hi < b.lo, a.lo >= b.hi);
}

Domain cmp_lts(const Domain& a, const Domain& b) {
  if (!a.sign_contiguous() || !b.sign_contiguous()) return truth(false, false);
  // Under the 2^63 bias signed order is unsigned order.
  return truth((a.hi ^ kSignBit) < (b.lo ^ kSignBit),
               (a.lo ^ kSignBit) >= (b.hi ^ kSignBit));
}

RegIntervals entry_intervals() {
  RegIntervals regs;
  regs.fill(Domain::top());
  regs[0] = Domain::exact(0);
  return regs;
}

bool join_intervals(RegIntervals& into, const RegIntervals& from) {
  bool changed = false;
  for (unsigned r = 1; r < 32; ++r) {
    const Domain j = into[r].join(from[r]);
    if (j != into[r]) {
      into[r] = j;
      changed = true;
    }
  }
  return changed;
}

void clobber_caller_saved(RegIntervals& regs) {
  for (const u8 r : kCallerSaved) regs[r] = Domain::top();
}

void interval_step(u64 pc, const isa::Inst& in, RegIntervals& regs) {
  using isa::Op;
  // Stores and branches write no register (rd is 0 in those formats).
  if (in.rd == 0) return;
  const Domain& a = regs[in.rs1];
  const Domain& b = regs[in.rs2];
  const Domain imm = Domain::exact(static_cast<u64>(in.imm));
  const unsigned shamt = static_cast<unsigned>(in.imm) & 63;
  Domain r;
  switch (in.op) {
    case Op::kLui: r = imm; break;
    case Op::kAuipc: r = Domain::exact(pc + static_cast<u64>(in.imm)); break;
    case Op::kJal:
    case Op::kJalr: r = Domain::exact(pc + 4); break;
    case Op::kAddi: r = add(a, imm); break;
    case Op::kAddiw: r = sext_w(add(a, imm)); break;
    case Op::kAndi: r = bit_and(a, imm); break;
    case Op::kOri: r = bit_or(a, imm); break;
    case Op::kXori: r = bit_xor(a, imm); break;
    case Op::kSlli: r = shl(a, shamt); break;
    case Op::kSrli: r = srl(a, shamt); break;
    case Op::kSrai: r = sra(a, shamt); break;
    case Op::kAdd: r = add(a, b); break;
    case Op::kSub: r = sub(a, b); break;
    case Op::kAddw: r = sext_w(add(a, b)); break;
    case Op::kSubw: r = sext_w(sub(a, b)); break;
    case Op::kAnd: r = bit_and(a, b); break;
    case Op::kOr: r = bit_or(a, b); break;
    case Op::kXor: r = bit_xor(a, b); break;
    default:
      // Loads (incl. ld.pt), AMOs, CSR reads, mul/div, compares and word
      // shifts soundly degrade to ⊤.
      break;
  }
  regs[in.rd] = r;
}

}  // namespace ptstore::analysis
