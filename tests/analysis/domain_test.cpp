// Tests of the analysis-wide Domain (analysis/domain.h).
//
// The pins first: every expected interval of the interval-only domain the
// static analyses used before (join, region relations, add wrap, add_imm
// shift, sub, shifts, and-masks, sext.w) holds on Domain, and the cases
// where that domain gave up to ⊤ but the known-bits half now proves more
// are pinned at their tighter value.
//
// Then a differential test modelled on pmp_diff_test: the reference below
// is that interval domain (AbsVal) and its interval_step, copied verbatim.
// Over seeded (instruction, register-state) pairs covering every op
// interval_step models, the new interval must lie inside the reference's
// (no precision lost) and must contain the concrete result of sampled
// members of the source registers (still sound). A last fuzz checks the
// soundness of every transfer, the solver-only ones included, on domains
// that carry known bits.
#include "analysis/domain.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "isa/inst.h"

namespace ptstore::analysis {
namespace {

// ---- Reference: the pre-Domain interval domain, verbatim ----

struct AbsVal {
  u64 lo = 0;
  u64 hi = ~u64{0};

  static AbsVal top() { return AbsVal{0, ~u64{0}}; }
  static AbsVal exact(u64 v) { return AbsVal{v, v}; }
  static AbsVal range(u64 lo, u64 hi) { return AbsVal{lo, hi}; }

  bool is_top() const { return lo == 0 && hi == ~u64{0}; }
  bool is_exact() const { return lo == hi; }

  bool operator==(const AbsVal& o) const { return lo == o.lo && hi == o.hi; }
  bool operator!=(const AbsVal& o) const { return !(*this == o); }

  /// Least upper bound.
  AbsVal join(const AbsVal& o) const {
    return AbsVal{lo < o.lo ? lo : o.lo, hi > o.hi ? hi : o.hi};
  }

  /// Interval relation to [base, end): fully inside, fully outside, or
  /// possibly overlapping.
  bool inside(u64 base, u64 end) const { return lo >= base && hi < end; }
  bool outside(u64 base, u64 end) const { return hi < base || lo >= end; }
  bool may_overlap(u64 base, u64 end) const { return !outside(base, end); }

  // ---- transfer helpers (all sound: imprecision only widens) ----

  /// x + y. Exact+exact wraps like hardware; intervals collapse to Top when
  /// the upper bound would wrap.
  static AbsVal add(const AbsVal& a, const AbsVal& b) {
    if (a.is_exact() && b.is_exact()) return exact(a.lo + b.lo);
    const u64 nlo = a.lo + b.lo;
    const u64 nhi = a.hi + b.hi;
    if (nhi < a.hi || nlo > nhi) return top();
    return AbsVal{nlo, nhi};
  }

  /// x + sext(imm), the `addi` / memory-offset shape. Shifting the whole
  /// interval by a (possibly negative) constant keeps its width; it stays an
  /// interval exactly when the two's-complement shift does not rotate order.
  static AbsVal add_imm(const AbsVal& a, i64 imm) {
    const u64 c = static_cast<u64>(imm);
    const u64 nlo = a.lo + c;
    const u64 nhi = a.hi + c;
    if (a.is_exact()) return exact(nlo);
    if (nlo > nhi) return top();
    return AbsVal{nlo, nhi};
  }

  /// x - y.
  static AbsVal sub(const AbsVal& a, const AbsVal& b) {
    if (a.is_exact() && b.is_exact()) return exact(a.lo - b.lo);
    if (a.lo >= b.hi) return AbsVal{a.lo - b.hi, a.hi - b.lo};
    return top();
  }

  /// x << n.
  static AbsVal shl(const AbsVal& a, unsigned n) {
    if (n >= 64) return exact(0);
    if (a.is_exact()) return exact(a.lo << n);
    if ((a.hi << n) >> n != a.hi) return top();
    return AbsVal{a.lo << n, a.hi << n};
  }

  /// x >> n (logical).
  static AbsVal shr(const AbsVal& a, unsigned n) {
    if (n >= 64) return exact(0);
    return AbsVal{a.lo >> n, a.hi >> n};
  }

  /// x & imm for non-negative masks: the result fits [0, imm].
  static AbsVal and_imm(const AbsVal& a, i64 imm) {
    if (a.is_exact()) return exact(a.lo & static_cast<u64>(imm));
    if (imm >= 0) return AbsVal{0, a.hi < static_cast<u64>(imm) ? a.hi : static_cast<u64>(imm)};
    return top();
  }

  /// 32-bit wrap + sign-extend (the addiw/*w family result shape).
  static AbsVal sext_w(const AbsVal& a) {
    if (a.is_exact()) {
      return exact(static_cast<u64>(static_cast<i64>(static_cast<i32>(a.lo))));
    }
    // A sub-[0, 2^31) interval is unchanged by the wrap; anything else Top.
    if (a.hi < (u64{1} << 31)) return a;
    return top();
  }
};

using RefIntervals = std::array<AbsVal, 32>;

void ref_interval_step(u64 pc, const isa::Inst& in, RefIntervals& regs) {
  using isa::Op;
  const auto set = [&regs](u8 rd, AbsVal v) {
    if (rd != 0) regs[rd] = v;
  };
  const AbsVal a = regs[in.rs1];
  const AbsVal b = regs[in.rs2];
  switch (in.op) {
    case Op::kLui:
      set(in.rd, AbsVal::exact(static_cast<u64>(in.imm)));
      return;
    case Op::kAuipc:
      set(in.rd, AbsVal::exact(pc + static_cast<u64>(in.imm)));
      return;
    case Op::kJal:
    case Op::kJalr:
      set(in.rd, AbsVal::exact(pc + 4));
      return;
    case Op::kAddi:
      set(in.rd, AbsVal::add_imm(a, in.imm));
      return;
    case Op::kAddiw:
      set(in.rd, AbsVal::sext_w(AbsVal::add_imm(a, in.imm)));
      return;
    case Op::kAndi:
      set(in.rd, AbsVal::and_imm(a, in.imm));
      return;
    case Op::kOri:
      set(in.rd, a.is_exact() ? AbsVal::exact(a.lo | static_cast<u64>(in.imm))
                              : AbsVal::top());
      return;
    case Op::kXori:
      set(in.rd, a.is_exact() ? AbsVal::exact(a.lo ^ static_cast<u64>(in.imm))
                              : AbsVal::top());
      return;
    case Op::kSlli:
      set(in.rd, AbsVal::shl(a, static_cast<unsigned>(in.imm)));
      return;
    case Op::kSrli:
      set(in.rd, AbsVal::shr(a, static_cast<unsigned>(in.imm)));
      return;
    case Op::kSrai:
      set(in.rd, a.is_exact()
                     ? AbsVal::exact(static_cast<u64>(static_cast<i64>(a.lo) >>
                                                      (in.imm & 63)))
                     : AbsVal::top());
      return;
    case Op::kAdd:
      set(in.rd, AbsVal::add(a, b));
      return;
    case Op::kSub:
      set(in.rd, AbsVal::sub(a, b));
      return;
    case Op::kAddw:
      set(in.rd, AbsVal::sext_w(AbsVal::add(a, b)));
      return;
    case Op::kSubw:
      set(in.rd, AbsVal::sext_w(AbsVal::sub(a, b)));
      return;
    case Op::kAnd:
      set(in.rd, b.is_exact()
                     ? AbsVal::and_imm(a, static_cast<i64>(b.lo))
                     : (a.is_exact() ? AbsVal::and_imm(b, static_cast<i64>(a.lo))
                                     : AbsVal::top()));
      return;
    case Op::kOr:
    case Op::kXor:
      set(in.rd, (a.is_exact() && b.is_exact())
                     ? AbsVal::exact(in.op == Op::kOr ? (a.lo | b.lo)
                                                      : (a.lo ^ b.lo))
                     : AbsVal::top());
      return;
    default:
      // Stores and branches write no register (rd is 0 in those formats);
      // everything else — loads (incl. ld.pt), AMOs, CSR reads, mul/div,
      // compares, word shifts — soundly degrades to Top.
      set(in.rd, AbsVal::top());
      return;
  }
}

// ---- helpers ----

/// [lo, hi] as a reduced Domain: the same set of values, with the interval's
/// common prefix recorded as known bits (the shape every analysis holds).
Domain iv(u64 lo, u64 hi) {
  Domain d = Domain::range(lo, hi);
  d.reduce();
  return d;
}

u64 sext32(u64 v) {
  return static_cast<u64>(static_cast<i64>(static_cast<i32>(v)));
}

/// A uniform member of [lo, hi].
u64 member(Rng& rng, u64 lo, u64 hi) {
  return hi - lo == ~u64{0} ? rng.next_u64() : rng.next_range(lo, hi);
}

// ---- pins carried over from the interval domain ----

TEST(Domain, Basics) {
  EXPECT_TRUE(Domain::top().is_top());
  EXPECT_TRUE(Domain::exact(42).is_singleton());
  EXPECT_EQ(Domain::exact(42).lo, 42u);
  EXPECT_FALSE(Domain::range(1, 2).is_singleton());
  EXPECT_EQ(Domain::exact(7), Domain::exact(7));
  EXPECT_NE(Domain::exact(7), Domain::exact(8));
}

TEST(Domain, Join) {
  const Domain j = Domain::exact(10).join(Domain::exact(20));
  EXPECT_EQ(j.describe(), "[0xa, 0x14]");
  EXPECT_TRUE(j.join(Domain::top()).is_top());
  EXPECT_EQ(iv(5, 8).join(iv(6, 12)).describe(), "[0x5, 0xc]");
  // Known bits survive where both sides agree: 0x10 and 0x30 are both
  // 16-aligned and below 64, so the hull keeps bits 0..3 and 6..63.
  const Domain k = Domain::exact(0x10).join(Domain::exact(0x30));
  EXPECT_EQ(k.kmask, ~u64{0x20});
  EXPECT_FALSE(k.contains(0x18));
}

TEST(Domain, RegionRelations) {
  const u64 base = 0x1000, end = 0x2000;
  EXPECT_TRUE(Domain::exact(0x1000).inside(base, end));
  EXPECT_TRUE(Domain::exact(0x1FFF).inside(base, end));
  EXPECT_TRUE(Domain::exact(0x2000).outside(base, end));
  EXPECT_TRUE(Domain::exact(0xFFF).outside(base, end));
  EXPECT_TRUE(iv(0x800, 0x1800).may_overlap(base, end));
  EXPECT_FALSE(iv(0x800, 0x1800).inside(base, end));
  EXPECT_TRUE(Domain::top().may_overlap(base, end));
  EXPECT_FALSE(Domain::top().inside(base, end));
  // The hull of 0 and 0xA000'0000 spans [0x9C00'0000, 0xA000'0000), but
  // every member has bits 26..28 clear and every address there has them set.
  const Domain two = Domain::exact(0).join(Domain::exact(0xA000'0000));
  EXPECT_TRUE(two.outside(0x9C00'0000, 0xA000'0000));
  EXPECT_TRUE(two.may_overlap(0x8000'0000, 0x8000'1000));
}

TEST(Domain, AddWrapsToTop) {
  EXPECT_EQ(add(Domain::exact(3), Domain::exact(4)), Domain::exact(7));
  // Exact values wrap like hardware.
  EXPECT_EQ(add(Domain::exact(~u64{0}), Domain::exact(2)), Domain::exact(1));
  // A sum set that wraps around 2^64 is not an interval: ⊤.
  EXPECT_TRUE(add(iv(~u64{0} - 1, ~u64{0}), iv(0, 4)).is_top());
  EXPECT_EQ(add(iv(10, 20), iv(1, 2)).describe(), "[0xb, 0x16]");
}

TEST(Domain, AddImmShiftsInterval) {
  EXPECT_EQ(add_imm(iv(0x100, 0x200), -0x10).describe(), "[0xf0, 0x1f0]");
  EXPECT_EQ(add_imm(Domain::exact(8), -16), Domain::exact(~u64{0} - 7));
  // Rotating the interval order is not representable.
  EXPECT_TRUE(add_imm(iv(0, 8), -4).is_top());
}

TEST(Domain, Sub) {
  EXPECT_EQ(sub(Domain::exact(10), Domain::exact(4)), Domain::exact(6));
  EXPECT_EQ(sub(iv(100, 200), iv(10, 20)).describe(), "[0x50, 0xbe]");
  EXPECT_TRUE(sub(iv(0, 10), iv(5, 6)).is_top());
}

TEST(Domain, Shifts) {
  EXPECT_EQ(shl(iv(1, 4), 3).describe(), "[0x8, 0x20]");
  EXPECT_TRUE(shl(iv(0, u64{1} << 62), 3).is_top());
  EXPECT_EQ(shl(Domain::exact(1), 63), Domain::exact(u64{1} << 63));
  EXPECT_EQ(srl(iv(8, 32), 3).describe(), "[0x1, 0x4]");
  EXPECT_EQ(srl(Domain::top(), 63).describe(), "[0x0, 0x1]");
}

TEST(Domain, AndMask) {
  EXPECT_EQ(bit_and(Domain::top(), Domain::exact(0xFF)).describe(),
            "[0x0, 0xff]");
  EXPECT_EQ(bit_and(iv(0, 7), Domain::exact(0xFF)).describe(), "[0x0, 0x7]");
  EXPECT_EQ(bit_and(Domain::exact(0x1234), Domain::exact(0xFF)),
            Domain::exact(0x34));
  // The interval domain gave up on a negative mask; the known bits see that
  // [1, 2] & ~7 clears every bit the interval could set.
  EXPECT_EQ(bit_and(iv(1, 2), Domain::exact(~u64{7})), Domain::exact(0));
}

TEST(Domain, SextW) {
  EXPECT_EQ(sext_w(Domain::exact(0xFFFF'FFFF)), Domain::exact(~u64{0}));
  EXPECT_EQ(sext_w(Domain::exact(0x1'0000'0001)), Domain::exact(1));
  const Domain small = iv(0x100, 0x7FFF'0000);
  EXPECT_EQ(sext_w(small).describe(), small.describe());
  EXPECT_TRUE(sext_w(iv(0, u64{1} << 31)).is_top());
  // Monotone inside one 2^31 half: negative 32-bit values map to the top
  // of the 64-bit space in order.
  EXPECT_EQ(sext_w(iv(0xFFFF'FFF0, 0xFFFF'FFFF)).describe(),
            "[0xfffffffffffffff0, 0xffffffffffffffff]");
}

TEST(Domain, SignedOverflowWrapsToTop) {
  // Exact values wrap like hardware even across the signed boundary.
  EXPECT_EQ(add(Domain::exact(0x7FFF'FFFF'FFFF'FFFF), Domain::exact(1)),
            Domain::exact(u64{1} << 63));
  EXPECT_EQ(add_imm(Domain::exact(u64{1} << 63), -1),
            Domain::exact(0x7FFF'FFFF'FFFF'FFFF));
  // An interval whose bounds BOTH wrap by the same constant keeps its width
  // and stays representable...
  EXPECT_EQ(add_imm(iv(~u64{0} - 4, ~u64{0}), 8).describe(), "[0x3, 0x7]");
  // ...but a partial wrap would rotate lo past hi, which the unsigned
  // interval cannot express: it must collapse to ⊤, never invert.
  EXPECT_TRUE(add_imm(iv(~u64{0} - 4, ~u64{0}), 2).is_top());
  // Interval + exact whose sum wraps as a whole stays an interval (the
  // interval domain collapsed any wrapping upper bound to Top).
  EXPECT_EQ(add(iv(~u64{0} - 1, ~u64{0}), Domain::exact(2)).describe(),
            "[0x0, 0x1]");
  // Shifting the sign bit out loses information the interval can't keep.
  EXPECT_TRUE(shl(iv(1, u64{1} << 62), 2).is_top());
}

TEST(Domain, Describe) {
  EXPECT_EQ(Domain::top().describe(), "[top]");
  EXPECT_EQ(Domain::exact(0x1F).describe(), "0x1f");
  EXPECT_EQ(Domain::range(0x10, 0x20).describe(), "[0x10, 0x20]");
}

TEST(Domain, AlignmentAloneIsStillTop) {
  // A scaled unknown index plus a base is 8-aligned and nothing more: the
  // region checks must treat it as unconstrained, not as a bounded range
  // that happens to overlap everything.
  const Domain idx = shl(Domain::top(), 3);
  const Domain ptr = add(Domain::exact(0x100000), idx);
  EXPECT_EQ(ptr.kmask, u64{7});
  EXPECT_TRUE(ptr.is_top());
  EXPECT_EQ(ptr.describe(), "[top]");
  // Knowing the sign bit is a real bound.
  EXPECT_FALSE(srl(idx, 1).is_top());
}

// ---- differential: interval_step vs the interval domain ----

/// Interesting 64-bit points: small values, kernel-ish addresses, the 2^31,
/// 2^32, 2^63 and 2^64 boundaries, and uniform noise.
u64 pick_point(Rng& rng) {
  const u64 jitter = rng.next_below(64);
  switch (rng.next_below(8)) {
    case 0: return rng.next_below(4096);
    case 1: return 0x8000'0000 + rng.next_below(u64{1} << 28);
    case 2: return (u64{1} << 31) - 32 + jitter;
    case 3: return (u64{1} << 32) - 32 + jitter;
    case 4: return (u64{1} << 63) - 32 + jitter;
    case 5: return ~u64{0} - jitter;
    case 6: return rng.next_u64() & ~u64{7};
    default: return rng.next_u64();
  }
}

/// A source register state: exact, narrow, wide, straddling or ⊤.
AbsVal pick_interval(Rng& rng) {
  if (rng.chance(0.1)) return AbsVal::top();
  const u64 lo = pick_point(rng);
  u64 width = 0;
  switch (rng.next_below(5)) {
    case 0: width = 0; break;
    case 1: width = rng.next_below(64); break;
    case 2: width = rng.next_below(u64{1} << 20); break;
    case 3: width = rng.next_below(u64{1} << 62); break;
    default: width = rng.next_u64(); break;
  }
  const u64 hi = lo + width < lo ? ~u64{0} : lo + width;
  return AbsVal::range(lo, hi);
}

/// The hardware result of one instruction interval_step models.
u64 concrete(u64 pc, const isa::Inst& in, u64 a, u64 b) {
  using isa::Op;
  const u64 imm = static_cast<u64>(in.imm);
  const unsigned sh = static_cast<unsigned>(in.imm) & 63;
  switch (in.op) {
    case Op::kLui: return imm;
    case Op::kAuipc: return pc + imm;
    case Op::kJal:
    case Op::kJalr: return pc + 4;
    case Op::kAddi: return a + imm;
    case Op::kAddiw: return sext32(a + imm);
    case Op::kAndi: return a & imm;
    case Op::kOri: return a | imm;
    case Op::kXori: return a ^ imm;
    case Op::kSlli: return a << sh;
    case Op::kSrli: return a >> sh;
    case Op::kSrai: return static_cast<u64>(static_cast<i64>(a) >> sh);
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kAddw: return sext32(a + b);
    case Op::kSubw: return sext32(a - b);
    case Op::kAnd: return a & b;
    case Op::kOr: return a | b;
    case Op::kXor: return a ^ b;
    default: return 0;  // Unmodelled: both domains say ⊤.
  }
}

TEST(DomainDiff, IntervalStepNeverLosesPrecisionAndStaysSound) {
  using isa::Op;
  struct Shape {
    Op op;
    enum { kImm12, kShamt, kUpper, kNone } imm;
  };
  const std::array<Shape, 20> shapes = {{
      {Op::kLui, Shape::kUpper},  {Op::kAuipc, Shape::kUpper},
      {Op::kJal, Shape::kImm12},  {Op::kJalr, Shape::kImm12},
      {Op::kAddi, Shape::kImm12}, {Op::kAddiw, Shape::kImm12},
      {Op::kAndi, Shape::kImm12}, {Op::kOri, Shape::kImm12},
      {Op::kXori, Shape::kImm12}, {Op::kSlli, Shape::kShamt},
      {Op::kSrli, Shape::kShamt}, {Op::kSrai, Shape::kShamt},
      {Op::kAdd, Shape::kNone},   {Op::kSub, Shape::kNone},
      {Op::kAddw, Shape::kNone},  {Op::kSubw, Shape::kNone},
      {Op::kAnd, Shape::kNone},   {Op::kOr, Shape::kNone},
      {Op::kXor, Shape::kNone},   {Op::kLd, Shape::kImm12},
  }};

  Rng rng(0xD0'4A1Eull);
  constexpr int kPairs = 20000;
  constexpr int kSamples = 8;
  int tighter = 0;
  for (int t = 0; t < kPairs; ++t) {
    const Shape& shape = shapes[t % shapes.size()];
    isa::Inst in;
    in.op = shape.op;
    in.rd = static_cast<u8>(1 + rng.next_below(31));
    in.rs1 = static_cast<u8>(rng.next_below(32));
    in.rs2 = static_cast<u8>(rng.chance(0.2) ? in.rs1 : rng.next_below(32));
    switch (shape.imm) {
      case Shape::kImm12:
        in.imm = static_cast<i64>(rng.next_below(4096)) - 2048;
        break;
      case Shape::kShamt:
        in.imm = static_cast<i64>(rng.next_below(64));
        break;
      case Shape::kUpper:  // lui/auipc: a sign-extended 20-bit upper field.
        in.imm = static_cast<i32>(static_cast<u32>(rng.next_u64()) & ~0xFFFu);
        break;
      case Shape::kNone: break;
    }
    const u64 pc = 0x8000'0000 + 4 * rng.next_below(u64{1} << 20);

    RefIntervals ref;
    ref.fill(AbsVal::top());
    ref[0] = AbsVal::exact(0);
    RegIntervals regs = entry_intervals();
    for (const u8 r : {in.rs1, in.rs2}) {
      if (r == 0) continue;
      ref[r] = pick_interval(rng);
      regs[r] = iv(ref[r].lo, ref[r].hi);
    }
    const AbsVal a = ref[in.rs1], b = ref[in.rs2];

    ref_interval_step(pc, in, ref);
    interval_step(pc, in, regs);
    const AbsVal& want = ref[in.rd];
    const Domain& got = regs[in.rd];
    std::ostringstream os;
    os << "op " << static_cast<int>(in.op) << " imm " << in.imm << std::hex
       << " a [" << a.lo << ", " << a.hi << "] b [" << b.lo << ", " << b.hi
       << "] want [" << want.lo << ", " << want.hi << "] got "
       << got.describe();
    const std::string what = os.str();
    ASSERT_FALSE(got.bottom) << what;
    ASSERT_GE(got.lo, want.lo) << what;
    ASSERT_LE(got.hi, want.hi) << what;
    tighter += got.hi - got.lo < want.hi - want.lo ? 1 : 0;

    for (int s = 0; s < kSamples; ++s) {
      const u64 va = s == 0 ? a.lo : s == 1 ? a.hi : member(rng, a.lo, a.hi);
      const u64 vb = s == 0 ? b.lo : s == 1 ? b.hi : member(rng, b.lo, b.hi);
      const u64 v = concrete(pc, in, va, vb);
      if (in.op == Op::kLd) continue;
      ASSERT_TRUE(got.contains(v)) << what << " misses " << v;
    }
  }
  // The known bits must actually buy something on this mix.
  EXPECT_GT(tighter, kPairs / 20) << tighter;
}

// ---- soundness of every transfer on domains carrying known bits ----

/// A reduced domain: a random interval plus sparse known bits taken from
/// one of its members (so it is never bottom).
Domain pick_domain(Rng& rng) {
  const AbsVal i = pick_interval(rng);
  Domain d = Domain::range(i.lo, i.hi);
  d.meet_known(rng.next_u64() & rng.next_u64() & rng.next_u64(),
               member(rng, i.lo, i.hi));
  d.reduce();
  return d;
}

/// A member of a non-bottom domain: an interval member with the known bits
/// forced, retried until it lands inside.
bool pick_member(Rng& rng, const Domain& d, u64& v) {
  for (int tries = 0; tries < 16; ++tries) {
    v = tries == 0 ? d.lo : (member(rng, d.lo, d.hi) & ~d.kmask) | d.kval;
    if (d.contains(v)) return true;
  }
  return false;
}

TEST(DomainDiff, EveryTransferIsSoundWithKnownBits) {
  using Binary = std::function<Domain(const Domain&, const Domain&)>;
  using Concrete = std::function<u64(u64, u64)>;
  const std::array<std::pair<Binary, Concrete>, 14> ops = {{
      {add, [](u64 x, u64 y) { return x + y; }},
      {sub, [](u64 x, u64 y) { return x - y; }},
      {mul, [](u64 x, u64 y) { return x * y; }},
      {bit_and, [](u64 x, u64 y) { return x & y; }},
      {bit_or, [](u64 x, u64 y) { return x | y; }},
      {bit_xor, [](u64 x, u64 y) { return x ^ y; }},
      {cmp_eq, [](u64 x, u64 y) { return u64{x == y}; }},
      {cmp_ne, [](u64 x, u64 y) { return u64{x != y}; }},
      {cmp_ltu, [](u64 x, u64 y) { return u64{x < y}; }},
      {cmp_lts,
       [](u64 x, u64 y) {
         return u64{static_cast<i64>(x) < static_cast<i64>(y)};
       }},
      {[](const Domain& x, const Domain& y) { return shl(x, y.lo & 63); },
       [](u64 x, u64 y) { return x << (y & 63); }},
      {[](const Domain& x, const Domain& y) { return srl(x, y.lo & 63); },
       [](u64 x, u64 y) { return x >> (y & 63); }},
      {[](const Domain& x, const Domain& y) { return sra(x, y.lo & 63); },
       [](u64 x, u64 y) {
         return static_cast<u64>(static_cast<i64>(x) >> (y & 63));
       }},
      {[](const Domain& x, const Domain&) { return sext_w(x); },
       [](u64 x, u64) { return sext32(x); }},
  }};
  Rng rng(0x5EED'B175ull);
  for (int t = 0; t < 14000; ++t) {
    const auto& [abstract, hardware] = ops[t % ops.size()];
    const Domain a = pick_domain(rng);
    // The shifts and sext.w (from index 10) take a pinned amount. Otherwise
    // b is often a itself or one of a's bounds, where compares tie.
    Domain b = pick_domain(rng);
    if (t % ops.size() >= 10) {
      b = Domain::exact(rng.next_below(64));
    } else if (rng.chance(0.25)) {
      b = a;
    } else if (rng.chance(0.33)) {
      b = Domain::exact(rng.chance(0.5) ? a.lo : a.hi);
    }
    const Domain r = abstract(a, b);
    for (int s = 0; s < 8; ++s) {
      u64 x = 0, y = 0;
      if (!pick_member(rng, a, x) || !pick_member(rng, b, y)) continue;
      const u64 v = hardware(x, y);
      ASSERT_TRUE(r.contains(v))
          << "op " << t % ops.size() << ": " << std::hex << x << " , " << y
          << " -> " << v << " not in " << r.describe() << " kmask " << r.kmask
          << " kval " << r.kval;
    }
  }
}

}  // namespace
}  // namespace ptstore::analysis
