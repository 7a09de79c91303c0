// Differential test of PmpUnit's memoised check() against the plain priority
// scan it replaces. The reference below is the scan-every-entry algorithm
// (entry_range, any_active, is_secure, check) copied verbatim, reading the
// unit only through its CSR accessors. Seeded random configurations mix
// TOR/NA4/NAPOT entries, sub-page and overlapping entries, locked entries and
// S-bit regions; the access stream clusters around entry and page edges so
// straddles are common, and cfg/addr writes and secure-enforcement toggles
// land between checks. Every PmpDecision must match field for field.
#include <gtest/gtest.h>

#include <bit>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "pmp/pmp.h"

namespace ptstore {
namespace {

// ---- Reference: the pre-memo algorithm, verbatim over public accessors ----

PmpMatch ref_match_mode(const PmpUnit& u, unsigned idx) {
  return static_cast<PmpMatch>((u.cfg(idx) & pmpcfg::kAMask) >> pmpcfg::kAShift);
}

std::optional<std::pair<PhysAddr, PhysAddr>> ref_entry_range(const PmpUnit& u,
                                                             unsigned idx) {
  if (idx >= kPmpEntryCount) return std::nullopt;
  switch (ref_match_mode(u, idx)) {
    case PmpMatch::kOff:
      return std::nullopt;
    case PmpMatch::kTor: {
      const PhysAddr lo = idx == 0 ? 0 : (u.addr(idx - 1) << 2);
      const PhysAddr hi = u.addr(idx) << 2;
      if (hi <= lo) return std::nullopt;
      return std::make_pair(lo, hi);
    }
    case PmpMatch::kNa4: {
      const PhysAddr lo = u.addr(idx) << 2;
      return std::make_pair(lo, lo + 4);
    }
    case PmpMatch::kNapot: {
      // pmpaddr = (base >> 2) | ((size/8) - 1); trailing ones give the size.
      const u64 a = u.addr(idx);
      const unsigned ones = static_cast<unsigned>(std::countr_one(a));
      const u64 size = u64{1} << (ones + 3);
      const PhysAddr lo = (a & ~mask_lo(ones)) << 2;
      return std::make_pair(lo, lo + size);
    }
  }
  return std::nullopt;
}

bool ref_any_active(const PmpUnit& u) {
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    if (ref_match_mode(u, i) != PmpMatch::kOff) return true;
  }
  return false;
}

bool ref_is_secure(const PmpUnit& u, PhysAddr pa, u64 size) {
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    if (!(u.cfg(i) & pmpcfg::kS)) continue;
    const auto r = ref_entry_range(u, i);
    if (r && range_contains(r->first, r->second - r->first, pa, size)) return true;
  }
  return false;
}

PmpDecision ref_check(const PmpUnit& u, PhysAddr pa, u64 size, AccessType type,
                      AccessKind kind, Privilege priv) {
  const bool secure_enforcement_ = u.secure_enforcement();
  // Find the highest-priority (lowest-index) entry that matches any byte.
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    const auto r = ref_entry_range(u, i);
    if (!r) continue;
    const u64 rsize = r->second - r->first;
    if (!ranges_overlap(r->first, rsize, pa, size)) continue;
    if (!range_contains(r->first, rsize, pa, size)) {
      // Straddling the matching entry fails regardless of permissions.
      return {false, PmpDenyReason::kPartialMatch, static_cast<int>(i)};
    }

    const u8 c = u.cfg(i);
    const bool secure = (c & pmpcfg::kS) != 0;
    const bool locked = (c & pmpcfg::kL) != 0;

    // PTStore secure-region semantics first: they override the base R/W/X
    // rules and apply to S/U modes (M-mode is the trusted monitor; its
    // regular accesses honour the L bit as in the base spec).
    if (secure_enforcement_ && (priv != Privilege::kMachine || locked)) {
      if (secure && kind == AccessKind::kRegular) {
        return {false, PmpDenyReason::kSecureRegular, static_cast<int>(i)};
      }
      if (!secure && kind == AccessKind::kPtInsn) {
        return {false, PmpDenyReason::kPtInsnOutsideSecure, static_cast<int>(i)};
      }
    }

    // Base PMP permission check. M-mode skips it unless the entry is locked.
    if (priv == Privilege::kMachine && !locked) {
      return {true, PmpDenyReason::kNone, static_cast<int>(i)};
    }
    const bool ok = (type == AccessType::kRead && (c & pmpcfg::kR)) ||
                    (type == AccessType::kWrite && (c & pmpcfg::kW)) ||
                    (type == AccessType::kExecute && (c & pmpcfg::kX));
    if (!ok) return {false, PmpDenyReason::kPermission, static_cast<int>(i)};
    return {true, PmpDenyReason::kNone, static_cast<int>(i)};
  }

  // No entry matched.
  if (priv == Privilege::kMachine) return {true, PmpDenyReason::kNone, -1};
  if (!ref_any_active(u)) return {true, PmpDenyReason::kNone, -1};
  // ld.pt/sd.pt may only touch the secure region, which is by definition
  // covered by an S=1 entry; missing everything is a fault for them too.
  if (secure_enforcement_ && kind == AccessKind::kPtInsn) {
    return {false, PmpDenyReason::kPtInsnOutsideSecure, -1};
  }
  return {false, PmpDenyReason::kNoMatch, -1};
}

// ---- Random configurations and access streams ----

constexpr PhysAddr kWindow = 0x8000'0000;   // Entries cluster here ...
constexpr u64 kWindowSize = 4 * kPageSize;  // ... across four pages.

/// A random pmpaddr value for `mode`: TOR tops and NA4 words anywhere in or
/// near the window (often page aligned), NAPOT blocks of 8 B to 32 KiB.
u64 random_pmpaddr(Rng& rng, PmpMatch mode) {
  const PhysAddr lo = kWindow - kPageSize;
  const u64 span = kWindowSize + 2 * kPageSize;
  if (mode == PmpMatch::kNapot) {
    const unsigned log2 = 3 + static_cast<unsigned>(rng.next_below(13));
    const PhysAddr base = align_down(lo + rng.next_below(span), u64{1} << log2);
    return (base >> 2) | mask_lo(log2 - 3);
  }
  if (rng.next_below(4) == 0) return (lo + kPageSize * rng.next_below(7)) >> 2;
  if (rng.next_below(16) == 0) return (kWindow + GiB(1)) >> 2;  // Covers all.
  return (lo + rng.next_below(span)) >> 2;
}

u8 random_cfg(Rng& rng) {
  static constexpr PmpMatch kModes[] = {PmpMatch::kOff, PmpMatch::kTor,
                                        PmpMatch::kTor, PmpMatch::kNa4,
                                        PmpMatch::kNapot, PmpMatch::kNapot};
  const PmpMatch mode = kModes[rng.next_below(std::size(kModes))];
  u8 c = static_cast<u8>(static_cast<u8>(mode) << pmpcfg::kAShift);
  c |= static_cast<u8>(rng.next_below(8));  // R/W/X
  if (rng.next_below(4) == 0) c |= pmpcfg::kS;
  if (rng.next_below(12) == 0) c |= pmpcfg::kL;
  return c;
}

/// One register write: a cfg byte, or a pmpaddr shaped for a random mode,
/// possibly to a locked entry (which ignores it).
void random_write(Rng& rng, PmpUnit& pmp) {
  const unsigned idx = static_cast<unsigned>(rng.next_below(kPmpEntryCount));
  if (rng.next_below(2) == 0) {
    pmp.set_cfg(idx, random_cfg(rng));
  } else {
    const auto mode = static_cast<PmpMatch>((random_cfg(rng) & pmpcfg::kAMask) >>
                                            pmpcfg::kAShift);
    pmp.set_addr(idx, random_pmpaddr(rng, mode));
  }
}

/// Interesting addresses: every entry edge and every page edge in the window.
std::vector<PhysAddr> edges(const PmpUnit& pmp) {
  std::vector<PhysAddr> out;
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    if (const auto r = ref_entry_range(pmp, i)) {
      out.push_back(r->first);
      out.push_back(r->second);
    }
  }
  for (PhysAddr p = kWindow - kPageSize; p <= kWindow + kWindowSize + kPageSize;
       p += kPageSize) {
    out.push_back(p);
  }
  return out;
}

PhysAddr random_pa(Rng& rng, const std::vector<PhysAddr>& near) {
  switch (rng.next_below(8)) {
    case 0:
      return kWindow - kPageSize + rng.next_below(kWindowSize + 2 * kPageSize);
    case 1:
      return ~PhysAddr{0} - rng.next_below(16);  // Wrapping accesses.
    default: {
      // Within a few bytes of an edge: straddles and just-inside accesses.
      const PhysAddr e = near[rng.next_below(near.size())];
      return e - 12 + rng.next_below(24);
    }
  }
}

u64 random_size(Rng& rng) {
  static constexpr u64 kSizes[] = {1, 2, 4, 8, 8, 8, 2, 4, 16, 0, 4096};
  return kSizes[rng.next_below(std::size(kSizes))];
}

constexpr int kConfigs = 10'000;
constexpr int kChecksPerConfig = 96;

TEST(PmpDiff, MemoisedCheckMatchesReferenceScan) {
  static constexpr AccessType kTypes[] = {AccessType::kRead, AccessType::kWrite,
                                          AccessType::kExecute};
  static constexpr AccessKind kKinds[] = {AccessKind::kRegular,
                                          AccessKind::kPtInsn, AccessKind::kPtw};
  static constexpr Privilege kPrivs[] = {Privilege::kUser, Privilege::kSupervisor,
                                         Privilege::kMachine};
  Rng rng(0x504d50'd1ff);
  u64 checks = 0, denied = 0, partial = 0, matched = 0;
  for (int cfg_no = 0; cfg_no < kConfigs; ++cfg_no) {
    PmpUnit pmp;
    // Addresses before cfgs, as the SBI programs them; a locked cfg then
    // freezes its entry (and the TOR base below it) against later writes.
    const unsigned active = 1 + static_cast<unsigned>(rng.next_below(kPmpEntryCount));
    for (unsigned i = 0; i < active; ++i) {
      const u8 c = random_cfg(rng);
      pmp.set_addr(i, random_pmpaddr(rng, static_cast<PmpMatch>(
                                              (c & pmpcfg::kAMask) >> pmpcfg::kAShift)));
      pmp.set_cfg(i, c);
    }
    if (rng.next_below(4) == 0) pmp.set_secure_enforcement(false);

    std::vector<PhysAddr> near = edges(pmp);
    for (int k = 0; k < kChecksPerConfig; ++k) {
      if (rng.next_below(24) == 0) {
        if (rng.next_below(4) == 0) {
          pmp.set_secure_enforcement(!pmp.secure_enforcement());
        } else {
          random_write(rng, pmp);
          near = edges(pmp);
        }
      }
      // Bursts around one address exercise the memo: same run, mixed
      // type/kind/priv, like a store and a load to one page.
      const PhysAddr base = random_pa(rng, near);
      const int burst = 1 + static_cast<int>(rng.next_below(4));
      for (int b = 0; b < burst; ++b) {
        const PhysAddr pa = base + rng.next_below(64);
        const u64 size = random_size(rng);
        const AccessType type = kTypes[rng.next_below(3)];
        const AccessKind kind = kKinds[rng.next_below(3)];
        const Privilege priv = kPrivs[rng.next_below(3)];
        const PmpDecision want = ref_check(pmp, pa, size, type, kind, priv);
        const PmpDecision got = pmp.check(pa, size, type, kind, priv);
        ASSERT_TRUE(got.allowed == want.allowed && got.reason == want.reason &&
                    got.entry == want.entry)
            << "config " << cfg_no << " check " << k << ": pa=0x" << std::hex
            << pa << " size=" << std::dec << size << " type="
            << static_cast<int>(type) << " kind=" << static_cast<int>(kind)
            << " priv=" << static_cast<int>(priv) << "\n  got {" << got.allowed
            << ", " << static_cast<int>(got.reason) << ", " << got.entry
            << "} want {" << want.allowed << ", " << static_cast<int>(want.reason)
            << ", " << want.entry << "}\n"
            << pmp.describe();
        ASSERT_EQ(pmp.is_secure(pa, size), ref_is_secure(pmp, pa, size))
            << "config " << cfg_no << ": pa=0x" << std::hex << pa;
        ++checks;
        denied += want.allowed ? 0 : 1;
        partial += want.reason == PmpDenyReason::kPartialMatch ? 1 : 0;
        matched += want.entry >= 0 ? 1 : 0;
      }
      ASSERT_EQ(pmp.any_active(), ref_any_active(pmp));
    }
  }
  // The stream must actually reach every outcome class, not just one.
  EXPECT_GT(checks, u64{1'000'000});
  EXPECT_GT(partial, checks / 50);
  EXPECT_GT(denied, checks / 10);
  EXPECT_GT(matched, checks / 2);
  EXPECT_GT(checks - matched, checks / 20);
}

}  // namespace
}  // namespace ptstore
