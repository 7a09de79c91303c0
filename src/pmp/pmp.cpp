#include "pmp/pmp.h"

#include <algorithm>
#include <sstream>

#include "common/bits.h"

namespace ptstore {

void PmpUnit::set_cfg(unsigned idx, u8 cfg) {
  ++write_gen_;
  if (idx >= kPmpEntryCount) return;
  if (cfg_[idx] & pmpcfg::kL) return;  // Locked entries ignore writes.
  cfg_[idx] = cfg;
}

void PmpUnit::set_addr(unsigned idx, u64 pmpaddr) {
  ++write_gen_;
  if (idx >= kPmpEntryCount) return;
  if (cfg_[idx] & pmpcfg::kL) return;
  // A locked TOR entry also locks the address register below it.
  if (idx + 1 < kPmpEntryCount && (cfg_[idx + 1] & pmpcfg::kL) &&
      match_mode(idx + 1) == PmpMatch::kTor) {
    return;
  }
  addr_[idx] = pmpaddr & mask_lo(54);  // bits [55:2]
}

std::optional<std::pair<PhysAddr, PhysAddr>> PmpUnit::entry_range(unsigned idx) const {
  if (idx >= kPmpEntryCount) return std::nullopt;
  switch (match_mode(idx)) {
    case PmpMatch::kOff:
      return std::nullopt;
    case PmpMatch::kTor: {
      const PhysAddr lo = idx == 0 ? 0 : (addr_[idx - 1] << 2);
      const PhysAddr hi = addr_[idx] << 2;
      if (hi <= lo) return std::nullopt;
      return std::make_pair(lo, hi);
    }
    case PmpMatch::kNa4: {
      const PhysAddr lo = addr_[idx] << 2;
      return std::make_pair(lo, lo + 4);
    }
    case PmpMatch::kNapot: {
      // pmpaddr = (base >> 2) | ((size/8) - 1); trailing ones give the size.
      const u64 a = addr_[idx];
      const unsigned ones = static_cast<unsigned>(std::countr_one(a));
      const u64 size = u64{1} << (ones + 3);
      const PhysAddr lo = (a & ~mask_lo(ones)) << 2;
      return std::make_pair(lo, lo + size);
    }
  }
  return std::nullopt;
}

bool PmpUnit::any_active() const {
  refresh();
  return any_active_;
}

void PmpUnit::redecode() const {
  active_mask_ = 0;
  any_active_ = false;
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    any_active_ = any_active_ || match_mode(i) != PmpMatch::kOff;
    const auto r = entry_range(i);
    lo_[i] = r ? r->first : 0;
    hi_[i] = r ? r->second : 0;
    if (r) active_mask_ |= static_cast<u16>(1u << i);
  }
  memo_.fill(MatchMemo{});
  decoded_gen_ = write_gen_;
}

bool PmpUnit::is_secure(PhysAddr pa, u64 size) const {
  refresh();
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    if (!(cfg_[i] & pmpcfg::kS) || !((active_mask_ >> i) & 1)) continue;
    if (range_contains(lo_[i], hi_[i] - lo_[i], pa, size)) return true;
  }
  return false;
}

void PmpUnit::remember(int entry, PhysAddr pa, u64 size) const {
  // Zero-sized and wrapping accesses keep the scan's edge cases to the scan.
  if (size == 0 || pa + size < pa) return;
  // Every higher-priority entry lies wholly below or wholly above the
  // access (the scan found it overlaps none), so clip the run to the gap
  // between them.
  PhysAddr lo = entry < 0 ? 0 : lo_[entry];
  PhysAddr hi = entry < 0 ? ~PhysAddr{0} : hi_[entry];
  const unsigned higher = entry < 0 ? kPmpEntryCount : static_cast<unsigned>(entry);
  for (unsigned j = 0; j < higher; ++j) {
    if (!((active_mask_ >> j) & 1)) continue;
    if (hi_[j] <= pa) {
      lo = std::max(lo, hi_[j]);
    } else {
      hi = std::min(hi, lo_[j]);
    }
  }
  memo_[memo_next_] = MatchMemo{lo, hi, entry};
  memo_next_ = (memo_next_ + 1) % kMemoSlots;
}

PmpDecision PmpUnit::check(PhysAddr pa, u64 size, AccessType type, AccessKind kind,
                           Privilege priv) const {
  refresh();
  // An access inside a memoised uniform run matches that run's entry: the
  // scan below would find the same one. The verdict is recomputed, so
  // accesses of any type, kind and privilege share the memo.
  if (size != 0) {
    for (const MatchMemo& m : memo_) {
      if (pa >= m.lo && pa < m.hi && size <= m.hi - pa) {
        return decide(m.entry, type, kind, priv);
      }
    }
  }

  // Find the highest-priority (lowest-index) entry that matches any byte.
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    if (!((active_mask_ >> i) & 1)) continue;
    const u64 rsize = hi_[i] - lo_[i];
    if (!ranges_overlap(lo_[i], rsize, pa, size)) continue;
    if (!range_contains(lo_[i], rsize, pa, size)) {
      // Straddling the matching entry fails regardless of permissions.
      return {false, PmpDenyReason::kPartialMatch, static_cast<int>(i)};
    }
    remember(static_cast<int>(i), pa, size);
    return decide(static_cast<int>(i), type, kind, priv);
  }
  remember(-1, pa, size);
  return decide(-1, type, kind, priv);
}

PmpDecision PmpUnit::decide(int entry, AccessType type, AccessKind kind,
                            Privilege priv) const {
  if (entry < 0) {
    // No entry matched.
    if (priv == Privilege::kMachine) return {true, PmpDenyReason::kNone, -1};
    if (!any_active_) return {true, PmpDenyReason::kNone, -1};
    // ld.pt/sd.pt may only touch the secure region, which is by definition
    // covered by an S=1 entry; missing everything is a fault for them too.
    if (secure_enforcement_ && kind == AccessKind::kPtInsn) {
      return {false, PmpDenyReason::kPtInsnOutsideSecure, -1};
    }
    return {false, PmpDenyReason::kNoMatch, -1};
  }

  const u8 c = cfg_[static_cast<unsigned>(entry)];
  const bool secure = (c & pmpcfg::kS) != 0;
  const bool locked = (c & pmpcfg::kL) != 0;

  // PTStore secure-region semantics first: they override the base R/W/X
  // rules and apply to S/U modes (M-mode is the trusted monitor; its
  // regular accesses honour the L bit as in the base spec).
  if (secure_enforcement_ && (priv != Privilege::kMachine || locked)) {
    if (secure && kind == AccessKind::kRegular) {
      return {false, PmpDenyReason::kSecureRegular, entry};
    }
    if (!secure && kind == AccessKind::kPtInsn) {
      return {false, PmpDenyReason::kPtInsnOutsideSecure, entry};
    }
  }

  // Base PMP permission check. M-mode skips it unless the entry is locked.
  if (priv == Privilege::kMachine && !locked) {
    return {true, PmpDenyReason::kNone, entry};
  }
  const bool ok = (type == AccessType::kRead && (c & pmpcfg::kR)) ||
                  (type == AccessType::kWrite && (c & pmpcfg::kW)) ||
                  (type == AccessType::kExecute && (c & pmpcfg::kX));
  if (!ok) return {false, PmpDenyReason::kPermission, entry};
  return {true, PmpDenyReason::kNone, entry};
}

std::string PmpUnit::describe() const {
  std::ostringstream os;
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    const auto r = entry_range(i);
    if (!r) continue;
    const u8 c = cfg_[i];
    os << "pmp" << i << ": [0x" << std::hex << r->first << ", 0x" << r->second
       << ") " << ((c & pmpcfg::kR) ? "R" : "-") << ((c & pmpcfg::kW) ? "W" : "-")
       << ((c & pmpcfg::kX) ? "X" : "-") << ((c & pmpcfg::kS) ? "S" : "-")
       << ((c & pmpcfg::kL) ? "L" : "-") << std::dec << "\n";
  }
  return os.str();
}

}  // namespace ptstore
