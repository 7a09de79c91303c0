// RISC-V Physical Memory Protection unit with PTStore's secure-region
// extension.
//
// Standard PMP (priv. spec v1.11): 16 entries, each a cfg byte
// {R,W,X,A[1:0],L} plus a pmpaddr register. PTStore adds a new S ("secure")
// bit at cfg bit 5 (reserved in the base spec). Semantics added by PTStore:
//
//   * An access matching an S=1 entry is allowed only when issued by the
//     ld.pt/sd.pt instructions (AccessKind::kPtInsn) or by the page-table
//     walker (AccessKind::kPtw). Regular instructions take an access fault.
//   * ld.pt/sd.pt accesses that do NOT land in an S=1 entry take an access
//     fault: the new instructions may access *only* the secure region.
//   * The PTW-side "must fetch PTEs from the secure region" rule is gated by
//     satp.S and enforced by the MMU using is_secure() below.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "common/types.h"

namespace ptstore {

inline constexpr unsigned kPmpEntryCount = 16;

/// pmpcfg bit positions.
namespace pmpcfg {
inline constexpr u8 kR = 1u << 0;
inline constexpr u8 kW = 1u << 1;
inline constexpr u8 kX = 1u << 2;
inline constexpr u8 kAShift = 3;  // A field: bits [4:3]
inline constexpr u8 kAMask = 0b11u << kAShift;
inline constexpr u8 kS = 1u << 5;  // PTStore secure bit (reserved in base spec)
inline constexpr u8 kL = 1u << 7;
}  // namespace pmpcfg

/// PMP address-matching modes (A field).
enum class PmpMatch : u8 {
  kOff = 0,
  kTor = 1,
  kNa4 = 2,
  kNapot = 3,
};

/// Why a PMP check failed (for diagnostics and tests).
enum class PmpDenyReason : u8 {
  kNone = 0,
  kNoMatch,             ///< S/U access matched no active entry.
  kPermission,          ///< Matched entry lacks R/W/X permission.
  kSecureRegular,       ///< Regular instruction touched an S=1 region (paper ②).
  kPtInsnOutsideSecure, ///< ld.pt/sd.pt touched a non-secure region.
  kPartialMatch,        ///< Access straddles an entry boundary.
};

struct PmpDecision {
  bool allowed = false;
  PmpDenyReason reason = PmpDenyReason::kNone;
  int entry = -1;  ///< Matching entry index, -1 if none.
};

class PmpUnit {
 public:
  PmpUnit() = default;

  /// CSR-style accessors. `idx` is the entry number (0..15). Locked entries
  /// ignore writes (as in hardware).
  void set_cfg(unsigned idx, u8 cfg);
  u8 cfg(unsigned idx) const { return cfg_.at(idx); }
  /// pmpaddr registers hold address bits [55:2] (i.e. addr >> 2).
  void set_addr(unsigned idx, u64 pmpaddr);
  u64 addr(unsigned idx) const { return addr_.at(idx); }

  /// Full check of an access [pa, pa+size) issued at privilege `priv` by
  /// agent `kind` with intent `type`. Memoised (see the private section):
  /// the decision is always the one the priority scan over every entry
  /// gives.
  PmpDecision check(PhysAddr pa, u64 size, AccessType type, AccessKind kind,
                    Privilege priv) const;

  /// True if the whole range lies inside some active S=1 entry. Used by the
  /// MMU for the satp.S page-table-walker check.
  bool is_secure(PhysAddr pa, u64 size) const;

  /// Defence-mutation hook (analysis/ptmc): with enforcement off, the S bit
  /// loses its access-kind semantics — S=1 entries behave as plain R/W/X
  /// regions for every instruction and ld.pt/sd.pt are no longer confined
  /// to them. is_secure() (the walker-side view used by the satp.S check)
  /// is deliberately unaffected, so the two defences stay independently
  /// toggleable. Counts as a configuration write for write_gen().
  void set_secure_enforcement(bool on) {
    ++write_gen_;
    secure_enforcement_ = on;
  }
  bool secure_enforcement() const { return secure_enforcement_; }

  /// Range [base, end) of entry idx per its match mode; nullopt if OFF.
  std::optional<std::pair<PhysAddr, PhysAddr>> entry_range(unsigned idx) const;

  /// True if any entry is active (A != OFF). When false, S/U accesses are
  /// allowed (nothing is configured yet — pre-boot state).
  bool any_active() const;

  /// Bumped on every pmpcfg/pmpaddr write attempt (even ones a locked entry
  /// ignores). check() is a pure function of the registers, so a cached
  /// decision stays valid while this counter is unchanged — the decode cache
  /// and this unit's own match memo rely on that.
  u64 write_gen() const { return write_gen_; }

  std::string describe() const;

 private:
  PmpMatch match_mode(unsigned idx) const {
    return static_cast<PmpMatch>((cfg_[idx] & pmpcfg::kAMask) >> pmpcfg::kAShift);
  }

  /// A run of addresses in which every access matches the same entry
  /// (`entry`, or -1 for no entry): `entry` covers all of [lo, hi) and no
  /// higher-priority entry touches it. Empty when lo == hi.
  struct MatchMemo {
    PhysAddr lo = 0;
    PhysAddr hi = 0;
    int entry = -1;
  };
  static constexpr unsigned kMemoSlots = 4;

  /// Re-decode every entry's [lo, hi) when write_gen() moved; drops the memo.
  void refresh() const {
    if (decoded_gen_ != write_gen_) redecode();
  }
  void redecode() const;
  /// Memoise the uniform run around [pa, pa+size), which the priority scan
  /// found fully inside `entry` (or inside no entry, for -1).
  void remember(int entry, PhysAddr pa, u64 size) const;
  /// Verdict for an access whose highest-priority match is `entry`.
  PmpDecision decide(int entry, AccessType type, AccessKind kind,
                     Privilege priv) const;

  std::array<u8, kPmpEntryCount> cfg_{};
  std::array<u64, kPmpEntryCount> addr_{};
  u64 write_gen_ = 0;
  bool secure_enforcement_ = true;

  // Host-side memo behind the const queries: the decoded entry ranges and
  // the last few uniform runs, valid while decoded_gen_ == write_gen_. It is
  // mutable state inside const check()/is_secure(): every Core owns its
  // PmpUnit and queries it from one thread (the fleet pool gives each shard
  // its own machine), so it takes no lock. A PmpUnit must not be queried
  // from two threads at once, even through a const reference.
  mutable u64 decoded_gen_ = ~u64{0};
  mutable u16 active_mask_ = 0;  ///< Entries with a non-empty range.
  mutable bool any_active_ = false;
  mutable std::array<PhysAddr, kPmpEntryCount> lo_{};
  mutable std::array<PhysAddr, kPmpEntryCount> hi_{};
  mutable std::array<MatchMemo, kMemoSlots> memo_{};
  mutable unsigned memo_next_ = 0;
};

}  // namespace ptstore
