// Fully-associative TLB model with ASID tagging and Sv39 superpage support.
// The paper's prototype uses a 32-entry I-TLB and an 8-entry D-TLB.
//
// TLB entries cache the *virtual* permission bits of a translation. PTStore's
// key point against TLB-inconsistency attacks (paper §V-E5) is that its
// secure-region check is physical (PMP) and applied on every access — so a
// stale writable TLB entry still cannot write the secure region. The model
// deliberately reproduces stale-entry behaviour so the attack scenario is
// faithful.
//
// Host-speed notes: stat counters are interned telemetry handles synthesized
// into the StatSet on read, and a one-entry memo replays the previous successful
// lookup without rescanning. The memo is set only by a real scan hit and
// dropped on insert/flush, so it always returns the same entry (with the
// same LRU update) the scan would.
#pragma once

#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "telemetry/metrics.h"

namespace ptstore {

/// One cached translation. `level` is the Sv39 leaf level: 0 = 4 KiB page,
/// 1 = 2 MiB, 2 = 1 GiB superpage.
struct TlbEntry {
  bool valid = false;
  bool global = false;
  u16 asid = 0;
  VirtAddr vpn = 0;  ///< VA >> 12, canonical low 27 bits.
  unsigned level = 0;
  u64 pte = 0;  ///< Raw leaf PTE (permissions + PPN).
  u64 lru_tick = 0;
};

struct TlbConfig {
  std::string name = "TLB";
  unsigned entries = 32;
  Cycles hit_latency = 0;  ///< Folded into the access pipeline.
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& cfg)
      : cfg_(cfg),
        slots_(cfg.entries),
        hits_(bank_.counter(cfg.name + ".hits", "TLB hits")),
        misses_(bank_.counter(cfg.name + ".misses", "TLB misses")),
        fills_(bank_.counter(cfg.name + ".fills", "TLB fills")),
        flushes_(bank_.counter(cfg.name + ".flushes", "sfence.vma flushes")) {}

  /// Look up virtual address `va` under `asid`. Superpage entries match any
  /// VA within their reach.
  const TlbEntry* lookup(VirtAddr va, u16 asid);

  /// lookup() restricted to its memo branch: when the memo covers `va`'s
  /// page under `asid`, apply exactly that branch's effects (tick, LRU,
  /// hits) and return the entry; otherwise return nullptr with no effect,
  /// and the caller falls back to lookup().
  const TlbEntry* rehit(VirtAddr va, u16 asid) {
    const u64 vpn = (va >> kPageShift) & kVpnMask;
    if (last_entry_ == nullptr || vpn != last_vpn_ || asid != last_asid_) {
      return nullptr;
    }
    last_entry_->lru_tick = ++tick_;
    hits_.add();
    return last_entry_;
  }

  /// Insert a translation; evicts LRU.
  void insert(VirtAddr va, u16 asid, unsigned level, u64 pte, bool global);

  /// sfence.vma semantics. `va`/`asid` of nullopt mean "all".
  void flush(std::optional<VirtAddr> va, std::optional<u16> asid);

  const TlbConfig& config() const { return cfg_; }
  const StatSet& stats() const;
  void clear_stats();

  unsigned occupancy() const;

 private:
  static u64 vpn_mask(unsigned level);
  static constexpr u64 kVpnMask = (u64{1} << 27) - 1;  ///< Sv39 VPN bits.
  TlbConfig cfg_;
  std::vector<TlbEntry> slots_;
  u64 tick_ = 0;

  // Memo of the previous scan hit; cleared whenever entries change shape
  // (insert can create a duplicate match — e.g. the D-bit-clear re-walk —
  // and the scan's first-match order must be preserved exactly).
  VirtAddr last_vpn_ = ~u64{0};
  u16 last_asid_ = 0;
  TlbEntry* last_entry_ = nullptr;

  telemetry::CounterBank bank_;
  telemetry::Counter hits_;
  telemetry::Counter misses_;
  telemetry::Counter fills_;
  telemetry::Counter flushes_;
  mutable StatSet stats_;
};

}  // namespace ptstore
