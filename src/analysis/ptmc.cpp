#include "analysis/ptmc.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include "telemetry/json.h"

namespace ptstore::analysis::ptmc {

// ---------------------------------------------------------------------------
// State packing. Layout (LSB first):
//   [0]      boundary - 1
//   [1..12]  pages[i]: status (1) + content (2), 3 bits each
//   [13..36] procs[p]: live (1) + pgd (3) + token (2) + ghost (3) + extra (3)
//   [37..44] tokens[t]: live (1) + pt_page (3)
//   [45..49] satp: root (3) + s (1) + bound (1)
//   [50..52] forced_alloc
//   [53..57] satp1: root (3) + s (1) + bound (1)   (SMP extension)
// 58 bits total — fits a u64 key. satp1 is constant in single-hart mode, so
// the historical 53-bit keyspace is embedded unchanged.

u64 State::pack() const {
  u64 k = static_cast<u64>(boundary - 1);
  unsigned shift = 1;
  for (unsigned i = 0; i < kNumPages; ++i) {
    const u64 f = static_cast<u64>(pages[i].status) |
                  (static_cast<u64>(pages[i].content) << 1);
    k |= f << shift;
    shift += 3;
  }
  for (unsigned p = 0; p < kNumProcs; ++p) {
    const u64 f = static_cast<u64>(procs[p].live) |
                  (static_cast<u64>(procs[p].pgd) << 1) |
                  (static_cast<u64>(procs[p].token) << 4) |
                  (static_cast<u64>(procs[p].ghost_root) << 6) |
                  (static_cast<u64>(procs[p].extra_pt) << 9);
    k |= f << shift;
    shift += 12;
  }
  for (unsigned t = 0; t < kNumProcs; ++t) {
    const u64 f = static_cast<u64>(tokens[t].live) |
                  (static_cast<u64>(tokens[t].pt_page) << 1);
    k |= f << shift;
    shift += 4;
  }
  k |= (static_cast<u64>(satp.root) | (static_cast<u64>(satp.s) << 3) |
        (static_cast<u64>(satp.bound) << 4))
       << shift;
  shift += 5;
  k |= static_cast<u64>(forced_alloc) << shift;
  shift += 3;
  k |= (static_cast<u64>(satp1.root) | (static_cast<u64>(satp1.s) << 3) |
        (static_cast<u64>(satp1.bound) << 4))
       << shift;
  return k;
}

namespace {

/// `width` bits of `k` starting at `shift`.
u8 field(u64 k, unsigned shift, unsigned width) {
  return static_cast<u8>((k >> shift) & ((1u << width) - 1));
}

SatpState unpack_satp(u64 k, unsigned shift) {
  return {field(k, shift, 3), field(k, shift + 3, 1) != 0,
          field(k, shift + 4, 1) != 0};
}

}  // namespace

State State::unpack(u64 k) {
  State s;
  s.boundary = static_cast<u8>(field(k, 0, 1) + 1);
  unsigned shift = 1;
  for (unsigned i = 0; i < kNumPages; ++i) {
    s.pages[i] = {static_cast<PageStatus>(field(k, shift, 1)),
                  static_cast<PageContent>(field(k, shift + 1, 2))};
    shift += 3;
  }
  for (unsigned p = 0; p < kNumProcs; ++p) {
    s.procs[p] = {field(k, shift, 1) != 0, field(k, shift + 1, 3),
                  static_cast<TokenRef>(field(k, shift + 4, 2)),
                  field(k, shift + 6, 3), field(k, shift + 9, 3)};
    shift += 12;
  }
  for (unsigned t = 0; t < kNumProcs; ++t) {
    s.tokens[t] = {field(k, shift, 1) != 0, field(k, shift + 1, 3)};
    shift += 4;
  }
  s.satp = unpack_satp(k, shift);
  shift += 5;
  s.forced_alloc = field(k, shift, 3);
  shift += 3;
  s.satp1 = unpack_satp(k, shift);
  return s;
}

State State::initial() { return State{}; }

// ---------------------------------------------------------------------------
// Properties.

const char* prop_name(unsigned idx) {
  static const char* kNames[kNumProps] = {"P1", "P2", "P3", "P4"};
  return idx < kNumProps ? kNames[idx] : "?";
}

const char* prop_text(unsigned idx) {
  static const char* kTexts[kNumProps] = {
      "PTW never consumes an attacker PTE outside the secure region",
      "satp never carries a root the kernel did not issue to the running process",
      "no two live tokens alias the same page table",
      "no PT page is placed with non-zero content (freed pages zeroed before reuse)",
  };
  return idx < kNumProps ? kTexts[idx] : "?";
}

// ---------------------------------------------------------------------------
// Op alphabet.

const std::vector<Op>& all_ops() {
  static const std::vector<Op> ops = [] {
    std::vector<Op> v;
    for (u8 p = 0; p < kNumProcs; ++p) {
      v.push_back({OpKind::kSpawn, p, 0});
      v.push_back({OpKind::kExitMm, p, 0});
      v.push_back({OpKind::kSwitchMm, p, 0});
      v.push_back({OpKind::kAllocPt, p, 0});
      v.push_back({OpKind::kFreePt, p, 0});
    }
    v.push_back({OpKind::kGrow, 0, 0});
    v.push_back({OpKind::kUserAccess, 0, 0});
    for (u8 pg = 0; pg < kNumPages; ++pg) v.push_back({OpKind::kAtkWritePage, pg, 0});
    for (u8 p = 0; p < kNumProcs; ++p)
      for (u8 pg = 0; pg < kNumPages; ++pg)
        v.push_back({OpKind::kAtkRedirectPgd, p, pg});
    for (u8 p = 0; p < kNumProcs; ++p)
      for (u8 r = 0; r < 4; ++r)
        v.push_back({OpKind::kAtkRedirectToken, p, r});
    for (u8 slot = 0; slot < kNumProcs; ++slot)
      for (u8 pg = 0; pg < kNumPages; ++pg)
        v.push_back({OpKind::kAtkForgeToken, slot, pg});
    for (u8 pg = 0; pg < kNumPages; ++pg)
      v.push_back({OpKind::kAtkCorruptAllocator, pg, 0});
    for (u8 pg = 0; pg < kNumPages; ++pg)
      v.push_back({OpKind::kAtkSatpWrite, pg, 0});
    return v;
  }();
  return ops;
}

const std::vector<Op>& all_ops_smp() {
  // Append-only: IDs 0..47 are all_ops() verbatim; the hart-1 interleavings
  // take 48..50. Only the ops whose semantics read per-hart state run on
  // hart 1 — everything else is hart-agnostic (shared memory), and modelling
  // it per-hart would only square the alphabet without reaching new states.
  static const std::vector<Op> ops = [] {
    std::vector<Op> v = all_ops();
    for (u8 p = 0; p < kNumProcs; ++p)
      v.push_back({OpKind::kSwitchMm, p, 0, 1});
    v.push_back({OpKind::kUserAccess, 0, 0, 1});
    return v;
  }();
  return ops;
}

namespace {

const char* token_ref_name(TokenRef r) {
  switch (r) {
    case TokenRef::kNone: return "none";
    case TokenRef::kSlot0: return "slot0";
    case TokenRef::kSlot1: return "slot1";
    case TokenRef::kFake: return "fake";
  }
  return "?";
}

std::string page_name(u8 pg) {
  if (pg == kNoPage) return "-";
  return "page" + std::to_string(pg);
}

}  // namespace

std::string describe(const Op& op) {
  std::ostringstream os;
  switch (op.kind) {
    case OpKind::kSpawn: os << "spawn(p" << int{op.a} << ")"; break;
    case OpKind::kExitMm: os << "exit_mm(p" << int{op.a} << ")"; break;
    case OpKind::kSwitchMm: os << "switch_mm(p" << int{op.a} << ")"; break;
    case OpKind::kAllocPt: os << "alloc_pt(p" << int{op.a} << ")"; break;
    case OpKind::kFreePt: os << "free_pt(p" << int{op.a} << ")"; break;
    case OpKind::kGrow: os << "grow_secure_region()"; break;
    case OpKind::kUserAccess: os << "user_access()"; break;
    case OpKind::kAtkWritePage:
      os << "atk: write " << page_name(op.a);
      break;
    case OpKind::kAtkRedirectPgd:
      os << "atk: pcb[" << int{op.a} << "].pgd = " << page_name(op.b);
      break;
    case OpKind::kAtkRedirectToken:
      os << "atk: pcb[" << int{op.a}
         << "].token = " << token_ref_name(static_cast<TokenRef>(op.b));
      break;
    case OpKind::kAtkForgeToken:
      os << "atk: token_slot[" << int{op.a} << "] := " << page_name(op.b);
      break;
    case OpKind::kAtkCorruptAllocator:
      os << "atk: freelist head = " << page_name(op.a);
      break;
    case OpKind::kAtkSatpWrite:
      os << "atk: csrw satp = " << page_name(op.a);
      break;
  }
  if (op.hart != 0) os << "@h" << int{op.hart};
  return os.str();
}

std::string describe(const State& s) {
  std::ostringstream os;
  os << "sr>=" << int{s.boundary} << " pages[";
  for (unsigned i = 0; i < kNumPages; ++i) {
    if (i != 0) os << " ";
    os << (s.pages[i].status == PageStatus::kPt ? "PT" : "fr");
    switch (s.pages[i].content) {
      case PageContent::kZero: os << "/0"; break;
      case PageContent::kPtData: os << "/pt"; break;
      case PageContent::kAttacker: os << "/ATK"; break;
    }
  }
  os << "]";
  for (unsigned p = 0; p < kNumProcs; ++p) {
    os << " p" << p;
    if (!s.procs[p].live) {
      os << "(dead)";
      continue;
    }
    os << "(pgd=" << page_name(s.procs[p].pgd)
       << ",tok=" << token_ref_name(s.procs[p].token)
       << ",ghost=" << page_name(s.procs[p].ghost_root);
    if (s.procs[p].extra_pt != kNoPage)
      os << ",extra=" << page_name(s.procs[p].extra_pt);
    os << ")";
  }
  os << " tokens[";
  for (unsigned t = 0; t < kNumProcs; ++t) {
    if (t != 0) os << " ";
    if (s.tokens[t].live)
      os << page_name(s.tokens[t].pt_page);
    else
      os << "-";
  }
  os << "] satp=" << page_name(s.satp.root) << (s.satp.s ? "+S" : "")
     << (s.satp.bound ? "" : "!unbound");
  // Hart 1's satp appears only once it has left its reset value, so
  // single-hart renderings are unchanged.
  if (s.satp1.root != kNoPage || s.satp1.s || !s.satp1.bound) {
    os << " satp@h1=" << page_name(s.satp1.root) << (s.satp1.s ? "+S" : "")
       << (s.satp1.bound ? "" : "!stale");
  }
  if (s.forced_alloc != kNoPage) os << " forced=" << page_name(s.forced_alloc);
  return os.str();
}

// ---------------------------------------------------------------------------
// Transition semantics.

namespace {

/// Lowest free page inside the secure region, or kNoPage.
u8 lowest_free_secure(const State& s) {
  for (u8 pg = s.boundary; pg < kNumPages; ++pg) {
    if (s.pages[pg].status == PageStatus::kFree) return pg;
  }
  return kNoPage;
}

u8 alias_violation(const State& s) {
  // P3 is about *processes*: a forged entry in a dead process's slot binds
  // nobody until that slot's owner exists, so both procs must be live too.
  if (s.procs[0].live && s.procs[1].live && s.tokens[0].live &&
      s.tokens[1].live && s.tokens[0].pt_page == s.tokens[1].pt_page)
    return kP3;
  return 0;
}

/// Shared PT-page allocation path (spawn / alloc_pt): picks the page the
/// buddy allocator would hand out (corrupted free list first), models the
/// S-bit fault on out-of-region targets and the §V-E3 zero check. Returns
/// nullopt when the op is architecturally blocked; otherwise fills `pg` and
/// sets up `suc.next`'s page/forced fields (violations/note for the zero
/// path included). `detected` reports a zero-check rejection: the successor
/// is valid (the corrupt free-list entry was consumed) but no page was
/// placed.
std::optional<Successor> alloc_pt_page(const State& s, const ModelConfig& cfg,
                                       u8& pg, bool& detected,
                                       std::string* note) {
  detected = false;
  const bool forced = s.forced_alloc != kNoPage;
  pg = forced ? s.forced_alloc : lowest_free_secure(s);
  if (pg == kNoPage) return std::nullopt;  // OOM: op fails cleanly.
  // Initialising the page goes through sd.pt; with S-bit enforcement on, a
  // target outside the secure region faults and the allocation is aborted.
  if (cfg.s_bit && !is_secure(s, pg)) return std::nullopt;

  Successor suc;
  suc.next = s;
  if (forced) suc.next.forced_alloc = kNoPage;
  if (s.pages[pg].content != PageContent::kZero) {
    if (cfg.zero_check) {
      // §V-E3: a PT page must arrive all-zero; a dirty page means the
      // free list double-issued (or the attacker primed it) — reject.
      detected = true;
      if (note) *note = "zero-check rejected non-zero " + page_name(pg);
      return suc;
    }
    suc.violations |= kP4;
    if (note)
      *note = "P4: " + page_name(pg) + " placed as PT with non-zero content";
  }
  suc.next.pages[pg] = {PageStatus::kPt, PageContent::kPtData};
  return suc;
}

std::optional<Successor> apply_spawn(const State& s, u8 p,
                                     const ModelConfig& cfg,
                                     std::string* note) {
  if (s.procs[p].live) return std::nullopt;
  u8 pg = kNoPage;
  bool detected = false;
  auto suc = alloc_pt_page(s, cfg, pg, detected, note);
  if (!suc) return std::nullopt;
  if (detected) return suc;  // Allocation refused; no process created.
  suc->next.procs[p] = {true, pg,
                        p == 0 ? TokenRef::kSlot0 : TokenRef::kSlot1, pg,
                        kNoPage};
  suc->next.tokens[p] = {true, pg};
  suc->violations |= alias_violation(suc->next);
  if (note) {
    if (note->empty())
      *note = "p" + std::to_string(p) + " root = " + page_name(pg);
    if (suc->violations & kP3) *note += "; P3: token tables alias";
  }
  return suc;
}

std::optional<Successor> apply_alloc_pt(const State& s, u8 p,
                                        const ModelConfig& cfg,
                                        std::string* note) {
  if (!s.procs[p].live || s.procs[p].extra_pt != kNoPage) return std::nullopt;
  u8 pg = kNoPage;
  bool detected = false;
  auto suc = alloc_pt_page(s, cfg, pg, detected, note);
  if (!suc) return std::nullopt;
  if (detected) return suc;
  suc->next.procs[p].extra_pt = pg;
  if (note && note->empty())
    *note = "p" + std::to_string(p) + " grew " + page_name(pg);
  return suc;
}

std::optional<Successor> apply_switch(const State& s, u8 p,
                                      const ModelConfig& cfg, u8 hart,
                                      std::string* note) {
  if (!s.procs[p].live) return std::nullopt;
  const u8 pgd = s.procs[p].pgd;
  if (pgd == kNoPage) return std::nullopt;
  if (cfg.token_check) {
    bool valid = false;
    switch (s.procs[p].token) {
      case TokenRef::kNone:
        break;
      case TokenRef::kSlot0:
      case TokenRef::kSlot1: {
        // The token's user pointer must point back at this PCB, so only the
        // process's own slot can validate — and only for the root it binds.
        const unsigned slot = s.procs[p].token == TokenRef::kSlot0 ? 0 : 1;
        valid = slot == p && s.tokens[slot].live &&
                s.tokens[slot].pt_page == pgd;
        break;
      }
      case TokenRef::kFake:
        // A forged token image in normal memory validates only if ld.pt can
        // reach it (S-bit enforcement off), the attacker has written it, and
        // the credential scheme is forgeable at all (not DPTI/PTAuth).
        valid = !cfg.s_bit && !cfg.cred_unforgeable &&
                s.pages[0].content == PageContent::kAttacker;
        break;
    }
    if (!valid) return std::nullopt;  // switch_mm: kTokenReject.
  }
  Successor suc;
  suc.next = s;
  const bool bound =
      s.procs[p].ghost_root != kNoPage && pgd == s.procs[p].ghost_root;
  suc.next.satp_of(hart) = {pgd, cfg.ptw_check, bound};
  if (!bound) suc.violations |= kP2;
  if (note) {
    *note = "satp <- " + page_name(pgd);
    if (hart != 0) *note += " on hart " + std::to_string(hart);
    if (!bound) *note += "; P2: root was never issued to p" + std::to_string(p);
  }
  return suc;
}

std::optional<Successor> apply_user_access(const State& s,
                                           const ModelConfig& cfg, u8 hart,
                                           std::string* note) {
  const SatpState& sp = s.satp_of(hart);
  const u8 root = sp.root;
  if (root == kNoPage) return std::nullopt;  // Kernel address space.
  Successor suc;
  suc.next = s;
  // SMP: `!bound` on a still-held root marks a satp left stale by a
  // shootdown that never arrived (ipi sabotage). Walking it is harmless
  // while the page sits free and zeroed — the breach is when the allocator
  // recycles it into ANOTHER process's page table and this hart silently
  // runs on an address space the kernel never issued to it: P2.
  if (cfg.nharts >= 2 && !sp.bound &&
      s.pages[root].status == PageStatus::kPt) {
    suc.violations = kP2;
    if (note)
      *note = "P2: hart " + std::to_string(hart) + " walked stale root " +
              page_name(root) + ", recycled to another process";
    return suc;
  }
  if (!is_secure(s, root)) {
    // Root fetch comes from normal memory. With satp.S the walker refuses
    // it (architectural fault — attack blocked, nothing to report). Without
    // it, consuming an attacker-written entry is exactly P1; zeroed or
    // stale-PT pages fault or walk benignly instead. A verifying walker
    // (PTAuth) faults on the unauthenticated entry the same way.
    if (sp.s) return std::nullopt;
    if (s.pages[root].content != PageContent::kAttacker) return std::nullopt;
    if (cfg.verify_on_walk) return std::nullopt;
    suc.violations = kP1;
    if (note)
      *note = "P1: walker consumed attacker PTE from " + page_name(root);
    return suc;
  }
  // Root inside the region: the level-0 fetch is in-region, but if the
  // attacker controls the root's *content* its entries point at a fake
  // hierarchy in normal memory (page 0) — the next fetch is out-of-region.
  if (s.pages[root].content == PageContent::kAttacker && !sp.s &&
      !cfg.verify_on_walk && s.pages[0].content == PageContent::kAttacker) {
    suc.violations = kP1;
    if (note) *note = "P1: in-region root chained to attacker tables in page0";
    return suc;
  }
  return std::nullopt;
}

}  // namespace

std::optional<Successor> apply(const State& s, const Op& op,
                               const ModelConfig& cfg, std::string* note) {
  if (note) note->clear();
  switch (op.kind) {
    case OpKind::kSpawn:
      return apply_spawn(s, op.a, cfg, note);
    case OpKind::kExitMm: {
      if (!s.procs[op.a].live) return std::nullopt;
      Successor suc;
      suc.next = s;
      // exit_mm frees the pages the kernel *tracked* for this mm (ghost
      // root + extra), not whatever the attacker redirected pgd to.
      // free_pt_page zeroes on both config branches.
      const u8 ghost = s.procs[op.a].ghost_root;
      const u8 extra = s.procs[op.a].extra_pt;
      if (ghost != kNoPage)
        suc.next.pages[ghost] = {PageStatus::kFree, PageContent::kZero};
      if (extra != kNoPage)
        suc.next.pages[extra] = {PageStatus::kFree, PageContent::kZero};
      suc.next.procs[op.a] = ProcState{};
      suc.next.tokens[op.a] = TokenState{};
      if (note) *note = "p" + std::to_string(op.a) + " reaped";
      // SMP: the teardown's cross-hart shootdown (retire_mm). A remote hart
      // parked on one of the dying roots is repointed at the kernel address
      // space (leave_mm) once its IPI lands; with the sabotage knob the IPI
      // never arrives and its satp goes stale — it keeps the root, and the
      // `bound` ghost drops to mark the missing shootdown.
      if (cfg.nharts >= 2) {
        SatpState& h1 = suc.next.satp1;
        if (h1.root != kNoPage && (h1.root == ghost || h1.root == extra)) {
          if (cfg.ipi) {
            h1 = {kNoPage, h1.s, true};
            if (note) *note += "; hart 1 shot down";
          } else {
            h1.bound = false;
            if (note) *note += "; hart 1 satp stale (no IPI)";
          }
        }
      }
      return suc;
    }
    case OpKind::kSwitchMm:
      return apply_switch(s, op.a, cfg, op.hart, note);
    case OpKind::kAllocPt:
      return apply_alloc_pt(s, op.a, cfg, note);
    case OpKind::kFreePt: {
      if (!s.procs[op.a].live || s.procs[op.a].extra_pt == kNoPage)
        return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.pages[s.procs[op.a].extra_pt] = {PageStatus::kFree,
                                                PageContent::kZero};
      suc.next.procs[op.a].extra_pt = kNoPage;
      if (note) *note = "freed and zeroed";
      return suc;
    }
    case OpKind::kGrow: {
      if (!cfg.allow_grow || s.boundary <= 1) return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.boundary = static_cast<u8>(s.boundary - 1);
      // The donated page keeps its content — the dirty-donation channel the
      // zero check exists to close.
      if (note)
        *note = "secure region grew over " + page_name(suc.next.boundary);
      return suc;
    }
    case OpKind::kUserAccess:
      return apply_user_access(s, cfg, op.hart, note);
    case OpKind::kAtkWritePage: {
      if (cfg.s_bit && is_secure(s, op.a)) return std::nullopt;  // PMP fault.
      Successor suc;
      suc.next = s;
      // Verifying-walker backends (PTAuth): attacker bytes are
      // indistinguishable from stale PT bytes to every defence predicate —
      // the walker faults on both, the zero check rejects both, and
      // credentials can't be fabricated from them. Folding the two content
      // classes is an exact quotient of the transition system that keeps
      // the placement-unrestricted closure enumerable.
      suc.next.pages[op.a].content =
          cfg.verify_on_walk && cfg.cred_unforgeable ? PageContent::kPtData
                                                     : PageContent::kAttacker;
      if (note) *note = page_name(op.a) + " now attacker-controlled";
      return suc;
    }
    case OpKind::kAtkRedirectPgd: {
      if (!s.procs[op.a].live) return std::nullopt;
      if (s.procs[op.a].pgd == op.b) return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.procs[op.a].pgd = op.b;  // PCB lives in normal memory.
      if (note) *note = "pcb pointer hijacked";
      return suc;
    }
    case OpKind::kAtkRedirectToken: {
      if (!s.procs[op.a].live) return std::nullopt;
      const auto ref = static_cast<TokenRef>(op.b);
      if (s.procs[op.a].token == ref) return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.procs[op.a].token = ref;
      if (note) *note = "pcb token pointer redirected";
      return suc;
    }
    case OpKind::kAtkForgeToken: {
      // The token table sits in the secure region: a regular store into it
      // is exactly what the S bit forbids. Unforgeable-credential backends
      // (DPTI registry, PTAuth MAC) are immune regardless of placement.
      if (cfg.s_bit || cfg.cred_unforgeable) return std::nullopt;
      if (s.tokens[op.a].live && s.tokens[op.a].pt_page == op.b)
        return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.tokens[op.a] = {true, op.b};
      suc.violations |= alias_violation(suc.next);
      if (note) {
        *note = "token slot " + std::to_string(op.a) + " forged -> " +
                page_name(op.b);
        if (suc.violations & kP3) *note += "; P3: token tables alias";
      }
      return suc;
    }
    case OpKind::kAtkCorruptAllocator: {
      if (s.forced_alloc == op.a) return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.forced_alloc = op.a;  // Free lists live in normal memory.
      if (note) *note = "buddy free list corrupted";
      return suc;
    }
    case OpKind::kAtkSatpWrite: {
      if (!cfg.csr_gadget) return std::nullopt;
      Successor suc;
      suc.next = s;
      suc.next.satp = {op.a, false, false};
      suc.violations = kP2;
      if (note) *note = "P2: gadget wrote satp directly";
      return suc;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// BFS checker.

namespace {

/// Every visited state, in insertion order — which is BFS order, so each
/// BFS level is a range of ids. Per state: the packed key,
/// the id of the state it was first reached from, and the alphabet index of
/// that op (a u8: the SMP alphabet has 51 ops). Dedup is an open-addressed,
/// linear-probing table of ids, doubled once it is half full.
class StateLog {
 public:
  static constexpr u32 kEmpty = 0xFFFF'FFFFu;
  static_assert(kMaxStates == kEmpty, "every id must differ from kEmpty");

  StateLog() : slots_(1024, kEmpty) {}

  u64 size() const { return keys_.size(); }
  u64 key(u64 id) const { return keys_[id]; }
  u32 parent(u32 id) const { return parent_[id]; }
  u8 op(u32 id) const { return op_[id]; }

  /// murmur3's 64-bit finaliser. Packed keys of neighbouring states differ
  /// in a few bits, so the hash must avalanche before it is masked to a slot.
  static u64 hash(u64 k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
  }

  /// Cache hints for a later probe(key, hash): the home slot, then the key
  /// of the state it holds. Issued for a batch of keys, the misses overlap.
  void prefetch_slot(u64 hash) const {
    __builtin_prefetch(&slots_[hash & (slots_.size() - 1)]);
  }
  void prefetch_key(u64 hash) const {
    const u32 id = slots_[hash & (slots_.size() - 1)];
    if (id != kEmpty) __builtin_prefetch(&keys_[id]);
  }

  /// Whether `key` is visited. Only reads, so any number of threads may ask
  /// while no add() runs.
  bool contains(u64 key, u64 hash) const {
    return slots_[find(key, hash)] != kEmpty;
  }

  /// The slot holding `key`'s id, or the empty slot where it would go.
  u32& probe(u64 key, u64 hash) { return slots_[find(key, hash)]; }

  /// Appends `key` as a new state, its id written into `slot` (an empty
  /// slot probe(key) returned, with no add() in between).
  void add(u32& slot, u64 key, u32 parent, u8 op) {
    slot = static_cast<u32>(keys_.size());
    keys_.push_back(key);
    parent_.push_back(parent);
    op_.push_back(op);
    if (keys_.size() * 2 > slots_.size()) rehash(slots_.size() * 2);
  }

 private:
  size_t find(u64 key, u64 hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const u32 id = slots_[i];
      if (id == kEmpty || keys_[id] == key) return i;
    }
  }

  void rehash(size_t capacity) {
    slots_.assign(capacity, kEmpty);
    for (u32 id = 0; id < keys_.size(); ++id)
      probe(keys_[id], hash(keys_[id])) = id;
  }

  std::vector<u64> keys_;
  std::vector<u32> parent_;
  std::vector<u8> op_;
  std::vector<u32> slots_;
};

Step make_step(const State& cur, const Op& op, const ModelConfig& cfg) {
  Step step;
  step.op = op;
  const auto suc = apply(cur, op, cfg, &step.note);
  step.after = suc ? suc->next : cur;
  step.violations = suc ? suc->violations : 0;
  return step;
}

Counterexample rebuild_counterexample(unsigned prop_idx,
                                      const ModelConfig& cfg,
                                      const std::vector<Op>& alphabet,
                                      const StateLog& log, u32 src,
                                      const Op& final_op) {
  // Walk the parent ids back to the initial state (id 0), then replay
  // forward — apply() is deterministic, and with a note sink it renders
  // every step's note.
  std::vector<u8> path;
  for (u32 id = src; id != 0; id = log.parent(id)) path.push_back(log.op(id));
  Counterexample ce;
  ce.prop = prop_idx;
  ce.cfg = cfg;
  State cur = State::initial();
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    ce.steps.push_back(make_step(cur, alphabet[*it], cfg));
    cur = ce.steps.back().after;
  }
  ce.steps.push_back(make_step(cur, final_op, cfg));
  return ce;
}

/// One successor of an expanded state. `ordinal` is its position among
/// that state's successors, which come in alphabet order.
struct Pending {
  u64 key;
  u8 op;
  u8 violations;
  u8 ordinal;
};

/// Largest alphabet the search takes (op and ordinal are u8s; the SMP
/// alphabet has 51 ops).
constexpr size_t kMaxAlphabet = 64;

/// Applies the whole alphabet to `s`, writing its successors to `out` and
/// their hashes to `hash`, and prefetches each one's table slot. Returns
/// how many there are.
u32 successors(const State& s, const std::vector<Op>& alphabet,
               const ModelConfig& cfg, const StateLog& log, Pending* out,
               u64* hash) {
  u32 n = 0;
  for (size_t o = 0; o < alphabet.size(); ++o) {
    const auto suc = apply(s, alphabet[o], cfg);
    if (!suc) continue;
    const u64 key = suc->next.pack();
    hash[n] = StateLog::hash(key);
    log.prefetch_slot(hash[n]);
    out[n] = {key, static_cast<u8>(o), suc->violations, static_cast<u8>(n)};
    ++n;
  }
  return n;
}

/// States per chunk, the unit of work a worker claims.
constexpr u64 kChunkStates = 256;
/// Chunks in one window, per worker.
constexpr unsigned kChunksPerWorker = 4;
/// Levels with fewer states are expanded on the calling thread alone.
constexpr u64 kParallelMinStates = 1024;
/// The search never runs more workers than this.
constexpr unsigned kMaxWorkers = 64;
/// Slots in a worker's set of the successors it kept from its chunk.
constexpr size_t kSeenSlots = 4096;
constexpr u64 kNoKey = ~u64{0};  // Packed keys are 58 bits wide.

/// One expanded chunk: per state, its successor count and how many of them
/// survived the filters; then all survivors, state after state.
struct Chunk {
  u64 states = 0;
  u64 survivors = 0;
  std::unique_ptr<Pending[]> out;  ///< kChunkStates × alphabet size.
  u8 nsucc[kChunkStates];
  u8 kept[kChunkStates];
};

/// Adds `key` to a chunk-local set; false if it was there already. Once the
/// set is half full it adds nothing more and answers true.
bool first_sighting(u64* seen, size_t& fill, u64 key, u64 hash) {
  constexpr size_t mask = kSeenSlots - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    if (seen[i] == key) return false;
    if (seen[i] == kNoKey) {
      if (fill * 2 < kSeenSlots) {
        seen[i] = key;
        ++fill;
      }
      return true;
    }
  }
}

/// Expands the chunk's states, ids `first` onwards, using `seen` (kSeenSlots
/// keys) as scratch. A successor that violates nothing is dropped when it is
/// already in `log` or already kept from this chunk: the merge would find it
/// visited too, since nothing leaves the table, so only its count matters.
void expand_chunk(const StateLog& log, const std::vector<Op>& alphabet,
                  const ModelConfig& cfg, u64 first, Chunk& c, u64* seen) {
  std::fill_n(seen, kSeenSlots, kNoKey);
  size_t fill = 0;
  Pending batch[kMaxAlphabet];
  u64 hash[kMaxAlphabet];
  Pending* out = c.out.get();
  for (u64 j = 0; j < c.states; ++j) {
    const u32 n = successors(State::unpack(log.key(first + j)), alphabet, cfg,
                             log, batch, hash);
    for (u32 i = 0; i < n; ++i) log.prefetch_key(hash[i]);
    u32 kept = 0;
    for (u32 i = 0; i < n; ++i) {
      if (batch[i].violations == 0 &&
          (log.contains(batch[i].key, hash[i]) ||
           !first_sighting(seen, fill, batch[i].key, hash[i])))
        continue;
      out[kept++] = batch[i];
    }
    c.nsucc[j] = static_cast<u8>(n);
    c.kept[j] = static_cast<u8>(kept);
    out += kept;
  }
  c.survivors = static_cast<u64>(out - c.out.get());
}

/// The threads of one check() call that expand a BFS level a window at a
/// time: workers - 1 started here, plus the calling thread. The caller
/// publishes a window, claims chunks beside the workers, and waits only for
/// the chunks in flight, never for a worker to wake: under load the caller
/// expands what the others do not reach. Nothing writes the log while a
/// window is out, so the workers read its keys and probe its table in
/// place; the caller merges once the window is back.
class Pool {
 public:
  Pool(const StateLog& log, const std::vector<Op>& alphabet,
       const ModelConfig& cfg, unsigned workers)
      : log_(log),
        alphabet_(alphabet),
        cfg_(cfg),
        chunks_(workers * kChunksPerWorker),
        seen_(std::make_unique_for_overwrite<u64[]>(workers * kSeenSlots)) {
    // Every buffer is allocated here, on the calling thread, and only the
    // part a chunk writes is ever touched: workers allocate nothing.
    for (Chunk& c : chunks_)
      c.out = std::make_unique_for_overwrite<Pending[]>(kChunkStates *
                                                        alphabet.size());
    threads_.reserve(workers - 1);
    for (unsigned i = 1; i < workers; ++i) {
      try {
        threads_.emplace_back([this, i] { serve(i); });
      } catch (const std::exception&) {
        break;  // Carry on with the threads that started.
      }
    }
  }

  ~Pool() {
    stop_.store(true, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_release);
    gen_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  unsigned workers() const { return static_cast<unsigned>(threads_.size()) + 1; }
  u64 window_states() const { return chunks_.size() * kChunkStates; }

  /// Expands ids [first, end), at most window_states() of them, and
  /// returns their chunks in id order.
  std::span<const Chunk> expand(u64 first, u64 end) {
    const u64 n = (end - first + kChunkStates - 1) / kChunkStates;
    first_ = first;
    for (u64 i = 0; i < n; ++i)
      chunks_[i].states = std::min(kChunkStates, end - first - i * kChunkStates);
    done_.store(0, std::memory_order_relaxed);
    ticket_.store(n << 32, std::memory_order_release);
    gen_.fetch_add(1, std::memory_order_release);
    gen_.notify_all();
    claim(0);
    for (u64 d; (d = done_.load(std::memory_order_acquire)) != n;)
      done_.wait(d, std::memory_order_acquire);
    return {chunks_.data(), n};
  }

 private:
  void serve(unsigned worker) {
    for (;;) {
      const u32 gen = gen_.load(std::memory_order_acquire);
      if (stop_.load(std::memory_order_relaxed)) return;
      claim(worker);
      gen_.wait(gen, std::memory_order_acquire);
    }
  }

  /// Expands unclaimed chunks of the published window until none is left.
  /// A ticket is the window's chunk count (high half) and the next chunk
  /// index (low half); the acquire on it makes the window's first_ and
  /// chunk sizes, and the log the caller last merged, visible.
  void claim(unsigned worker) {
    u64* seen = seen_.get() + worker * kSeenSlots;
    for (;;) {
      const u64 t = ticket_.fetch_add(1, std::memory_order_acq_rel);
      const u64 n = t >> 32;
      const u64 i = t & 0xFFFF'FFFFu;
      if (i >= n) return;
      expand_chunk(log_, alphabet_, cfg_, first_ + i * kChunkStates,
                   chunks_[i], seen);
      if (done_.fetch_add(1, std::memory_order_release) + 1 == n)
        done_.notify_one();
    }
  }

  const StateLog& log_;
  const std::vector<Op>& alphabet_;
  const ModelConfig& cfg_;
  std::vector<Chunk> chunks_;
  std::unique_ptr<u64[]> seen_;  ///< kSeenSlots per worker.
  u64 first_ = 0;                ///< First id of the published window.
  std::atomic<u64> ticket_{0};   ///< Chunk count << 32 | next chunk index.
  std::atomic<u64> done_{0};     ///< Chunks of the window expanded so far.
  std::atomic<u32> gen_{0};      ///< Bumped per window, and to stop.
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;  // Last: the threads use all the above.
};

}  // namespace

CheckResult check(const ModelConfig& cfg) {
  return check(cfg, std::thread::hardware_concurrency());
}

CheckResult check(const ModelConfig& cfg, unsigned workers) {
  const auto t0 = std::chrono::steady_clock::now();
  CheckResult res;
  const std::vector<Op>& alphabet =
      cfg.nharts >= 2 ? all_ops_smp() : all_ops();
  const u64 budget = std::min(cfg.max_states, kMaxStates);
  workers = std::clamp(workers, 1u, kMaxWorkers);
  assert(alphabet.size() <= kMaxAlphabet);
  StateLog log;
  const u64 init_key = State::initial().pack();
  log.add(log.probe(init_key, StateLog::hash(init_key)), init_key, 0, 0);
  // Started at the first level big enough to share; joined before any
  // return, so check() leaves no thread behind.
  std::optional<Pool> pool;

  const auto finish = [&] {
    res.workers = pool ? pool->workers() : 1;
    pool.reset();
    res.states = log.size();
    res.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return res;
  };

  // Records state `id`'s successors `p` (hashes `hash`) in alphabet order,
  // exactly as if all `nsucc` of them were here; `n` survived expansion
  // (the others were already visited and violate nothing). False once
  // stop_after_violated is met: `transitions` then counts up to the
  // successor that met it.
  const auto merge = [&](u32 id, const Pending* p, const u64* hash, u32 n,
                         u32 nsucc) {
    for (u32 i = 0; i < n; ++i) {
      if (p[i].violations != 0) {
        for (unsigned b = 0; b < kNumProps; ++b) {
          const u8 bit = static_cast<u8>(1u << b);
          if ((p[i].violations & bit) != 0 && (res.props_violated & bit) == 0) {
            res.props_violated |= bit;
            res.counterexamples.push_back(rebuild_counterexample(
                b, cfg, alphabet, log, id, alphabet[p[i].op]));
          }
        }
        if (cfg.stop_after_violated != 0 &&
            (res.props_violated & cfg.stop_after_violated) ==
                cfg.stop_after_violated) {
          res.transitions += p[i].ordinal + 1u;
          res.early_stopped = true;
          return false;
        }
      }
      u32& slot = log.probe(p[i].key, hash[i]);
      if (slot != StateLog::kEmpty) continue;
      if (log.size() >= budget) {
        res.state_capped = true;
        continue;
      }
      log.add(slot, p[i].key, id, p[i].op);
    }
    res.transitions += nsucc;
    return true;
  };

  Pending batch[kMaxAlphabet];
  u64 hash[kMaxAlphabet];
  std::unique_ptr<u64[]> chunk_hash;  // A chunk's survivor hashes.
  u64 begin = 0;  // The level being expanded is ids [begin, end).
  u64 end = 1;
  for (u32 depth = 0; begin < end; ++depth) {
    res.depth = depth;
    if (depth >= cfg.max_depth) {
      // Every state left in the log sits at this depth: none is expanded.
      res.depth_capped = true;
      break;
    }
    if (workers > 1 && end - begin >= kParallelMinStates) {
      if (!pool) {
        pool.emplace(log, alphabet, cfg, workers);
        chunk_hash = std::make_unique_for_overwrite<u64[]>(kChunkStates *
                                                           alphabet.size());
      }
      for (u64 first = begin; first < end;) {
        const u64 last = std::min(end, first + pool->window_states());
        u64 id = first;
        for (const Chunk& c : pool->expand(first, last)) {
          // Overlap the table misses of the whole chunk, as the inline path
          // does for one state's successors.
          const Pending* p = c.out.get();
          u64* h = chunk_hash.get();
          for (u64 i = 0; i < c.survivors; ++i) {
            h[i] = StateLog::hash(p[i].key);
            log.prefetch_slot(h[i]);
          }
          for (u64 i = 0; i < c.survivors; ++i) log.prefetch_key(h[i]);
          for (u64 j = 0; j < c.states; ++j, ++id) {
            if (!merge(static_cast<u32>(id), p, h, c.kept[j], c.nsucc[j]))
              return finish();
            p += c.kept[j];
            h += c.kept[j];
          }
        }
        first = last;
      }
    } else {
      for (u64 id = begin; id < end; ++id) {
        const u32 n = successors(State::unpack(log.key(id)), alphabet, cfg,
                                 log, batch, hash);
        for (u32 i = 0; i < n; ++i) log.prefetch_key(hash[i]);
        if (!merge(static_cast<u32>(id), batch, hash, n, n)) return finish();
      }
    }
    begin = end;
    end = log.size();
  }
  res.complete = !res.depth_capped && !res.state_capped;
  return finish();
}

const Counterexample* CheckResult::counterexample_for(unsigned prop_idx) const {
  for (const auto& ce : counterexamples) {
    if (ce.prop == prop_idx) return &ce;
  }
  return nullptr;
}

std::string CheckResult::format() const {
  std::ostringstream os;
  os << states << " state(s), " << transitions << " transition(s), depth "
     << depth;
  if (complete) os << " (closure complete)";
  if (depth_capped) os << " (depth-capped)";
  if (state_capped) os << " (state-capped)";
  if (early_stopped) os << " (stopped at first target violation)";
  os << "\n";
  for (unsigned i = 0; i < kNumProps; ++i) {
    const u8 bit = static_cast<u8>(1u << i);
    if ((props_checked & bit) == 0) continue;
    os << "  " << prop_name(i) << " — " << prop_text(i) << ": ";
    if ((props_violated & bit) == 0) {
      os << (complete ? "HOLDS (exhaustive within bound)" : "holds within bound");
    } else {
      os << "VIOLATED";
      if (const Counterexample* ce = counterexample_for(i))
        os << " (" << ce->steps.size() << "-step counterexample)";
    }
    os << "\n";
  }
  for (const auto& ce : counterexamples) {
    os << "counterexample for " << prop_name(ce.prop) << ":\n";
    for (size_t i = 0; i < ce.steps.size(); ++i) {
      const Step& st = ce.steps[i];
      os << "  " << i + 1 << ". " << describe(st.op);
      if (!st.note.empty()) os << "  [" << st.note << "]";
      os << "\n";
    }
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Backends.

std::optional<ModelConfig> backend_model(std::string_view name,
                                         unsigned nharts) {
  ModelConfig cfg;
  cfg.nharts = nharts;
  bool unrestricted_placement = false;
  if (name == "ptstore") {
    // The defaults *are* the PTStore capability set.
  } else if (name == "stock") {
    cfg.s_bit = cfg.ptw_check = cfg.token_check = cfg.zero_check = false;
  } else if (name == "dpti") {
    // Protected domain plays the secure region's role (regular stores
    // fault); the root registry is the switch-time check; no satp.S.
    cfg.ptw_check = false;
    cfg.cred_unforgeable = true;
  } else if (name == "ptauth") {
    // No placement restriction at all — the keyed MAC authenticates every
    // credential and every fetched PTE instead.
    cfg.s_bit = false;
    cfg.ptw_check = false;
    cfg.verify_on_walk = true;
    cfg.cred_unforgeable = true;
    unrestricted_placement = true;
  } else {
    return std::nullopt;
  }
  // The second hart multiplies the closure (~4x), and PTAuth's
  // unrestricted PT-page placement multiplies it again (2,279,200 states /
  // depth 16 single-hart, 6,708,000 / depth 17 at two harts).
  if (nharts >= 2 || unrestricted_placement) {
    cfg.max_states = 8'000'000;
    cfg.max_depth = 20;
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// Mutation matrix.

std::vector<MutationEntry> mutation_matrix(const ModelConfig& base) {
  std::vector<MutationEntry> m;
  {  // P1 needs the walker check *and* the token check gone: token
     // validation alone keeps satp on issued (in-region) roots.
    MutationEntry e{"ptw", base, kP1, kP2, ""};
    e.cfg.ptw_check = false;
    e.cfg.token_check = false;
    e.rationale =
        "satp.S off and switch_mm unguarded: a hijacked pgd reaches an "
        "attacker hierarchy in normal memory and the walker consumes it";
    m.push_back(e);
  }
  {  // P2: token validation is exactly the root-provenance check.
    MutationEntry e{"token", base, kP2, 0, ""};
    e.cfg.token_check = false;
    e.rationale =
        "switch_mm no longer matches pgd against the issued token: any "
        "redirected PCB pointer lands in satp";
    m.push_back(e);
  }
  {  // P3: the S bit is what makes the token table unwritable.
    MutationEntry e{"sbit", base, kP3, kP2, ""};
    e.cfg.s_bit = false;
    e.rationale =
        "regular stores reach the token table: a forged entry binds a "
        "second live process to the same page table";
    m.push_back(e);
  }
  {  // P4: the zero check is the overlapping-allocation detector.
    MutationEntry e{"zero", base, kP4, kP3, ""};
    e.cfg.zero_check = false;
    e.rationale =
        "a corrupted free list re-issues a live (non-zero) PT page and the "
        "allocator no longer notices";
    m.push_back(e);
  }
  {  // Defence-in-depth floor: the walker check alone being off breaks
     // nothing — token validation still pins satp to issued roots.
    MutationEntry e{"ptw-alone", base, 0, 0, ""};
    e.cfg.ptw_check = false;
    e.rationale =
        "satp.S off but token validation intact: every reachable satp root "
        "is still a kernel-issued in-region table, so all properties hold";
    m.push_back(e);
  }
  if (base.nharts >= 2) {
    // Appended (never reordered) and only under an SMP base, so the
    // single-hart matrix — and everything golden-pinned to it — is intact.
    MutationEntry e{"ipi", base, kP2, 0, ""};
    e.cfg.ipi = false;
    e.rationale =
        "exit_mm skips the shootdown IPI: a remote hart stays parked on the "
        "retired root, and once the allocator recycles that page into "
        "another process's tables the hart's next user access runs on an "
        "address space the kernel never issued to it";
    m.push_back(e);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Export.

std::string to_dot(const Counterexample& ce) {
  std::ostringstream os;
  os << "digraph ptmc_ce {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\", fontsize=9];\n";
  os << "  s0 [label=\"" << telemetry::json_escape(describe(State::initial()))
     << "\"];\n";
  for (size_t i = 0; i < ce.steps.size(); ++i) {
    const Step& st = ce.steps[i];
    const bool bad = st.violations != 0;
    os << "  s" << i + 1 << " [label=\""
       << telemetry::json_escape(describe(st.after)) << "\"";
    if (bad) os << ", color=red, penwidth=2";
    os << "];\n";
    os << "  s" << i << " -> s" << i + 1 << " [label=\""
       << telemetry::json_escape(describe(st.op)) << "\"";
    if (bad) os << ", color=red";
    os << "];\n";
  }
  os << "  label=\"ptmc counterexample: " << prop_name(ce.prop) << " — "
     << telemetry::json_escape(prop_text(ce.prop)) << "\";\n}\n";
  return os.str();
}

namespace {

void write_config(telemetry::JsonWriter& w, const ModelConfig& cfg) {
  w.begin_object()
      .kv("s_bit", cfg.s_bit)
      .kv("ptw_check", cfg.ptw_check)
      .kv("token_check", cfg.token_check)
      .kv("zero_check", cfg.zero_check)
      .kv("csr_gadget", cfg.csr_gadget)
      .kv("allow_grow", cfg.allow_grow)
      .kv("max_depth", static_cast<u64>(cfg.max_depth))
      .kv("max_states", cfg.max_states);
  // SMP / backend-capability keys are emitted only when they deviate from
  // the historical model, keeping single-hart PTStore JSON byte-identical.
  if (cfg.nharts > 1) {
    w.kv("nharts", static_cast<u64>(cfg.nharts)).kv("ipi", cfg.ipi);
  }
  if (cfg.verify_on_walk) w.kv("verify_on_walk", true);
  if (cfg.cred_unforgeable) w.kv("cred_unforgeable", true);
  w.end_object();
}

}  // namespace

std::string to_json(const CheckResult& r) {
  std::ostringstream os;
  telemetry::JsonWriter w(os);
  w.begin_object();
  w.key("properties").begin_array();
  for (unsigned i = 0; i < kNumProps; ++i) {
    const u8 bit = static_cast<u8>(1u << i);
    if ((r.props_checked & bit) == 0) continue;
    w.begin_object()
        .kv("name", prop_name(i))
        .kv("text", prop_text(i))
        .kv("violated", (r.props_violated & bit) != 0)
        .end_object();
  }
  w.end_array();
  w.kv("complete", r.complete)
      .kv("depth_capped", r.depth_capped)
      .kv("state_capped", r.state_capped)
      .kv("early_stopped", r.early_stopped)
      .kv("states", r.states)
      .kv("transitions", r.transitions)
      .kv("depth", static_cast<u64>(r.depth));
  w.key("counterexamples").begin_array();
  for (const auto& ce : r.counterexamples) {
    w.begin_object().kv("property", prop_name(ce.prop));
    w.key("config");
    write_config(w, ce.cfg);
    w.key("steps").begin_array();
    for (const Step& st : ce.steps) {
      w.begin_object()
          .kv("op", describe(st.op))
          .kv("state", describe(st.after))
          .kv("note", st.note)
          .kv("violations", static_cast<u64>(st.violations))
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array();
  w.key("host")
      .begin_object()
      .kv("wall_s", r.wall_s)
      .kv("states_per_s", r.states_per_s())
      .kv("workers", static_cast<u64>(r.workers))
      .end_object();
  w.end_object();
  return os.str();
}

}  // namespace ptstore::analysis::ptmc
