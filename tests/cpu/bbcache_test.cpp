// Decoded basic-block cache coherence: every way stale decoded state could
// diverge from what the classic fetch/decode path would do — self-modifying
// code, fence.i, sfence.vma remaps, stores through aliased mappings — plus
// the headline invariant: simulated timing and counters are bit-identical
// with the cache on and off.
#include <functional>
#include <map>
#include <string>
#include <tuple>

#include "cpu_test_util.h"
#include "isa/csr.h"
#include "mmu/pte.h"

namespace ptstore {
namespace {

using testutil::Machine;
using isa::Assembler;
using isa::Reg;

// Encoding of one instruction, for code-patching stores.
u32 encode(const std::function<void(Assembler&)>& one) {
  Assembler a(0);
  one(a);
  return a.finish().at(0);
}

// A program that calls a subroutine, patches it in place (no fence.i — the
// interpreter's classic path re-reads memory every fetch, so the new bytes
// must take effect immediately), and calls it again.
//   s1 = first call's a0 (7), s2 = second call's a0 (42).
void build_smc(Assembler& a, bool with_fence_i) {
  auto func = a.make_label();
  a.jal(Reg::kRa, func);               // word 0
  a.mv(Reg::kS1, Reg::kA0);            // word 1
  a.auipc(Reg::kT0, 0);                // word 2: t0 = base + 8
  a.addi(Reg::kT0, Reg::kT0, 36);      // word 3: t0 = &func (word 11)
  a.lui(Reg::kT1, 0x02A00);            // word 4: t1 = addi a0, x0, 42 ...
  a.addi(Reg::kT1, Reg::kT1, 0x513);   // word 5: ... = 0x02A00513
  a.sw(Reg::kT1, Reg::kT0, 0);         // word 6: patch func's first word
  if (with_fence_i) {
    a.fence_i();                       // word 7
  } else {
    a.nop();                           // word 7 (keeps func at word 11)
  }
  a.jal(Reg::kRa, func);               // word 8
  a.mv(Reg::kS2, Reg::kA0);            // word 9
  a.ebreak();                          // word 10
  a.bind(func);                        // word 11: base + 44
  a.addi(Reg::kA0, Reg::kZero, 7);
  a.jalr(Reg::kZero, Reg::kRa, 0);
}

TEST(BBCache, SelfModifyingCodeTakesEffectWithoutFenceI) {
  Machine m;
  m.run_program([](Assembler& a) { build_smc(a, /*with_fence_i=*/false); });
  EXPECT_EQ(m.reg(Reg::kS1), 7u);
  EXPECT_EQ(m.reg(Reg::kS2), 42u);
}

TEST(BBCache, FenceIFlushesAndCounts) {
  Machine m;
  m.run_program([](Assembler& a) { build_smc(a, /*with_fence_i=*/true); });
  EXPECT_EQ(m.reg(Reg::kS1), 7u);
  EXPECT_EQ(m.reg(Reg::kS2), 42u);
  const StatSet s = m.core.merged_stats();
  EXPECT_GE(s.get("bbcache.misses"), 1u);
  EXPECT_GE(s.get("bbcache.invalidations"), 1u);
}

TEST(BBCache, HitsAccumulateOnReexecution) {
  Machine m;
  m.run_program([](Assembler& a) {
    auto loop = a.make_label();
    a.addi(Reg::kA0, Reg::kZero, 100);
    a.bind(loop);
    a.addi(Reg::kA0, Reg::kA0, -1);
    a.addi(Reg::kT0, Reg::kA0, 3);
    a.xor_(Reg::kT1, Reg::kT0, Reg::kA0);
    a.bne(Reg::kA0, Reg::kZero, loop);
    a.ebreak();
  });
  EXPECT_EQ(m.reg(Reg::kA0), 0u);
  const StatSet s = m.core.merged_stats();
  EXPECT_GT(s.get("bbcache.hits"), 100u);  // The loop body re-dispatches.
  EXPECT_LT(s.get("bbcache.misses"), 10u);
}

// Sv39 fixture: one executable page at `va`, initially mapped to frame A.
struct PagedMachine {
  static constexpr VirtAddr kVa = 0x4'0000'0000;
  Machine m;
  PhysAddr root = kDramBase + MiB(2);
  PhysAddr l1 = root + kPageSize;
  PhysAddr l0 = root + 2 * kPageSize;
  PhysAddr frame_a = kDramBase + MiB(8);
  PhysAddr frame_b = kDramBase + MiB(8) + kPageSize;

  PagedMachine() {
    m.mem.write_u64(root + bits(kVa, 30, 9) * 8, pte::make_from_pa(l1, pte::kV));
    m.mem.write_u64(l1 + bits(kVa, 21, 9) * 8, pte::make_from_pa(l0, pte::kV));
    map_leaf(frame_a);
    // frame A: a0 = 1; frame B: a0 = 2.
    load_ret_const(frame_a, 1);
    load_ret_const(frame_b, 2);
    m.core.write_csr(isa::csr::kSatp,
                     isa::satp::make(isa::satp::kModeSv39, 1,
                                     root >> kPageShift, false),
                     Privilege::kSupervisor);
  }

  void map_leaf(PhysAddr frame, VirtAddr va = kVa) {
    m.mem.write_u64(l0 + bits(va, 12, 9) * 8,
                    pte::make_from_pa(frame, pte::kV | pte::kR | pte::kW |
                                                 pte::kX | pte::kA | pte::kD));
  }

  void load_ret_const(PhysAddr frame, i64 value) {
    Assembler a(kVa);
    a.addi(Reg::kA0, Reg::kZero, value);
    a.ebreak();
    m.core.load_code(frame, a.finish());
  }

  /// Execute from `va` in S-mode until ebreak; returns a0.
  u64 run_at(VirtAddr va = kVa) {
    m.core.set_reg(isa::regno(Reg::kA0), 0);
    m.core.set_priv(Privilege::kSupervisor);
    m.core.set_pc(va);
    const StepResult r = m.core.run(16);
    EXPECT_EQ(r.stop, StopReason::kEbreakHalt);
    return m.reg(Reg::kA0);
  }

  /// Execute a lone sfence.vma from an M-mode scratch page.
  void sfence() {
    const PhysAddr scratch = kDramBase + MiB(1);
    Assembler a(scratch);
    a.sfence_vma();
    a.ebreak();
    m.core.load_code(scratch, a.finish());
    m.core.set_priv(Privilege::kMachine);
    m.core.set_pc(scratch);
    EXPECT_EQ(m.core.run(4).stop, StopReason::kEbreakHalt);
  }
};

TEST(BBCache, SfenceVmaRemapToDifferentFrame) {
  PagedMachine p;
  EXPECT_EQ(p.run_at(), 1u);

  // Remap the page to frame B without sfence.vma: the stale ITLB entry
  // still reaches frame A — exactly what the classic path would do.
  p.map_leaf(p.frame_b);
  EXPECT_EQ(p.run_at(), 1u);

  // After sfence.vma the walk sees the new leaf; the decoded block for
  // frame A must not be dispatched at frame B's physical PC.
  p.sfence();
  EXPECT_EQ(p.run_at(), 2u);
}

TEST(BBCache, StoreThroughAliasedMappingInvalidates) {
  PagedMachine p;
  EXPECT_EQ(p.run_at(), 1u);

  // Alias: va+4K maps to the same frame A. Patch the first instruction
  // through the alias (a plain data store — no fence of any kind).
  const VirtAddr alias = PagedMachine::kVa + kPageSize;
  p.map_leaf(p.frame_a, alias);
  const u32 patched =
      encode([](Assembler& a) { a.addi(Reg::kA0, Reg::kZero, 2); });
  const MemAccessResult w = p.m.core.access_as(
      alias, 4, AccessType::kWrite, AccessKind::kRegular,
      Privilege::kSupervisor, patched);
  ASSERT_TRUE(w.ok);

  // Same virtual PC, same physical frame, new bytes.
  EXPECT_EQ(p.run_at(), 2u);
}

// Zero fills skip unmaterialized frames but still count as writes to
// materialized ones: the code frame's write_gen moves and the cached block
// is rebuilt from the new bytes.
TEST(BBCache, ZeroFillOfCodeFrameInvalidates) {
  Machine m;
  const PhysAddr pc = m.core.config().reset_pc;
  m.run_program([](Assembler& a) {
    a.addi(Reg::kA0, Reg::kZero, 7);
    a.ebreak();
  });
  ASSERT_EQ(m.reg(Reg::kA0), 7u);
  const u64* gen = m.mem.frame_write_gen(pc);
  ASSERT_NE(gen, nullptr);
  const u64 gen_before = *gen;
  const u64 inval_before = m.core.merged_stats().get("bbcache.invalidations");

  // addi's immediate sits in the upper half-word: zeroing it leaves
  // `addi a0, zero, 0`.
  m.mem.fill(pc + 2, 0, 2);
  EXPECT_GT(*gen, gen_before);
  m.core.set_pc(pc);
  EXPECT_EQ(m.core.run(16).stop, StopReason::kEbreakHalt);
  EXPECT_EQ(m.reg(Reg::kA0), 0u);
  EXPECT_GT(m.core.merged_stats().get("bbcache.invalidations"), inval_before);
}

// ---- The acceptance invariant: decode cache on vs off ----
//
// Each scenario sets up a fresh machine and drives it; with the decode cache
// on and off it must produce identical architectural state, cycle counts,
// and hardware counters (modulo the bbcache.* keys themselves). The paged
// scenarios aim at the fetch fast path's memos: the ITLB memo re-hit for
// both parcels, the PMP match memo, and the PhysMem last-frame memo.

using Scenario = std::function<void(PhysMem&, Core&)>;

struct Outcome {
  Cycles cycles = 0;
  u64 instret = 0;
  u64 pc = 0;
  u64 s2 = 0;
  std::map<std::string, u64> counters;
};

Outcome run_scenario(bool decode_cache, const Scenario& scenario,
                     u64* bb_hits = nullptr) {
  PhysMem mem(kDramBase, MiB(32));
  CoreConfig cfg;
  cfg.ptstore_enabled = true;
  cfg.decode_cache = decode_cache;
  Core core(mem, cfg);
  scenario(mem, core);
  Outcome out{core.cycles(), core.instret(), core.pc(),
              core.reg(isa::regno(Reg::kS2)), core.merged_stats().counters()};
  if (bb_hits != nullptr) *bb_hits = out.counters["bbcache.hits"];
  std::erase_if(out.counters, [](const auto& kv) {
    return kv.first.rfind("bbcache.", 0) == 0;
  });
  return out;
}

/// Run `scenario` with the cache off and on; both must agree exactly, and
/// the cached run must actually have dispatched from blocks. Returns the
/// outcome for scenario-specific checks.
Outcome expect_identical(const char* name, const Scenario& scenario) {
  u64 hits = 0;
  const Outcome off = run_scenario(false, scenario);
  const Outcome on = run_scenario(true, scenario, &hits);
  EXPECT_EQ(off.cycles, on.cycles) << name;
  EXPECT_EQ(off.instret, on.instret) << name;
  EXPECT_EQ(off.pc, on.pc) << name;
  EXPECT_EQ(off.s2, on.s2) << name;
  EXPECT_EQ(off.counters, on.counters) << name;
  EXPECT_GT(hits, 0u) << name << ": the decode cache never dispatched";
  return on;
}

/// An M-mode program at the reset PC, run to its ebreak.
Scenario bare(std::function<void(Assembler&)> prog) {
  return [prog = std::move(prog)](PhysMem&, Core& core) {
    Assembler a(core.config().reset_pc);
    prog(a);
    core.load_code(core.config().reset_pc, a.finish());
    EXPECT_EQ(core.run(100000).stop, StopReason::kEbreakHalt);
  };
}

// A loop whose loads read the value the previous iteration stored, so a
// read through a stale frame shows up in s2.
void build_carry_loop(Assembler& a) {
  auto loop = a.make_label();
  a.addi(Reg::kA0, Reg::kZero, 200);
  a.li(Reg::kT2, kDramBase + MiB(4));
  a.bind(loop);
  a.ld(Reg::kT1, Reg::kT2, 0);
  a.add(Reg::kS2, Reg::kS2, Reg::kT1);
  a.sd(Reg::kA0, Reg::kT2, 0);
  a.addi(Reg::kA0, Reg::kA0, -1);
  a.bne(Reg::kA0, Reg::kZero, loop);
  a.ebreak();
}

/// Minimal Sv39 builder: 4 KiB leaves, tables bump-allocated from a pool.
struct PageTables {
  PageTables(PhysMem& m, PhysAddr pool) : mem(m), next(pool), root(alloc()) {}

  PhysAddr alloc() {
    const PhysAddr p = next;
    next += kPageSize;
    return p;
  }

  /// Address of `va`'s level-0 PTE, creating the tables above it.
  PhysAddr leaf_slot(VirtAddr va) {
    PhysAddr table = root;
    for (unsigned level = 2; level > 0; --level) {
      const PhysAddr slot = table + bits(va, 12 + 9 * level, 9) * kPteSize;
      u64 e = mem.read_u64(slot);
      if (!pte::valid(e)) {
        e = pte::make_from_pa(alloc(), pte::kV);
        mem.write_u64(slot, e);
      }
      table = pte::pa(e);
    }
    return table + bits(va, 12, 9) * kPteSize;
  }

  static u64 leaf(PhysAddr pa, u64 flags) {
    return pte::make_from_pa(pa, flags | pte::kV | pte::kA | pte::kD);
  }
  void map(VirtAddr va, PhysAddr pa, u64 flags) {
    mem.write_u64(leaf_slot(va), leaf(pa, flags));
  }
  u64 satp(u16 asid) const {
    return isa::satp::make(isa::satp::kModeSv39, asid, root >> kPageShift, false);
  }

  PhysMem& mem;
  PhysAddr next;
  PhysAddr root;
};

// Paged layout shared by the scenarios below: two code pages, a data page,
// and a window onto the code's level-0 table so S-mode can remap itself.
constexpr VirtAddr kCode = 0x4'0000'0000;
constexpr VirtAddr kData = kCode + 0x10'0000;
constexpr VirtAddr kPtWindow = kCode + 0x1F'F000;
constexpr PhysAddr kTablePool = kDramBase + MiB(2);
constexpr PhysAddr kFrame0 = kDramBase + MiB(8);  // Code frames from here.
constexpr PhysAddr kDataFrame = kDramBase + MiB(12);
constexpr u64 kRwx = pte::kR | pte::kW | pte::kX;

void enter_supervisor(Core& core, u64 satp, VirtAddr pc) {
  core.write_csr(isa::csr::kSatp, satp, Privilege::kMachine);
  core.set_priv(Privilege::kSupervisor);
  core.set_pc(pc);
}

/// Write a 32-bit encoding at any 2-byte-aligned PA, one parcel at a time
/// (so it may straddle frames).
void put_inst(PhysMem& mem, PhysAddr lo_parcel, PhysAddr hi_parcel, u32 word) {
  mem.write_u16(lo_parcel, static_cast<u16>(word));
  mem.write_u16(hi_parcel, static_cast<u16>(word >> 16));
}

// S-mode loop calling two odd-placed functions: one whose first instruction
// sits at I-cache line offset 62 (its high parcel is in the next line), and
// one 32-bit instruction at page offset 4094 whose high parcel is on the
// second code page. With `remap`, every iteration then rewrites the second
// page's PTE to flip between two frames (whose high parcels encode different
// immediates) and runs sfence.vma — so the next straddle's re-walk happens
// on the classic path's high-parcel fetch, right under the block cache.
// s2 = 40 * 1 + the straddler's immediates (7 before a flip, 9 after).
Scenario straddle_scenario(bool remap) {
  return [remap](PhysMem& mem, Core& core) {
    PageTables pt(mem, kTablePool);
    const PhysAddr page1 = kFrame0 + kPageSize;
    const PhysAddr page1_alt = kFrame0 + 2 * kPageSize;
    pt.map(kCode, kFrame0, kRwx);
    pt.map(kCode + kPageSize, page1, kRwx);
    pt.map(kData, kDataFrame, pte::kR | pte::kW);
    const PhysAddr l0 = align_down(pt.leaf_slot(kCode), kPageSize);
    pt.map(kPtWindow, l0, pte::kR | pte::kW);
    const u64 slot_off = pt.leaf_slot(kCode + kPageSize) - l0;

    constexpr u64 kOdd = 0x83E;  // 0x83E % 64 == 62.
    constexpr u64 kStraddle = kPageSize - 2;
    Assembler a(kCode);
    auto loop = a.make_label();
    a.li(Reg::kS3, PageTables::leaf(page1_alt, kRwx));
    a.li(Reg::kS4, PageTables::leaf(page1, kRwx));
    a.li(Reg::kS5, kPtWindow + slot_off);
    a.li(Reg::kS6, kCode + kOdd);
    a.li(Reg::kS7, kCode + kStraddle);
    a.li(Reg::kT2, kData);
    a.addi(Reg::kA0, Reg::kZero, 40);
    a.bind(loop);
    a.jalr(Reg::kRa, Reg::kS6, 0);
    a.jalr(Reg::kRa, Reg::kS7, 0);
    if (remap) {
      a.sd(Reg::kS3, Reg::kS5, 0);
      a.sfence_vma();
      a.mv(Reg::kT1, Reg::kS3);
      a.mv(Reg::kS3, Reg::kS4);
      a.mv(Reg::kS4, Reg::kT1);
    }
    a.sd(Reg::kS2, Reg::kT2, 0);
    a.ld(Reg::kT3, Reg::kT2, 0);
    a.addi(Reg::kA0, Reg::kA0, -1);
    a.bne(Reg::kA0, Reg::kZero, loop);
    a.ebreak();
    core.load_code(kFrame0, a.finish());

    Assembler odd(kCode + kOdd);
    odd.addi(Reg::kS2, Reg::kS2, 1);
    odd.ret();
    core.load_code(kFrame0 + kOdd, odd.finish());

    const u32 ret = encode([](Assembler& x) { x.ret(); });
    put_inst(mem, kFrame0 + kStraddle, page1,
             encode([](Assembler& x) { x.addi(Reg::kS2, Reg::kS2, 7); }));
    put_inst(mem, page1 + 2, page1 + 4, ret);
    put_inst(mem, kFrame0 + kStraddle, page1_alt,
             encode([](Assembler& x) { x.addi(Reg::kS2, Reg::kS2, 9); }));
    put_inst(mem, page1_alt + 2, page1_alt + 4, ret);

    enter_supervisor(core, pt.satp(1), kCode);
    EXPECT_EQ(core.run(100000).stop, StopReason::kEbreakHalt);
  };
}

// Two address spaces (ASIDs 1 and 2) map the code VA to different frames
// holding the same loop with different immediates. The loop switches satp
// mid-block, so the next fetch — same VA, same block cursor — must come
// from the other frame. s2 = 50 * (5 + 3): the instruction after each
// switch executes from the address space just switched to.
Scenario satp_switch_scenario() {
  return [](PhysMem& mem, Core& core) {
    PageTables as1(mem, kTablePool);
    PageTables as2(mem, kTablePool + 8 * kPageSize);
    const PhysAddr frame2 = kFrame0 + 4 * kPageSize;
    as1.map(kCode, kFrame0, kRwx);
    as2.map(kCode, frame2, kRwx);
    as1.map(kData, kDataFrame, pte::kR | pte::kW);
    as2.map(kData, kDataFrame, pte::kR | pte::kW);
    auto emit = [&](PhysAddr frame, i64 after_to2, i64 after_to1) {
      Assembler a(kCode);
      auto loop = a.make_label();
      a.li(Reg::kS0, as1.satp(1));
      a.li(Reg::kS1, as2.satp(2));
      a.li(Reg::kT2, kData);
      a.addi(Reg::kA0, Reg::kZero, 50);
      a.bind(loop);
      a.addi(Reg::kA0, Reg::kA0, -1);
      a.csrrw(Reg::kZero, isa::csr::kSatp, Reg::kS1);
      a.addi(Reg::kS2, Reg::kS2, after_to2);
      a.csrrw(Reg::kZero, isa::csr::kSatp, Reg::kS0);
      a.addi(Reg::kS2, Reg::kS2, after_to1);
      a.sd(Reg::kS2, Reg::kT2, 0);
      a.ld(Reg::kT3, Reg::kT2, 0);
      a.bne(Reg::kA0, Reg::kZero, loop);
      a.ebreak();
      core.load_code(frame, a.finish());
    };
    emit(kFrame0, 100, 3);  // Reached in ASID 1.
    emit(frame2, 5, 100);   // Reached in ASID 2.
    enter_supervisor(core, as1.satp(1), kCode);
    EXPECT_EQ(core.run(100000).stop, StopReason::kEbreakHalt);
  };
}

// S-mode sret()s into a U page, which ecall()s back to the S trap handler:
// every iteration flips U -> S -> U across blocks keyed by privilege.
// s2 = 30 * (2 + 1).
Scenario privilege_flip_scenario() {
  return [](PhysMem& mem, Core& core) {
    PageTables pt(mem, kTablePool);
    const VirtAddr user = kCode + kPageSize;
    const PhysAddr user_frame = kFrame0 + kPageSize;
    pt.map(kCode, kFrame0, kRwx);
    pt.map(user, user_frame, kRwx | pte::kU);

    Assembler a(kCode);
    auto loop = a.make_label();
    auto handler = a.make_label();
    a.li(Reg::kT0, user);
    a.addi(Reg::kA0, Reg::kZero, 30);
    a.bind(loop);
    a.csrrw(Reg::kZero, isa::csr::kSepc, Reg::kT0);
    a.sret();  // sstatus.SPP is 0: to U.
    a.bind(handler);
    a.addi(Reg::kS2, Reg::kS2, 1);
    a.addi(Reg::kA0, Reg::kA0, -1);
    a.bne(Reg::kA0, Reg::kZero, loop);
    a.ebreak();
    const u64 handler_va = *a.label_address(handler);
    core.load_code(kFrame0, a.finish());

    Assembler u(user);
    u.addi(Reg::kS2, Reg::kS2, 2);
    u.ecall();
    core.load_code(user_frame, u.finish());

    core.write_csr(isa::csr::kStvec, handler_va, Privilege::kMachine);
    core.write_csr(isa::csr::kMedeleg,
                   u64{1} << static_cast<unsigned>(isa::TrapCause::kEcallFromU),
                   Privilege::kMachine);
    enter_supervisor(core, pt.satp(1), kCode);
    EXPECT_EQ(core.run(100000).stop, StopReason::kEbreakHalt);
  };
}

// M-mode writes a locked, execute-less NAPOT entry over the tail of the
// very block it is running in. The next fetch inside that entry must take
// an instruction access fault (mcause -> s2 in the handler), and data
// accesses either side of the write exercise the PMP match memo.
Scenario pmp_write_scenario() {
  return [](PhysMem&, Core& core) {
    const PhysAddr base = core.config().reset_pc;
    const PhysAddr guarded = base + 128;  // NAPOT [base+128, base+256).
    Assembler a(base);
    auto handler = a.make_label();
    a.li(Reg::kT2, kDramBase + MiB(4));
    a.sd(Reg::kT2, Reg::kT2, 0);
    a.ld(Reg::kT3, Reg::kT2, 0);
    a.li(Reg::kT1, (guarded >> 2) | 0xF);
    a.csrrw(Reg::kZero, isa::csr::kPmpaddr0, Reg::kT1);
    a.li(Reg::kT1, pmpcfg::kL | pmpcfg::kR |
                       (static_cast<u8>(PmpMatch::kNapot) << pmpcfg::kAShift));
    a.csrrw(Reg::kZero, isa::csr::kPmpcfg0, Reg::kT1);
    a.sd(Reg::kT3, Reg::kT2, 8);
    a.ld(Reg::kT3, Reg::kT2, 8);
    while (a.pc() < guarded + 64) a.nop();
    while (a.pc() < base + 512) a.ebreak();  // Never reached.
    a.bind(handler);
    a.csrrs(Reg::kS2, isa::csr::kMcause, Reg::kZero);
    a.csrrw(Reg::kZero, isa::csr::kMtvec, Reg::kZero);  // So ebreak halts.
    a.ebreak();
    const u64 handler_pa = *a.label_address(handler);
    core.load_code(base, a.finish());
    core.write_csr(isa::csr::kMtvec, handler_pa, Privilege::kMachine);
    EXPECT_EQ(core.run(100000).stop, StopReason::kEbreakHalt);
    EXPECT_EQ(core.read_csr(isa::csr::kMepc, Privilege::kMachine).value_or(0),
              guarded);
  };
}

// Run part of the carry loop, checkpoint (arch state + frames), run on,
// restore, and finish. restore_frames() rebuilds the frame table, so the
// PhysMem last-frame memo must not survive it: the first load after the
// restore has to read the checkpointed value.
Scenario checkpoint_scenario() {
  return [](PhysMem& mem, Core& core) {
    Assembler a(core.config().reset_pc);
    build_carry_loop(a);
    core.load_code(core.config().reset_pc, a.finish());
    core.run(300);
    const CoreArchState st = core.arch_state();
    const auto frames = mem.snapshot_frames();
    core.run(407);
    mem.restore_frames(frames);
    core.restore_arch_state(st);
    EXPECT_EQ(core.run(100000).stop, StopReason::kEbreakHalt);
  };
}

TEST(BBCache, SimulationBitIdenticalCacheOnVsOff) {
  expect_identical("smc", bare([](Assembler& a) { build_smc(a, false); }));
  expect_identical("smc+fence.i", bare([](Assembler& a) { build_smc(a, true); }));
  expect_identical("store/load loop", bare([](Assembler& a) {
    auto loop = a.make_label();
    a.addi(Reg::kA0, Reg::kZero, 200);
    a.li(Reg::kT2, kDramBase + MiB(4));
    a.bind(loop);
    a.addi(Reg::kA0, Reg::kA0, -1);
    a.sd(Reg::kA0, Reg::kT2, 0);
    a.ld(Reg::kT1, Reg::kT2, 0);
    a.add(Reg::kS2, Reg::kS2, Reg::kT1);
    a.bne(Reg::kA0, Reg::kZero, loop);
    a.ebreak();
  }));

  EXPECT_EQ(expect_identical("straddle", straddle_scenario(false)).s2, 40u * 8);
  EXPECT_EQ(expect_identical("remap+sfence", straddle_scenario(true)).s2,
            40u + 20 * 7 + 20 * 9);
  EXPECT_EQ(expect_identical("satp switch", satp_switch_scenario()).s2, 50u * 8);
  EXPECT_EQ(expect_identical("U<->S flip", privilege_flip_scenario()).s2, 30u * 3);
  EXPECT_EQ(expect_identical("pmpcfg write", pmp_write_scenario()).s2,
            static_cast<u64>(isa::TrapCause::kInstAccessFault));

  // The restored run must end as if the post-checkpoint detour never ran.
  const Outcome straight = run_scenario(true, bare(build_carry_loop));
  EXPECT_EQ(expect_identical("checkpoint restore", checkpoint_scenario()).s2,
            straight.s2);
  EXPECT_EQ(straight.s2, 200u * 201 / 2 - 1);  // Loads 0, 200, 199, ..., 2.
}

}  // namespace
}  // namespace ptstore
