// Forward-fixpoint engine tests: the widening join counts only joins that
// change a node (the reaching one included), moving registers go to ⊤ after
// kWidenAfter of them while steady ones keep their interval, a join that
// only drops known bits requeues without counting, unreached states never
// enter the worklist, and a function pointer materialised before a widening
// loop still resolves through the call graph.
#include "analysis/fixpoint.h"

#include <gtest/gtest.h>

#include <vector>

#include "analysis/callgraph.h"
#include "isa/assembler.h"

namespace ptstore::analysis {
namespace {

using isa::Assembler;
using isa::Reg;

constexpr u64 kBase = 0x8010'0000;
constexpr unsigned kT0 = 5;
constexpr unsigned kS2 = 18;

IntervalState with_t0(u64 v) {
  IntervalState st{.reached = true};
  st.regs[kT0] = Domain::exact(v);
  st.regs[kS2] = Domain::exact(0x1000);
  return st;
}

TEST(Fixpoint, LoopWidensAfterKWidenAfterChangingJoins) {
  // Node 0 enters a self-loop at node 1 that adds 8 to t0 on every trip.
  // The join that reaches node 1 counts, so node 1 sees exactly
  // kWidenAfter precise entry states before the next changing join sends
  // t0 to ⊤; s2 never moves and keeps its exact value.
  Fixpoint<IntervalState> fix;
  fix.seed(0, with_t0(0));
  std::vector<Domain> t0_at_loop;
  fix.run([&](u64 at, IntervalState st) {
    if (at == 0) {
      fix.join(1, st);
      return;
    }
    t0_at_loop.push_back(st.regs[kT0]);
    st.regs[kT0] = add_imm(st.regs[kT0], 8);
    fix.join(1, st);
  });

  ASSERT_EQ(t0_at_loop.size(), static_cast<size_t>(kWidenAfter + 1));
  for (int k = 0; k < kWidenAfter; ++k) {
    EXPECT_EQ(t0_at_loop[k].describe(),
              Domain::range(0, 8 * static_cast<u64>(k)).describe());
  }
  EXPECT_TRUE(t0_at_loop.back().is_top());
  ASSERT_NE(fix.state(1), nullptr);
  EXPECT_TRUE(fix.state(1)->regs[kT0].is_top());
  EXPECT_EQ(fix.state(1)->regs[kS2], Domain::exact(0x1000));
}

TEST(Fixpoint, JoinsThatChangeNothingDoNotCount) {
  Fixpoint<IntervalState> fix;
  fix.join(7, with_t0(0));  // Reaches node 7: changing join 1.
  for (int k = 1; k < kWidenAfter; ++k) {
    fix.join(7, with_t0(8 * static_cast<u64>(k)));  // Changing joins 2..4.
    // Anything inside the hull changes nothing and must not count.
    for (int rep = 0; rep < 2 * kWidenAfter; ++rep) fix.join(7, with_t0(0));
  }
  const u64 hull = 8 * static_cast<u64>(kWidenAfter - 1);
  EXPECT_EQ(fix.state(7)->regs[kT0].describe(),
            Domain::range(0, hull).describe());

  fix.join(7, with_t0(hull + 8));  // The first join past kWidenAfter.
  EXPECT_TRUE(fix.state(7)->regs[kT0].is_top());
  EXPECT_EQ(fix.state(7)->regs[kS2], Domain::exact(0x1000));

  // Only the kWidenAfter + 1 changing joins queued the node.
  int visits = 0;
  fix.run([&](u64, const IntervalState&) { ++visits; });
  EXPECT_EQ(visits, kWidenAfter + 1);
}

TEST(Fixpoint, JoinsThatOnlyDropKnownBitsDoNotCount) {
  // [0, 64] knows bits 0..5 are zero. Joining 32, 16, ..., 1 keeps the
  // interval but drops one of those bits each time: the node is requeued
  // (successors must see the weaker state) but the loop must not widen any
  // earlier than the intervals alone would make it.
  Fixpoint<IntervalState> fix;
  fix.join(7, with_t0(0));   // Reaches node 7: counted join 1.
  fix.join(7, with_t0(64));  // Counted join 2.
  int queued = 2;
  for (u64 bit = 32; bit != 0; bit >>= 1, ++queued) fix.join(7, with_t0(bit));
  EXPECT_EQ(fix.state(7)->regs[kT0].describe(), "[0x0, 0x40]");
  EXPECT_EQ(fix.state(7)->regs[kT0].kmask & 63, 0u);

  for (int k = 2; k < kWidenAfter; ++k, ++queued) {
    fix.join(7, with_t0(64 * static_cast<u64>(k)));  // Counted joins 3..4.
  }
  EXPECT_FALSE(fix.state(7)->regs[kT0].is_top());
  fix.join(7, with_t0(64 * static_cast<u64>(kWidenAfter)));
  ++queued;
  EXPECT_TRUE(fix.state(7)->regs[kT0].is_top());

  int visits = 0;
  fix.run([&](u64, const IntervalState&) { ++visits; });
  EXPECT_EQ(visits, queued);
}

TEST(Fixpoint, UnreachedSeedIsIgnored) {
  Fixpoint<IntervalState> fix;
  fix.seed(3, IntervalState{});
  fix.join(4, IntervalState{});
  int visits = 0;
  fix.run([&](u64, const IntervalState&) { ++visits; });
  EXPECT_EQ(visits, 0);
  EXPECT_EQ(fix.state(3), nullptr);
  EXPECT_EQ(fix.state(4), nullptr);
  EXPECT_EQ(fix.state(5), nullptr);  // Never mentioned at all.
}

TEST(Fixpoint, PointerBuiltBeforeAWideningLoopStillResolves) {
  // s1 (li) and s2 (auipc + addi) hold the helper's address across a loop
  // whose counter s3 widens to ⊤ and whose direct call clobbers the
  // caller-saved set. Both indirect calls after the loop must resolve.
  constexpr u64 kHelper = kBase + 4;
  constexpr u64 kWork = kBase + 8;
  Image img;
  img.base = kBase;
  {
    Assembler a(kBase);
    auto over = a.make_label();
    auto loop = a.make_label();
    auto work = a.make_label();
    a.j(over);
    a.ret();  // helper: reachable only through the resolved jalrs.
    a.bind(work);
    a.ret();
    a.bind(over);
    a.li(Reg::kS1, kHelper);
    const u64 auipc_pc = a.pc();
    a.auipc(Reg::kS2, 0);
    a.addi(Reg::kS2, Reg::kS2, static_cast<i64>(kHelper - auipc_pc));
    a.li(Reg::kS3, kBase + 0x1000);
    a.bind(loop);
    a.jal(Reg::kRa, work);
    a.addi(Reg::kS3, Reg::kS3, 8);
    a.bnez(Reg::kA0, loop);
    a.jalr(Reg::kRa, Reg::kS1, 0);
    a.jalr(Reg::kRa, Reg::kS2, 0);
    a.ebreak();
    img.words = a.finish();
    ASSERT_EQ(*a.label_address(work), kWork);
  }
  img.symbols = {{"entry", kBase}, {"helper", kHelper}, {"work", kWork}};

  const CallGraph cg = CallGraph::build(img);
  const Function* entry = cg.function_at(kBase);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->has_unresolved_call);
  ASSERT_EQ(entry->calls.size(), 3u);
  size_t to_helper = 0;
  for (const CallSite& cs : entry->calls) {
    EXPECT_TRUE(cs.resolved);
    ASSERT_EQ(cs.targets.size(), 1u);
    to_helper += cs.targets[0] == kHelper ? 1 : 0;
  }
  EXPECT_EQ(to_helper, 2u);
  ASSERT_NE(cg.function_at(kHelper), nullptr);
  EXPECT_EQ(cg.function_at(kHelper)->name, "helper");
}

}  // namespace
}  // namespace ptstore::analysis
