// Taint-lattice tests: class/argument bits, set descriptions, transfer
// through ALU shapes, and FlowState's join semantics (union on taint, hull
// on intervals, AND on the mediation must-flags).
#include <gtest/gtest.h>

#include "analysis/taint.h"
#include "isa/inst.h"

namespace ptstore::analysis {
namespace {

using isa::Inst;
using isa::Op;

Inst alu(Op op, u8 rd, u8 rs1, u8 rs2 = 0, i64 imm = 0) {
  Inst in;
  in.op = op;
  in.rd = rd;
  in.rs1 = rs1;
  in.rs2 = rs2;
  in.imm = imm;
  return in;
}

TEST(Taint, BitsAndNames) {
  EXPECT_EQ(kTaintToken & kTaintSecretMask, kTaintToken);
  EXPECT_EQ(taint_arg(0) & kTaintArgMask, taint_arg(0));
  EXPECT_EQ(taint_arg(7), TaintSet{1u << 15});
  EXPECT_STREQ(taint_class_name(kTaintMacKey), "mac-key");
  EXPECT_EQ(describe_taint(0), "{}");
  EXPECT_EQ(describe_taint(kTaintToken), "{token}");
  EXPECT_EQ(describe_taint(static_cast<TaintSet>(kTaintToken | taint_arg(2))),
            "{token, arg2}");
}

TEST(Taint, TransferPropagatesThroughAluAndClearsOnConstants) {
  std::array<TaintSet, 32> t{};
  t[5] = kTaintToken;
  t[6] = kTaintMacKey;

  // Immediate forms follow rs1.
  EXPECT_EQ(taint_after(alu(Op::kAddi, 7, 5, 0, 8), t), kTaintToken);
  EXPECT_EQ(taint_after(alu(Op::kSlli, 7, 6, 0, 3), t), kTaintMacKey);
  // Register forms union both sources (a MAC mixed from the key stays
  // key-derived).
  EXPECT_EQ(taint_after(alu(Op::kXor, 7, 5, 6), t),
            static_cast<TaintSet>(kTaintToken | kTaintMacKey));
  // Constants end a chain.
  EXPECT_EQ(taint_after(alu(Op::kLui, 5, 0, 0, 0x80000), t), TaintSet{0});
  // Loads are clean at this layer (the verifier re-taints from ranges).
  EXPECT_EQ(taint_after(alu(Op::kLd, 7, 5), t), TaintSet{0});
}

TEST(Taint, StepWritesRdAndKeepsX0Clean) {
  FlowState st = FlowState::entry(/*symbolic_args=*/false);
  st.taint[5] = kTaintCredential;
  st.step(0x1000, alu(Op::kAddi, 6, 5, 0, 4));
  EXPECT_EQ(st.taint[6], kTaintCredential);
  st.step(0x1004, alu(Op::kAddi, 0, 5, 0, 4));  // rd = x0 stays clean.
  EXPECT_EQ(st.taint[0], TaintSet{0});
  // Overwriting with a constant clears the register.
  st.step(0x1008, alu(Op::kLui, 6, 0, 0, 1));
  EXPECT_EQ(st.taint[6], TaintSet{0});
}

TEST(Taint, EntrySeedsSymbolicArguments) {
  const FlowState sym = FlowState::entry(/*symbolic_args=*/true);
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_EQ(sym.taint[10 + i], taint_arg(i));
  }
  const FlowState conc = FlowState::entry(/*symbolic_args=*/false);
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(conc.taint[r], TaintSet{0});
  }
  EXPECT_TRUE(conc.reached);
  EXPECT_TRUE(conc.regs[0].is_singleton());
}

TEST(Taint, JoinUnionsTaintAndAndsMustFlags) {
  FlowState a = FlowState::entry(false);
  a.taint[10] = kTaintToken;
  a.mediated = true;
  a.cred_written = true;
  a.regs[10] = Domain::exact(0x100);

  FlowState b = FlowState::entry(false);
  b.taint[10] = kTaintMacKey;
  b.mediated = false;
  b.cred_written = true;
  b.regs[10] = Domain::exact(0x200);

  EXPECT_TRUE(a.join_from(b));
  EXPECT_EQ(a.taint[10], static_cast<TaintSet>(kTaintToken | kTaintMacKey));
  EXPECT_FALSE(a.mediated);      // Must-flag: any unmediated path kills it.
  EXPECT_TRUE(a.cred_written);   // Held on both paths.
  EXPECT_EQ(a.regs[10].describe(), "[0x100, 0x200]");

  // Joining an unreached state is a no-op.
  FlowState unreached;
  EXPECT_FALSE(a.join_from(unreached));
  // Joining into an unreached state copies wholesale.
  FlowState fresh;
  EXPECT_TRUE(fresh.join_from(a));
  EXPECT_TRUE(fresh.reached);
  EXPECT_EQ(fresh.taint[10], a.taint[10]);
}

}  // namespace
}  // namespace ptstore::analysis
