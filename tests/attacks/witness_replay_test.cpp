// Witness replay harness: a well-formed trace must drive the concrete
// System to the predicted architectural fact, and tampered traces must
// fail gracefully (ok == false with a diagnostic) — never crash or
// false-positively verify.
#include "attacks/witness_replay.h"

#include <gtest/gtest.h>

#include "analysis/corpus.h"
#include "analysis/image.h"
#include "isa/assembler.h"

namespace ptstore::attacks {
namespace {

using analysis::Image;
using analysis::kCorpusBase;
using analysis::symexec::WitnessCheck;
using analysis::symexec::WitnessTrace;
using isa::Assembler;
using isa::Reg;

/// add t0 = a0 + 0x40; sd a1, 8(t0); ebreak
Image store_image() {
  Assembler a(kCorpusBase);
  a.addi(Reg::kT0, Reg::kA0, 0x40);
  a.sd(Reg::kA1, Reg::kT0, 8);
  a.ebreak();
  Image img;
  img.base = kCorpusBase;
  img.words = a.finish();
  img.symbols = {{"entry", kCorpusBase}};
  return img;
}

WitnessTrace store_witness() {
  WitnessTrace t;
  t.diag_pc = kCorpusBase + 4;
  t.rule_id = "PTL001";
  t.kind_name = "regular-touches-secure";
  t.check = WitnessCheck::kStore;
  t.ea = 0x80300048;        // a0 + 0x40 + 8
  t.value = 0xDEADBEEF;
  t.init_regs = {{10, 0x80300000}, {11, 0xDEADBEEF}};  // a0, a1
  t.path = {kCorpusBase, kCorpusBase + 4};
  return t;
}

TEST(WitnessReplay, GoodStoreWitnessReplays) {
  const auto r =
      replay_witness(store_image(), store_witness(), BackendKind::kPtstore);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.steps, u64{2});  // addi + the flagged sd
}

TEST(WitnessReplay, WrongPredictedAddressFailsGracefully) {
  WitnessTrace t = store_witness();
  t.ea += 8;  // tampered prediction
  const auto r = replay_witness(store_image(), t, BackendKind::kPtstore);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("effective address"), std::string::npos) << r.detail;
}

TEST(WitnessReplay, WrongPredictedValueFailsGracefully) {
  WitnessTrace t = store_witness();
  t.init_regs[1].second = 0x1234;  // a1 no longer stores t.value
  const auto r = replay_witness(store_image(), t, BackendKind::kPtstore);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("value"), std::string::npos) << r.detail;
}

TEST(WitnessReplay, PathDivergenceFailsGracefully) {
  WitnessTrace t = store_witness();
  t.path = {kCorpusBase, kCorpusBase + 8, kCorpusBase + 4};  // wrong order
  const auto r = replay_witness(store_image(), t, BackendKind::kPtstore);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("divergence"), std::string::npos) << r.detail;
}

TEST(WitnessReplay, MalformedEmptyPathFailsGracefully) {
  WitnessTrace t = store_witness();
  t.path.clear();
  const auto r = replay_witness(store_image(), t, BackendKind::kPtstore);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("malformed"), std::string::npos) << r.detail;
}

TEST(WitnessReplay, OutOfDramWitnessGetsScratchBacking) {
  // Store above the DRAM top: replay must scratch-map the page and open a
  // PMP window rather than fault on unbacked memory.
  Assembler a(kCorpusBase);
  a.li(Reg::kT0, kDramBase + MiB(512) + 0x1000);
  a.sd(Reg::kA1, Reg::kT0, 0);
  a.ebreak();
  Image img;
  img.base = kCorpusBase;
  img.words = a.finish();
  img.symbols = {{"entry", kCorpusBase}};

  WitnessTrace t;
  t.diag_pc = kCorpusBase + 4 * (img.words.size() - 2);
  t.check = WitnessCheck::kStore;
  t.ea = kDramBase + MiB(512) + 0x1000;
  t.value = 0x77;
  t.init_regs = {{11, 0x77}};
  t.path.clear();
  for (u64 pc = kCorpusBase; pc <= t.diag_pc; pc += 4) t.path.push_back(pc);
  const auto r = replay_witness(img, t, BackendKind::kPtstore);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(WitnessReplay, PagesSpannedStopsAtTheTopOfTheAddressSpace) {
  EXPECT_EQ(pages_spanned(0xfffffffffffffff0, 8),
            std::vector<u64>{0xfffffffffffff000});
  EXPECT_EQ(pages_spanned(0xfffffffffffffff8, 16),
            std::vector<u64>{0xfffffffffffff000});
  EXPECT_EQ(pages_spanned(0x1ffc, 8), (std::vector<u64>{0x1000, 0x2000}));
  EXPECT_EQ(pages_spanned(0x1000, kPageSize), std::vector<u64>{0x1000});
  EXPECT_TRUE(pages_spanned(0x1000, 0).empty());
}

TEST(WitnessReplay, CellInTheTopPageFinishes) {
  // A witness cell in the last page of the address space once made the page
  // loop wrap to 0 and collect pages until memory ran out. It is one page,
  // scratch-mapped like any other unbacked address.
  WitnessTrace t = store_witness();
  t.mem_cells.push_back({0xfffffffffffffff0, 0x1234, 8});
  const auto r = replay_witness(store_image(), t, BackendKind::kPtstore);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.steps, u64{2});
}

}  // namespace
}  // namespace ptstore::attacks
