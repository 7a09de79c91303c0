// Model-checker tests: the defences-on system proves P1-P4 over its entire
// reachable closure; each mutation-matrix entry breaks exactly its targeted
// properties with a shallow counterexample; exports are well-formed.
#include <gtest/gtest.h>

#include "analysis/ptmc.h"
#include "common/rng.h"
#include "telemetry/json.h"

namespace ptstore::analysis::ptmc {
namespace {

/// Exact closure size: any change to the transition semantics, the
/// alphabet or the dedup key moves at least one of these.
void expect_closure(const CheckResult& res, u64 states, u64 transitions,
                    u32 depth) {
  EXPECT_TRUE(res.ok()) << res.format();
  EXPECT_TRUE(res.complete) << res.format();
  EXPECT_EQ(res.states, states);
  EXPECT_EQ(res.transitions, transitions);
  EXPECT_EQ(res.depth, depth);
  EXPECT_TRUE(res.counterexamples.empty());
}

TEST(Ptmc, DefencesOnHoldExhaustively) {
  const CheckResult res = check(ModelConfig{});
  EXPECT_TRUE(res.ok()) << res.format();
  EXPECT_EQ(res.props_violated, 0u);
  // The default bounds exceed the closure: "holds" here means exhaustive
  // over the abstraction, not merely bound-limited.
  EXPECT_TRUE(res.complete) << res.format();
  EXPECT_FALSE(res.depth_capped);
  EXPECT_FALSE(res.state_capped);
  expect_closure(res, 253'570, 4'939'762, 14);
}

TEST(Ptmc, DptiSmpClosurePinned) {
  expect_closure(check(*backend_model("dpti", 2)), 737'410, 14'595'538, 15);
}

TEST(Ptmc, PtauthClosurePinned) {
  expect_closure(check(*backend_model("ptauth", 1)), 2'279'200, 53'272'720, 16);
}

TEST(Ptmc, BackendModelWidensBoundsOnlyWhereClosuresNeedIt) {
  EXPECT_FALSE(backend_model("sel4", 1).has_value());
  const ModelConfig ptstore = *backend_model("ptstore", 1);
  EXPECT_EQ(ptstore.max_states, ModelConfig{}.max_states);
  EXPECT_EQ(ptstore.max_depth, ModelConfig{}.max_depth);
  EXPECT_TRUE(ptstore.s_bit && ptstore.ptw_check && ptstore.token_check &&
              ptstore.zero_check);
  const ModelConfig stock = *backend_model("stock", 1);
  EXPECT_FALSE(stock.s_bit || stock.ptw_check || stock.token_check ||
               stock.zero_check);
  for (const char* name : {"ptstore", "stock", "dpti"})
    EXPECT_EQ(backend_model(name, 2)->max_states, 8'000'000u) << name;
  EXPECT_EQ(backend_model("ptauth", 1)->max_depth, 20u);
  EXPECT_EQ(backend_model("dpti", 2)->nharts, 2u);
}

TEST(Ptmc, StateBudgetCapsTheSearch) {
  ModelConfig cfg;
  cfg.max_states = 1'000;
  const CheckResult res = check(cfg);
  EXPECT_TRUE(res.state_capped);
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.states, 1'000u);
}

void expect_same_state(const State& a, const State& b) {
  EXPECT_EQ(a.boundary, b.boundary);
  for (unsigned i = 0; i < kNumPages; ++i) {
    EXPECT_EQ(a.pages[i].status, b.pages[i].status) << "page " << i;
    EXPECT_EQ(a.pages[i].content, b.pages[i].content) << "page " << i;
  }
  for (unsigned p = 0; p < kNumProcs; ++p) {
    EXPECT_EQ(a.procs[p].live, b.procs[p].live) << "proc " << p;
    EXPECT_EQ(a.procs[p].pgd, b.procs[p].pgd) << "proc " << p;
    EXPECT_EQ(a.procs[p].token, b.procs[p].token) << "proc " << p;
    EXPECT_EQ(a.procs[p].ghost_root, b.procs[p].ghost_root) << "proc " << p;
    EXPECT_EQ(a.procs[p].extra_pt, b.procs[p].extra_pt) << "proc " << p;
    EXPECT_EQ(a.tokens[p].live, b.tokens[p].live) << "token " << p;
    EXPECT_EQ(a.tokens[p].pt_page, b.tokens[p].pt_page) << "token " << p;
  }
  for (unsigned h = 0; h < 2; ++h) {
    EXPECT_EQ(a.satp_of(h).root, b.satp_of(h).root) << "hart " << h;
    EXPECT_EQ(a.satp_of(h).s, b.satp_of(h).s) << "hart " << h;
    EXPECT_EQ(a.satp_of(h).bound, b.satp_of(h).bound) << "hart " << h;
  }
  EXPECT_EQ(a.forced_alloc, b.forced_alloc);
}

void expect_round_trip(const State& s) {
  const u64 key = s.pack();
  const State back = State::unpack(key);
  EXPECT_EQ(back.pack(), key) << describe(s);
  expect_same_state(back, s);
}

TEST(Ptmc, UnpackInvertsPackOnRandomValidStates) {
  Rng rng(0x5eed'97c5ull);
  const auto page_or_none = [&] {
    const u8 v = static_cast<u8>(rng.next_below(kNumPages + 1));
    return v == kNumPages ? kNoPage : v;
  };
  const auto satp = [&] {
    return SatpState{page_or_none(), rng.next_below(2) == 1,
                     rng.next_below(2) == 1};
  };
  bool boundary_seen[2] = {};
  bool token_seen[4] = {};
  bool stale_satp1 = false;
  bool forced = false;
  for (unsigned n = 0; n < 4096; ++n) {
    State s;
    s.boundary = static_cast<u8>(1 + rng.next_below(2));
    for (PageState& pg : s.pages) {
      pg.status = static_cast<PageStatus>(rng.next_below(2));
      pg.content = static_cast<PageContent>(rng.next_below(3));
    }
    for (ProcState& pr : s.procs) {
      pr = {rng.next_below(2) == 1, page_or_none(),
            static_cast<TokenRef>(rng.next_below(4)), page_or_none(),
            page_or_none()};
      token_seen[static_cast<unsigned>(pr.token)] = true;
    }
    for (TokenState& t : s.tokens)
      t = {rng.next_below(2) == 1, static_cast<u8>(rng.next_below(kNumPages))};
    s.satp = satp();
    s.satp1 = satp();
    s.forced_alloc = page_or_none();
    boundary_seen[s.boundary - 1] = true;
    stale_satp1 |= s.satp1.root != kNoPage && !s.satp1.bound;
    forced |= s.forced_alloc != kNoPage;
    expect_round_trip(s);
    if (HasFailure()) return;
  }
  EXPECT_TRUE(boundary_seen[0] && boundary_seen[1]);
  for (bool seen : token_seen) EXPECT_TRUE(seen);
  EXPECT_TRUE(stale_satp1);
  EXPECT_TRUE(forced);
  expect_round_trip(State::initial());
}

TEST(Ptmc, UnpackInvertsPackAlongEveryMatrixCounterexample) {
  for (unsigned nharts = 1; nharts <= 2; ++nharts) {
    ModelConfig base;
    base.nharts = nharts;
    for (const MutationEntry& m : mutation_matrix(base)) {
      if (m.must_break == 0) continue;  // A closure with no counterexample.
      ModelConfig cfg = m.cfg;
      cfg.stop_after_violated = m.must_break;
      for (const Counterexample& ce : check(cfg).counterexamples) {
        for (const Step& st : ce.steps) expect_round_trip(st.after);
      }
    }
  }
}

TEST(Ptmc, PackDistinguishesStateComponents) {
  const State base = State::initial();
  const u64 key = base.pack();
  EXPECT_EQ(key, State::initial().pack());  // deterministic

  State s = base;
  s.boundary = 1;
  EXPECT_NE(s.pack(), key);
  s = base;
  s.pages[0].content = PageContent::kAttacker;
  EXPECT_NE(s.pack(), key);
  s = base;
  s.procs[1].live = true;
  EXPECT_NE(s.pack(), key);
  s = base;
  s.tokens[0].live = true;
  EXPECT_NE(s.pack(), key);
  s = base;
  s.satp.s = !s.satp.s;
  EXPECT_NE(s.pack(), key);
  s = base;
  s.forced_alloc = 2;
  EXPECT_NE(s.pack(), key);
}

TEST(Ptmc, OpAlphabetIsFixedAndDescribable) {
  const auto& ops = all_ops();
  EXPECT_EQ(ops.size(), 48u);
  for (const Op& op : ops) EXPECT_FALSE(describe(op).empty());
}

TEST(Ptmc, MutationMatrixBreaksExactlyItsTargets) {
  for (const MutationEntry& m : mutation_matrix(ModelConfig{})) {
    ModelConfig cfg = m.cfg;
    cfg.stop_after_violated = m.must_break;
    const CheckResult res = check(cfg);
    EXPECT_EQ(res.props_violated & m.must_break, m.must_break)
        << m.name << ": " << res.format();
    EXPECT_EQ(res.props_violated & ~(m.must_break | m.may_also_break), 0u)
        << m.name << ": " << res.format();
    for (unsigned p = 0; p < kNumProps; ++p) {
      if (!(res.props_violated & (1u << p))) continue;
      const Counterexample* ce = res.counterexample_for(p);
      ASSERT_NE(ce, nullptr) << m.name << " " << prop_name(p);
      ASSERT_FALSE(ce->steps.empty());
      // BFS order: counterexamples are shortest-first and stay shallow.
      EXPECT_LE(ce->steps.size(), 8u) << m.name << " " << prop_name(p);
      EXPECT_NE(ce->steps.back().violations & (1u << p), 0u);
    }
  }
}

TEST(Ptmc, PtwCheckAloneIsRedundantDefenceInDepth) {
  // Disabling only the walker check breaks nothing: token validation still
  // pins satp to kernel-issued roots, so no secure-PTE bypass is reachable.
  std::vector<MutationEntry> matrix = mutation_matrix(ModelConfig{});
  const MutationEntry* alone = nullptr;
  for (const MutationEntry& m : matrix) {
    if (std::string(m.name) == "ptw-alone") alone = &m;
  }
  ASSERT_NE(alone, nullptr);
  EXPECT_EQ(alone->must_break, 0u);
  const CheckResult res = check(alone->cfg);
  EXPECT_TRUE(res.ok()) << res.format();
  EXPECT_TRUE(res.complete);
}

TEST(Ptmc, CsrGadgetBreaksSatpBinding) {
  ModelConfig cfg;
  cfg.csr_gadget = true;
  cfg.stop_after_violated = kP2;
  const CheckResult res = check(cfg);
  EXPECT_NE(res.props_violated & kP2, 0u) << res.format();
  const Counterexample* ce = res.counterexample_for(1);
  ASSERT_NE(ce, nullptr);
  EXPECT_LE(ce->steps.size(), 2u);  // the gadget is a one-shot bypass
}

TEST(Ptmc, DotExportIsWellFormed) {
  ModelConfig cfg;
  cfg.token_check = false;
  cfg.stop_after_violated = kP2;
  const CheckResult res = check(cfg);
  const Counterexample* ce = res.counterexample_for(1);
  ASSERT_NE(ce, nullptr);
  const std::string dot = to_dot(*ce);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(dot.find('\t'), std::string::npos);
}

TEST(Ptmc, JsonExportParsesWithExpectedSchema) {
  ModelConfig cfg;
  cfg.token_check = false;
  cfg.stop_after_violated = kP2;
  const CheckResult res = check(cfg);
  const auto doc = telemetry::json_parse(to_json(res));
  ASSERT_TRUE(doc.has_value());
  const telemetry::JsonValue* props = doc->find("properties");
  ASSERT_NE(props, nullptr);
  ASSERT_TRUE(props->is_array());
  EXPECT_EQ(props->arr.size(), kNumProps);
  const telemetry::JsonValue* states = doc->find("states");
  ASSERT_NE(states, nullptr);
  EXPECT_GT(states->number, 0);
  const telemetry::JsonValue* ces = doc->find("counterexamples");
  ASSERT_NE(ces, nullptr);
  ASSERT_TRUE(ces->is_array());
  ASSERT_FALSE(ces->arr.empty());
  const telemetry::JsonValue* steps = ces->arr[0].find("steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_FALSE(steps->arr.empty());
  const telemetry::JsonValue* host = doc->find("host");
  ASSERT_NE(host, nullptr);
  ASSERT_NE(host->find("wall_s"), nullptr);
  ASSERT_NE(host->find("states_per_s"), nullptr);
  EXPECT_GE(host->find("wall_s")->number, 0);
  ASSERT_NE(host->find("workers"), nullptr);
  EXPECT_EQ(host->find("workers")->number, res.workers);
}

TEST(Ptmc, FormatSummarisesVerdicts) {
  ModelConfig cfg;
  cfg.token_check = false;
  cfg.stop_after_violated = kP2;
  const std::string text = check(cfg).format();
  EXPECT_NE(text.find("P2"), std::string::npos);
  EXPECT_NE(text.find("VIOLATED"), std::string::npos);
}

// Op IDs are an external ABI: counterexample JSON, replay logs, and the
// campaign reproducers all name ops by index. The alphabet is append-only —
// this golden pins every ID to its describe() string, so any reorder,
// removal, or mid-list insertion fails here instead of silently re-keying
// persisted counterexamples. New ops may only append past ID 50.
TEST(Ptmc, OpIdsAreAppendOnlyGolden) {
  static const char* const kGolden[] = {
      "spawn(p0)",
      "exit_mm(p0)",
      "switch_mm(p0)",
      "alloc_pt(p0)",
      "free_pt(p0)",
      "spawn(p1)",
      "exit_mm(p1)",
      "switch_mm(p1)",
      "alloc_pt(p1)",
      "free_pt(p1)",
      "grow_secure_region()",
      "user_access()",
      "atk: write page0",
      "atk: write page1",
      "atk: write page2",
      "atk: write page3",
      "atk: pcb[0].pgd = page0",
      "atk: pcb[0].pgd = page1",
      "atk: pcb[0].pgd = page2",
      "atk: pcb[0].pgd = page3",
      "atk: pcb[1].pgd = page0",
      "atk: pcb[1].pgd = page1",
      "atk: pcb[1].pgd = page2",
      "atk: pcb[1].pgd = page3",
      "atk: pcb[0].token = none",
      "atk: pcb[0].token = slot0",
      "atk: pcb[0].token = slot1",
      "atk: pcb[0].token = fake",
      "atk: pcb[1].token = none",
      "atk: pcb[1].token = slot0",
      "atk: pcb[1].token = slot1",
      "atk: pcb[1].token = fake",
      "atk: token_slot[0] := page0",
      "atk: token_slot[0] := page1",
      "atk: token_slot[0] := page2",
      "atk: token_slot[0] := page3",
      "atk: token_slot[1] := page0",
      "atk: token_slot[1] := page1",
      "atk: token_slot[1] := page2",
      "atk: token_slot[1] := page3",
      "atk: freelist head = page0",
      "atk: freelist head = page1",
      "atk: freelist head = page2",
      "atk: freelist head = page3",
      "atk: csrw satp = page0",
      "atk: csrw satp = page1",
      "atk: csrw satp = page2",
      "atk: csrw satp = page3",
      "switch_mm(p0)@h1",
      "switch_mm(p1)@h1",
      "user_access()@h1",
  };
  const auto& smp = all_ops_smp();
  ASSERT_EQ(smp.size(), std::size(kGolden));
  for (size_t i = 0; i < smp.size(); ++i) {
    EXPECT_EQ(describe(smp[i]), kGolden[i]) << "op ID " << i << " re-keyed";
  }
  // The single-hart alphabet is exactly the SMP alphabet's prefix.
  const auto& ops = all_ops();
  ASSERT_EQ(ops.size(), 48u);
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(describe(ops[i]), kGolden[i]);
  }
}

// ---- SMP model tests --------------------------------------------------------

TEST(Ptmc, SmpDefencesOnHoldExhaustively) {
  ModelConfig cfg;
  cfg.nharts = 2;
  cfg.max_states = 2'000'000;
  cfg.max_depth = 18;
  expect_closure(check(cfg), 990'980, 19'565'540, 15);
}

// Dropping the shootdown IPI is only observable with a second hart: the
// mutation matrix gains the entry at nharts >= 2, it breaks exactly P2, and
// the counterexample ends with the remote hart's user access through the
// stale, recycled root.
TEST(Ptmc, SmpIpiMutationBreaksP2WithStaleRootWitness) {
  ModelConfig base;
  base.nharts = 2;
  base.max_states = 2'000'000;
  base.max_depth = 18;
  bool found = false;
  for (const MutationEntry& m : mutation_matrix(base)) {
    if (std::string(m.name) != "ipi") continue;
    found = true;
    EXPECT_EQ(m.must_break, kP2);
    ModelConfig cfg = m.cfg;
    cfg.stop_after_violated = m.must_break;
    const CheckResult res = check(cfg);
    EXPECT_EQ(res.props_violated, kP2) << res.format();
    ASSERT_FALSE(res.counterexamples.empty());
    const Counterexample& ce = res.counterexamples.front();
    ASSERT_FALSE(ce.steps.empty());
    const Step& last = ce.steps.back();
    EXPECT_EQ(last.op.kind, OpKind::kUserAccess);
    EXPECT_EQ(last.op.hart, 1);
    EXPECT_NE(last.note.find("stale root"), std::string::npos) << last.note;
  }
  EXPECT_TRUE(found) << "mutation matrix lost its ipi entry at nharts=2";
  // ...and the entry must NOT exist on a single-hart model, where skipping
  // the IPI is unobservable and would poison the matrix with a vacuous row.
  for (const MutationEntry& m : mutation_matrix(ModelConfig{})) {
    EXPECT_NE(std::string(m.name), "ipi");
  }
}

// ---- Parallel search ---------------------------------------------------------

/// to_json() minus its run-to-run "host" object.
std::string json_without_host(CheckResult r) {
  r.wall_s = 0;
  r.workers = 1;
  return to_json(r);
}

// Every worker count must give the serial search's result: the same ids
// (so the same shortest counterexamples), counts and flags. Each
// configuration has a level of at least 1024 states, so the worker pool
// really runs; the early stop, the state budget and the depth bound each
// cut a pooled level short.
TEST(Ptmc, WorkerCountInvariance) {
  ModelConfig smp;
  smp.nharts = 2;
  smp.max_states = 2'000'000;
  smp.max_depth = 18;
  ModelConfig ipi;
  for (const MutationEntry& m : mutation_matrix(smp)) {
    if (std::string(m.name) != "ipi") continue;
    ipi = m.cfg;
    ipi.stop_after_violated = m.must_break;
  }
  ASSERT_EQ(ipi.nharts, 2u) << "mutation matrix lost its ipi entry";
  ModelConfig state_capped;
  state_capped.max_states = 5'000;
  ModelConfig depth_capped = smp;
  depth_capped.max_depth = 6;
  const std::pair<const char*, ModelConfig> configs[] = {
      {"1-hart closure", ModelConfig{}},
      {"2-hart dpti closure", *backend_model("dpti", 2)},
      {"2-hart ipi early stop", ipi},
      {"state-capped", state_capped},
      {"depth-capped", depth_capped},
  };
  for (const auto& [name, cfg] : configs) {
    SCOPED_TRACE(name);
    const CheckResult serial = check(cfg, 1);
    EXPECT_EQ(serial.workers, 1u);
    for (const unsigned workers : {2u, 3u, 8u}) {
      SCOPED_TRACE(workers);
      const CheckResult par = check(cfg, workers);
      EXPECT_EQ(par.workers, workers) << "the worker pool never ran";
      EXPECT_EQ(par.format(), serial.format());
      EXPECT_EQ(json_without_host(par), json_without_host(serial));
      ASSERT_EQ(par.counterexamples.size(), serial.counterexamples.size());
      for (size_t c = 0; c < par.counterexamples.size(); ++c) {
        const Counterexample& a = par.counterexamples[c];
        const Counterexample& b = serial.counterexamples[c];
        EXPECT_EQ(a.prop, b.prop);
        ASSERT_EQ(a.steps.size(), b.steps.size());
        for (size_t i = 0; i < a.steps.size(); ++i) {
          EXPECT_EQ(describe(a.steps[i].op), describe(b.steps[i].op));
          EXPECT_EQ(a.steps[i].after.pack(), b.steps[i].after.pack());
          EXPECT_EQ(a.steps[i].note, b.steps[i].note);
          EXPECT_EQ(a.steps[i].violations, b.steps[i].violations);
        }
      }
    }
  }
}

TEST(Ptmc, SmpPackDistinguishesSecondHartSatp) {
  ModelConfig cfg;
  cfg.nharts = 2;
  const State base = State::initial();
  State s = base;
  s.satp_of(1).root = 2;
  EXPECT_NE(s.pack(), base.pack());
  s = base;
  s.satp_of(1).bound = false;
  EXPECT_NE(s.pack(), base.pack());
}

}  // namespace
}  // namespace ptstore::analysis::ptmc
