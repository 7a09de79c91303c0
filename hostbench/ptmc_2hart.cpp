// ptmc_2hart: the full-defence 2-hart ptstore closure, then the `ipi`
// mutation stopping after P2. Only the analysis layer runs (no System).
// The closure is deterministic; the seed only picks the sample of states
// the traced run's ptmc::apply probe replays.
//
// One closed-loop operation is both verdicts. Set-up builds the model
// configurations and runs a depth-6 warm-up check (allocator and op
// tables), repeated kSetupRepeats times and kSetupRepeatsPerClosure times
// after each closure, so that it is sampled over the whole run.
#include "analysis/ptmc.h"
#include "common/rng.h"

#include "bench.h"

namespace hostbench {

namespace {

using namespace ptstore;
namespace ptmc = ptstore::analysis::ptmc;

// Reference closure of the full-defence 2-hart model.
constexpr u64 kStates = 990'980;
constexpr u64 kTransitions = 19'565'540;
constexpr u32 kDepth = 15;
constexpr size_t kCexSteps = 5;
constexpr unsigned kSetupRepeats = 9;
constexpr unsigned kSetupRepeatsPerClosure = 3;
constexpr size_t kApplySamples = 1 << 15;

struct Model {
  ptmc::ModelConfig full;
  ptmc::ModelConfig ipi;
};

/// The configurations ptmc's 2-hart tests use; empty `ipi.nharts` (0)
/// marks a matrix without the ipi entry.
Model make_model() {
  Model m;
  m.full.nharts = 2;
  m.full.max_states = 2'000'000;
  m.full.max_depth = 18;
  m.ipi.nharts = 0;
  for (const ptmc::MutationEntry& e : ptmc::mutation_matrix(m.full)) {
    if (std::string(e.name) != "ipi") continue;
    m.ipi = e.cfg;
    m.ipi.stop_after_violated = e.must_break;
  }
  ptmc::ModelConfig warm = m.full;
  warm.max_depth = 6;
  (void)ptmc::check(warm);
  return m;
}

struct Closure {
  double seconds = 0;
  ptmc::CheckResult full, ipi;
};

Closure run_closure(const Model& m, Report& r, Tracer* tr, u64 id) {
  Closure c;
  const auto t0 = Clock::now();
  {
    Scope s(tr, "ptmc.check.full", id);
    c.full = ptmc::check(m.full);
  }
  {
    Scope s(tr, "ptmc.check.ipi", id);
    c.ipi = ptmc::check(m.ipi);
  }
  c.seconds = seconds_between(t0, Clock::now());
  r.attempted += 2;
  const ptmc::CheckResult& f = c.full;
  if (!f.complete || !f.ok() || f.states != kStates ||
      f.transitions != kTransitions || f.depth != kDepth) {
    r.fail("full closure: " + f.format());
  }
  const ptmc::Counterexample* ce = c.ipi.counterexample_for(1);
  if (c.ipi.props_violated != ptmc::kP2 || ce == nullptr ||
      ce->steps.size() != kCexSteps ||
      ce->steps.back().op.kind != ptmc::OpKind::kUserAccess ||
      ce->steps.back().op.hart != 1) {
    r.fail("ipi mutation: expected the 5-step P2 stale-root counterexample; "
           "got " + c.ipi.format());
  }
  return c;
}

std::map<std::string, u64> closure_counts(const Closure& c) {
  const ptmc::Counterexample* ce = c.ipi.counterexample_for(1);
  return {{"ptmc.states", c.full.states},
          {"ptmc.transitions", c.full.transitions},
          {"ptmc.depth", c.full.depth},
          {"ptmc.ipi.states", c.ipi.states},
          {"ptmc.ipi.transitions", c.ipi.transitions},
          {"ptmc.cex_steps", ce == nullptr ? 0 : ce->steps.size()}};
}

/// Seeded random walks from the initial state: (state, op) pairs on which
/// the apply probe runs.
std::vector<std::pair<ptmc::State, ptmc::Op>> sample_states(
    const ptmc::ModelConfig& cfg, u64 seed) {
  const std::vector<ptmc::Op>& ops = ptmc::all_ops_smp();
  Rng rng(seed);
  std::vector<std::pair<ptmc::State, ptmc::Op>> out;
  ptmc::State s = ptmc::State::initial();
  unsigned len = 0;
  while (out.size() < kApplySamples) {
    const ptmc::Op& op = ops[rng.next_below(ops.size())];
    out.emplace_back(s, op);
    const auto next = ptmc::apply(s, op, cfg);
    if (next) s = next->next;
    if (++len == kDepth) {
      s = ptmc::State::initial();
      len = 0;
    }
  }
  return out;
}

}  // namespace

Report run_ptmc_2hart(const Options& o, Tracer* tr) {
  Report r;
  std::vector<double> setup_s;
  Model m;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    m = make_model();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  };
  for (unsigned i = 0; i < kSetupRepeats; ++i) set_up();
  if (m.ipi.nharts == 0) {
    r.fail("mutation matrix has no ipi entry at 2 harts");
    r.attempted = 1;
    return r;
  }

  // Closed loop: start another closure only when it fits the time budget.
  const auto start = Clock::now();
  const double budget = o.trace ? 0 : o.seconds;
  const double rss0 = status_mib("VmRSS:");
  std::vector<double> closure_s;
  Closure first;
  for (u64 i = 0;; ++i) {
    Closure c = run_closure(m, r, nullptr, i);
    closure_s.push_back(c.seconds);
    if (i == 0) first = std::move(c);
    if (seconds_between(start, Clock::now()) + closure_s.back() > budget) break;
    if (!o.trace) {
      for (unsigned k = 0; k < kSetupRepeatsPerClosure; ++k) set_up();
    }
  }
  const double first_peak = peak_rss_mib();
  r.counts = closure_counts(first);
  r.headline["ptmc_closure_s"] = {best_time(closure_s), "s"};

  if (!o.trace) {
    r.set("setup_s", best_time(setup_s), "s");
    r.set("work_per_s", 1.0 / best_time(closure_s), "1/s");
    r.set("peak_rss_mib", peak_rss_mib(), "MiB");
    return r;
  }

  // An untraced reference closure (the first one also paid the first
  // touches of its memory) and a traced one; both must match the first.
  const Closure ref = run_closure(m, r, nullptr, 1);
  const Closure traced = run_closure(m, r, tr, 2);
  if (closure_counts(ref) != r.counts || closure_counts(traced) != r.counts) {
    r.fail("repeated or traced closure diverged from the first");
  }
  // Probe ptmc::apply on a seeded sample of reachable states.
  const auto sample = sample_states(m.full, o.seed);
  u64 sink = 0;
  const std::vector<double> apply_s =
      probe_groups(sample.size(), 256, [&](size_t i) {
        const auto& [state, op] = sample[i];
        sink += ptmc::apply(state, op, m.full).has_value() ? 1 : 0;
      });
  if (sink == 0) r.fail("apply probe: no transition enabled in the sample");
  set_latency(r, "ptmc.apply_ns", apply_s, 1e9, "ns");

  const ptmc::CheckResult& f = traced.full;
  const double full_s = span_stats(tr->stats(), "ptmc.check.full").dur_s.at(0);
  const double states = static_cast<double>(f.states);
  const double transitions = static_cast<double>(f.transitions);
  const double apply_calls =
      states * static_cast<double>(ptmc::all_ops_smp().size());
  r.set("ptmc.states", states, "count");
  r.set("ptmc.transitions", transitions, "count");
  r.set("ptmc.depth", f.depth, "count");
  r.set("ptmc.cex_steps", static_cast<double>(r.counts["ptmc.cex_steps"]),
        "count");
  r.set("ptmc.states_per_s", ratio(states, full_s), "1/s");
  r.set("ptmc.dedup_ratio", ratio(states, transitions), "ratio");
  r.set("ptmc.search_ns_per_transition",
        ratio(full_s * 1e9 - apply_calls * percentile(apply_s, 50) * 1e9,
              transitions),
        "ns");
  r.set("ptmc.bytes_per_state",
        ratio((first_peak - rss0) * 1024 * 1024, states), "B");
  r.set("trace.overhead_frac",
        ratio(traced.seconds - ref.seconds, ref.seconds), "ratio");
  return r;
}

}  // namespace hostbench
