// campaign_mix: randomized campaign shards driven through the harness's
// public op executor, one shard at a time (a closed loop, one client).
// Every shard is forked with System::create_from from a campaign
// checkpoint, so it starts with cold caches. Shards rotate over three kinds:
//
//   attack on PTStore       must stay clean;
//   attack on the stock kernel  must breach; its trace is minimized and
//                           the minimized trace must still fail on replay;
//   smp on a 2-hart PTStore machine, with race probes: must stay clean.
//
// The op mix follows ptcampaign's generator (harness/campaign.cpp); the
// benchmark generates every op itself from shard_seed(seed, shard), so the
// program only sees the resolved CampaignOp traces. Batch b is shards
// [b*kShardsPerBatch, (b+1)*kShardsPerBatch); batch 0 is the fixed input
// whose simulated cycles and counters the determinism checks compare.
#include "attacks/support.h"
#include "common/rng.h"
#include "harness/campaign.h"
#include "harness/fleet.h"
#include "kernel/system.h"
#include "mmu/pte.h"

#include "bench.h"

namespace hostbench {

namespace {

using namespace ptstore;
using harness::CampaignKind;
using harness::CampaignOp;
using OpKind = CampaignOp::Kind;

constexpr u64 kShardsPerBatch = 30;  ///< 10 of each kind.
constexpr u64 kOpsPerShard = 64;     ///< ptcampaign's default.
constexpr unsigned kSetupRepeats = 9;
/// peak_rss_mib is the process's peak RSS while it runs one shard from a
/// trimmed heap, averaged over this many shards. A shard's footprint
/// depends on its ops (grow materializes secure-region frames in 4 MiB
/// steps), so the peak of a whole run is the maximum over thousands of
/// shards: it jumps by a step or two from seed to seed, and rises with
/// every heavier shard a longer run happens to reach. The mean does not.
constexpr u64 kRssShards = 900;

// The generator's constants (harness/campaign.cpp).
constexpr VirtAddr kOpsVaBase = kUserSpaceBase + MiB(32);
constexpr u64 kOpsVaPages = 64;

u64 injected_pte() {
  return ((kDramBase >> kPageShift) << pte::kPpnShift) | pte::kV | pte::kR |
         pte::kW | pte::kX | pte::kU;
}

enum class ShardKind { kAttackPtstore = 0, kAttackStock = 1, kSmp = 2 };

struct Checkpoints {
  SystemCheckpoint ptstore, stock, smp;
};

Checkpoints make_checkpoints() {
  harness::CampaignSpec attack;
  attack.kind = CampaignKind::kAttack;
  harness::CampaignSpec stock = attack;
  stock.ptstore = false;
  harness::CampaignSpec smp;
  smp.kind = CampaignKind::kSmp;
  smp.nharts = 2;
  return {harness::campaign_checkpoint(attack),
          harness::campaign_checkpoint(stock),
          harness::campaign_checkpoint(smp)};
}

/// One op, drawn exactly as ptcampaign's run_op_shard draws it.
CampaignOp next_op(System& sys, CampaignKind kind, Rng& rng, u64 victim_pid,
                   const SecureRegion& sr) {
  std::vector<u64> pids;
  for (const auto& [pid, proc] : sys.kernel().processes().all()) {
    pids.push_back(pid);
  }
  const u64 init_pid = sys.init().pid;
  const u64 some_pid = pids[rng.next_below(pids.size())];
  const VirtAddr some_va = kOpsVaBase + rng.next_below(kOpsVaPages) * kPageSize;

  CampaignOp op;
  const u64 roll = rng.next_below(100);
  if (kind == CampaignKind::kSmp && roll < 12) {
    op = {OpKind::kRaceProbe, some_pid, some_va};
  } else if (kind == CampaignKind::kAttack && roll < 25) {
    switch (roll % 3) {
      case 0:
        op = {OpKind::kRwWriteLeaf, victim_pid, injected_pte()};
        break;
      case 1:
        if (sr.size() == 0) {
          op = {OpKind::kRwWriteLeaf, victim_pid, injected_pte()};
        } else {
          op = {OpKind::kRwWriteSecure, 0,
                sr.base + rng.next_below(sr.size() / 8) * 8};
        }
        break;
      default:
        op = {OpKind::kPcbRewire, some_pid,
              (kDramBase + MiB(2)) & ~u64{kPageMask}};
        break;
    }
  } else if (roll < 40) {
    op = {OpKind::kCopyMm, some_pid, 0};
  } else if (roll < 58) {
    op = {OpKind::kAllocPt, some_pid, some_va};
  } else if (roll < 70) {
    op = {OpKind::kFreePt, some_pid, some_va};
  } else if (roll < 86) {
    op = {OpKind::kSwitchMm, some_pid, 0};
  } else if (roll < 96) {
    const u64 pid =
        some_pid == init_pid || some_pid == victim_pid ? 0 : some_pid;
    op = pid == 0 ? CampaignOp{OpKind::kSwitchMm, init_pid, 0}
                  : CampaignOp{OpKind::kExitMm, pid, 0};
  } else {
    op = {OpKind::kGrow, 0, rng.next_below(3)};
  }
  if (kind == CampaignKind::kSmp && op.kind != OpKind::kRaceProbe) {
    op.hart = static_cast<u8>(rng.next_below(sys.nharts()));
  }
  return op;
}

/// Span name per op kind: protocol ops are the kernel layer, the rest the
/// attacks layer.
const char* op_span(OpKind k) {
  switch (k) {
    case OpKind::kCopyMm: return "kernel.proto.copy_mm";
    case OpKind::kAllocPt: return "kernel.proto.alloc_pt";
    case OpKind::kFreePt: return "kernel.proto.free_pt";
    case OpKind::kSwitchMm: return "kernel.proto.switch_mm";
    case OpKind::kExitMm: return "kernel.proto.exit_mm";
    case OpKind::kGrow: return "kernel.proto.grow";
    case OpKind::kRwWriteLeaf: return "attacks.rw_write_leaf";
    case OpKind::kRwWriteSecure: return "attacks.rw_write_secure";
    case OpKind::kPcbRewire: return "attacks.pcb_rewire";
    case OpKind::kRaceProbe: return "attacks.race_probe";
  }
  return "op";
}

struct Batch {
  double seconds = 0;
  u64 shards = 0;
  u64 ops = 0;
  u64 repro_before = 0, repro_after = 0;
  Cycles cycles = 0;
  StatSet stats;  ///< Sum of the shards' System::report().
  u64 shootdowns = 0, ipis = 0, translations = 0;
};

void run_shard(const Checkpoints& ck, u64 seed, u64 g, Batch& b, Report& r,
               Tracer* tr) {
  Scope shard_span(tr, "shard", g);
  const auto kind = static_cast<ShardKind>(g % 3);
  const CampaignKind ckind =
      kind == ShardKind::kSmp ? CampaignKind::kSmp : CampaignKind::kAttack;
  const SystemCheckpoint& base = kind == ShardKind::kAttackPtstore ? ck.ptstore
                                 : kind == ShardKind::kAttackStock ? ck.stock
                                                                   : ck.smp;
  ++r.attempted;
  ++b.shards;
  auto forked = [&] {
    Scope s(tr, "harness.fork", g);
    return System::create_from(base);
  }();
  if (!forked.ok()) {
    r.fail("shard " + std::to_string(g) + ": fork failed: " + forked.error());
    return;
  }
  System& sys = *forked.value();
  if (ckind == CampaignKind::kAttack) attacks::setup_victim(sys);
  const Process* current = sys.kernel().processes().current();
  const u64 victim_pid =
      ckind == CampaignKind::kAttack && current != nullptr ? current->pid : 0;
  const SecureRegion sr = sys.sbi().sr_get();
  Rng rng(harness::shard_seed(seed, g));
  std::vector<CampaignOp> trace;
  std::string violation;
  for (u64 i = 0; i < kOpsPerShard && violation.empty(); ++i) {
    const CampaignOp op = next_op(sys, ckind, rng, victim_pid, sr);
    trace.push_back(op);
    harness::OpResult res;
    {
      Scope s(tr, op_span(op.kind), g);
      res = harness::exec_campaign_op(sys, op, ckind);
    }
    ++b.ops;
    if (res.violation) {
      violation = std::string(to_string(op.kind)) + " -> " + res.status;
    }
  }

  const std::string who = "shard " + std::to_string(g) + ": ";
  if (kind == ShardKind::kAttackStock) {
    if (violation.empty()) {
      r.fail(who + "stock kernel did not breach");
    } else {
      std::vector<CampaignOp> minimized;
      {
        Scope s(tr, "harness.minimize", g);
        minimized = harness::minimize_trace(base, ckind, trace);
      }
      bool still_fails;
      {
        Scope s(tr, "harness.replay", g);
        still_fails = harness::replay_trace_fails(base, ckind, minimized);
      }
      if (!still_fails) r.fail(who + "minimized trace no longer fails");
      b.repro_before += trace.size();
      b.repro_after += minimized.size();
    }
  } else if (!violation.empty()) {
    r.fail(who + violation);
  }

  {
    Scope s(tr, "telemetry.report", g);
    b.stats.merge(sys.report());
  }
  for (unsigned h = 0; h < sys.nharts(); ++h) {
    b.cycles += sys.core(h).cycles();
    const StatSet hs = sys.core(h).merged_stats();
    b.translations += hs.get("ITLB.hits") + hs.get("ITLB.misses") +
                      hs.get("DTLB.hits") + hs.get("DTLB.misses");
  }
  b.shootdowns += sys.kernel().shootdowns();
  b.ipis += sys.kernel().ipis_sent();
}

Batch run_batch(const Checkpoints& ck, u64 seed, u64 batch, Report& r,
                Tracer* tr) {
  Batch b;
  const auto t0 = Clock::now();
  for (u64 i = 0; i < kShardsPerBatch; ++i) {
    run_shard(ck, seed, batch * kShardsPerBatch + i, b, r, tr);
  }
  b.seconds = seconds_between(t0, Clock::now());
  return b;
}

std::map<std::string, u64> batch_counts(const Batch& b) {
  std::map<std::string, u64> out = b.stats.counters();
  out["sim_cycles"] = b.cycles;
  out["campaign.ops"] = b.ops;
  out["campaign.repro_ops_before"] = b.repro_before;
  out["campaign.repro_ops_after"] = b.repro_after;
  out["kernel.shootdowns"] = b.shootdowns;
  out["kernel.ipis_sent"] = b.ipis;
  out["mmu.translations"] = b.translations;
  return out;
}

}  // namespace

Report run_campaign_mix(const Options& o, Tracer* tr) {
  Report r;
  const auto start = Clock::now();
  std::vector<double> setup_s;
  Checkpoints ck;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    ck = make_checkpoints();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  };
  for (unsigned i = 0; i < kSetupRepeats; ++i) set_up();

  // Memory, untimed: each of the first kRssShards shards runs with the
  // peak reset just before it, so the peak read after it is its own.
  double rss_sum = 0;
  if (!o.trace) {
    Batch unused;
    for (u64 g = 0; g < kRssShards; ++g) {
      if (!reset_peak_rss()) {
        r.fail("cannot reset the peak RSS through /proc/self/clear_refs");
        break;
      }
      run_shard(ck, o.seed, g, unused, r, nullptr);
      rss_sum += peak_rss_mib();
    }
  }

  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<double> rate;
  Batch first;
  for (u64 b = 0; b == 0 || seconds_between(start, Clock::now()) < budget;
       ++b) {
    Batch batch = run_batch(ck, o.seed, b, r, nullptr);
    rate.push_back(ratio(static_cast<double>(batch.shards), batch.seconds));
    if (b == 0) first = std::move(batch);
    // Set up again between batches (untimed by them), so that set-up is
    // sampled over the whole run, as work_per_s is.
    if (!o.trace) set_up();
  }
  r.counts = batch_counts(first);
  // The median, not best_rate: 30-shard batches differ in content (grow is
  // most of the time and varies from batch to batch), so the best batch
  // would be the lightest one, in the host's shortest fast phase.
  const double shards_per_s = percentile(rate, 50);
  r.headline["campaign_shards_per_s"] = {shards_per_s, "shards/s"};
  r.headline["sim_cycles"] = {static_cast<double>(first.cycles), "cycles"};

  if (!o.trace) {
    r.set("setup_s", best_time(setup_s), "s");
    r.set("work_per_s", shards_per_s, "1/s");
    r.set("peak_rss_mib", rss_sum / static_cast<double>(kRssShards), "MiB");
    return r;
  }

  // An untraced reference pass and a traced pass over batch 0; both must
  // match the first pass exactly.
  const Batch ref = run_batch(ck, o.seed, 0, r, nullptr);
  const Batch traced = run_batch(ck, o.seed, 0, r, tr);
  if (batch_counts(ref) != r.counts || batch_counts(traced) != r.counts) {
    r.fail("repeated or traced batch diverged from the first pass");
  }
  const auto spans = tr->stats();
  auto span = [&](const std::string& name) -> const SpanStats& {
    return span_stats(spans, name);
  };
  set_latency(r, "harness.fork_us", span("harness.fork").dur_s, 1e6, "us");
  set_latency(r, "harness.minimize_s", span("harness.minimize").dur_s, 1, "s");
  const auto count = [&](const char* name) {
    return static_cast<double>(get(r.counts, name));
  };
  r.set("harness.repro_len_ratio",
        ratio(count("campaign.repro_ops_after"),
              count("campaign.repro_ops_before")),
        "ratio");
  double op_total = 0;
  for (u8 k = 0; k <= static_cast<u8>(OpKind::kRaceProbe); ++k) {
    const std::string name = op_span(static_cast<OpKind>(k));
    const SpanStats& s = span(name);
    set_latency(r, name + "_us", s.dur_s, 1e6, "us");
    op_total += s.self_s;
  }
  r.set("kernel.proto.grow.share",
        ratio(span("kernel.proto.grow").self_s, op_total), "ratio");
  set_latency(r, "telemetry.report_us", span("telemetry.report").dur_s, 1e6,
              "us");
  for (const char* name :
       {"kernel.sr_adjustments", "page_alloc.ptstore_requests",
        "process.token_rejects", "kernel.shootdowns", "kernel.ipis_sent"}) {
    r.set(name, count(name), "count");
  }
  r.set("mmu.translations_per_op",
        ratio(count("mmu.translations"), count("campaign.ops")), "ratio");
  r.set("sim_cycles", count("sim_cycles"), "cycles");
  r.set("trace.overhead_frac",
        ratio(traced.seconds - ref.seconds, ref.seconds), "ratio");
  return r;
}

}  // namespace hostbench
