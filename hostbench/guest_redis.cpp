// guest_redis: one cfi_ptstore machine serving a seeded mix of the 16
// Fig. 7 Redis command types to one client, in a closed loop. Each request
// is a send/recv syscall, a slice of real U-mode code on the interpreter,
// the abstract remainder of the command's cost, and one heap access. The
// heap is grown to 4096 pages during set-up (16 MiB against an 8-entry
// DTLB and a 16 KiB L1D); the code loop fits in L1I.
//
// A run is a sequence of repetitions, each on a freshly booted machine:
// set-up (boot, guest load, heap growth, warm-up), then one timed batch of
// requests. Batch b's requests come from shard_seed(seed, b); batch 0 is
// the fixed input whose simulated cycles and counters the determinism
// checks compare.
#include <algorithm>

#include "cache/cache.h"
#include "common/rng.h"
#include "harness/fleet.h"
#include "isa/inst.h"
#include "kernel/system.h"
#include "mmu/pte.h"
#include "workloads/netserver.h"
#include "workloads/runner.h"
#include "workloads/usercode.h"

#include "bench.h"

namespace hostbench {

namespace {

using namespace ptstore;

constexpr u64 kRequestsPerBatch = 2048;
/// Interpreted steps per request (bench_redis's real-code slice).
constexpr u64 kBudget = 1'000;
constexpr u64 kHeapPages = 4096;
constexpr VirtAddr kHeapBase = kUserSpaceBase + GiB(40);
constexpr u64 kWarmupRequests = 64;
/// Guest accesses (fetches, loads, stores) recorded for the probes.
constexpr size_t kCaptureSteps = 1 << 16;

struct Request {
  u8 cmd = 0;
  u32 heap_page = 0;
};

std::vector<Request> make_batch(u64 seed, u64 batch, size_t ncmds) {
  Rng rng(harness::shard_seed(seed, batch));
  std::vector<Request> out(kRequestsPerBatch);
  for (Request& r : out) {
    r.cmd = static_cast<u8>(rng.next_below(ncmds));
    r.heap_page = static_cast<u32>(rng.next_below(kHeapPages));
  }
  return out;
}

/// One access of the recorded guest stream, in program order.
struct Access {
  VirtAddr va = 0;
  AccessType type = AccessType::kExecute;
  u32 raw = 0;  ///< Instruction word (fetches).
};

struct Pass {
  double setup_s = 0;
  double timed_s = 0;
  u64 steps = 0;
  Cycles cycles = 0;
  std::map<std::string, u64> counters;
};

/// Boot, set up, and serve one batch. `capture` (traced run) receives the
/// first kCaptureSteps guest accesses; `probe` runs on the machine
/// after its counters are snapshotted.
template <typename Probe>
Pass serve(const std::vector<Request>& batch,
           const std::vector<workloads::RedisCase>& cmds, Report& r,
           Tracer* tr, std::vector<Access>* capture, Probe&& probe) {
  Pass p;
  r.attempted += batch.size();
  const auto t0 = Clock::now();
  auto created = [&] {
    Scope s(tr, "system.create");
    return System::create(SystemConfig::cfi_ptstore());
  }();
  if (!created.ok()) {
    r.fail("boot: " + created.error());
    return p;
  }
  System& sys = *created.value();
  Kernel& k = sys.kernel();
  Process& srv = sys.init();
  workloads::UserCompute uc(sys);
  {
    Scope s(tr, "setup.heap");
    if (!k.processes().add_vma(srv, kHeapBase, kHeapPages * kPageSize,
                               pte::kR | pte::kW)) {
      r.fail("heap vma");
      return p;
    }
    for (u64 i = 0; i < kHeapPages; ++i) {
      if (!k.user_access(srv, kHeapBase + i * kPageSize, true)) {
        r.fail("heap growth");
        return p;
      }
    }
  }
  {
    // Warm-up: loads the guest loop and warms the caches, TLBs and decode
    // cache before timing.
    Scope s(tr, "setup.warmup");
    for (u64 i = 0; i < kWarmupRequests; ++i) {
      (void)k.syscall(srv, Sys::kSendRecv);
      (void)uc.run(srv, kBudget);
    }
  }
  p.setup_s = seconds_between(t0, Clock::now());

  if (capture != nullptr) {
    sys.core().set_trace_hook(
        [capture](const Core& c, u64 pc, const isa::Inst& in) {
          if (capture->size() >= kCaptureSteps) return;
          capture->push_back({pc, AccessType::kExecute, in.raw});
          if (in.is_load() || in.is_store()) {
            const AccessType t =
                in.is_store() ? AccessType::kWrite : AccessType::kRead;
            capture->push_back(
                {c.reg(in.rs1) + static_cast<u64>(in.imm), t, 0});
          }
        });
  }

  workloads::TickModel tick;
  tick.reset(k);
  const StatSet before = sys.report();
  const Cycles c0 = sys.cycles();
  const Cycles cpi = sys.core().config().timing.base_cpi;
  u64 guest_satp = 0;
  const auto t1 = Clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    Scope req(tr, "request", i);
    const workloads::RedisCase& c = cmds[batch[i].cmd];
    bool ok;
    {
      Scope s(tr, "kernel.syscall", i);
      ok = k.syscall(srv, Sys::kSendRecv);
    }
    u64 n;
    {
      Scope s(tr, "workloads.usercompute.run", i);
      n = uc.run(srv, kBudget);
    }
    if (i == 0) guest_satp = sys.core().mmu().satp();
    p.steps += n;
    sys.core().retire_abstract(c.user_instrs - std::min(n, c.user_instrs),
                               cpi);
    {
      Scope s(tr, "kernel.user_access", i);
      const VirtAddr va = kHeapBase + u64{batch[i].heap_page} * kPageSize;
      ok = k.user_access(srv, va, c.allocates) && ok;
    }
    tick.advance(k);
    if (!ok || n != kBudget) {
      r.fail("request " + std::to_string(i) + " (" + c.name + "): " +
             (ok ? "slice retired " + std::to_string(n)
                 : std::string("syscall/access failed")));
    }
    if (capture != nullptr && capture->size() >= kCaptureSteps) {
      sys.core().set_trace_hook(nullptr);
      capture = nullptr;
    }
  }
  p.timed_s = seconds_between(t1, Clock::now());
  sys.core().set_trace_hook(nullptr);
  p.cycles = sys.cycles() - c0;
  p.counters = counter_delta(before, sys.report());
  probe(sys, guest_satp);
  return p;
}

void no_probe(System&, u64) {}

/// The traced run's layer probes: replay the recorded stream through
/// isa::decode_any, Mmu::translate, Cache::access and PmpUnit::check.
void run_probes(System& sys, u64 satp, const std::vector<Access>& stream,
                Report& r) {
  const size_t n = stream.size();
  // One latency sample per group of 256 calls, reported in ns.
  auto probe = [&r](const char* name, size_t calls, auto&& fn) {
    set_latency(r, name, probe_groups(calls, 256, fn), 1e9, "ns");
  };
  u64 sink = 0;
  std::vector<u32> words;
  for (const Access& a : stream) {
    if (a.type == AccessType::kExecute) words.push_back(a.raw);
  }
  probe("isa.decode_ns", words.size(), [&](size_t i) {
    sink += static_cast<u64>(isa::decode_any(words[i]).op);
  });

  Mmu& mmu = sys.core().mmu();
  mmu.set_satp(satp);
  const TranslationContext ctx{Privilege::kUser, false, false};
  std::vector<PhysAddr> pa(n, 0);
  u64 translate_faults = 0;
  probe("mmu.translate_ns", n, [&](size_t i) {
    const TranslateResult t = mmu.translate(stream[i].va, stream[i].type,
                                            AccessKind::kRegular, ctx);
    pa[i] = t.pa;
    translate_faults += t.ok ? 0 : 1;
  });
  if (translate_faults != 0) {
    r.fail("probe: recorded address failed to translate");
  }

  const CoreConfig& cc = sys.config().core;
  Cache l1i(cc.icache);
  Cache l1d(cc.dcache);
  probe("cache.access_ns", n, [&](size_t i) {
    Cache& c = stream[i].type == AccessType::kExecute ? l1i : l1d;
    sink += c.access(pa[i], stream[i].type == AccessType::kWrite).cycles;
  });

  const PmpUnit& pmp = sys.core().pmp();
  probe("pmp.check_ns", n, [&](size_t i) {
    const u64 size = stream[i].type == AccessType::kExecute ? 4 : 8;
    const PmpDecision d = pmp.check(pa[i], size, stream[i].type,
                                    AccessKind::kRegular, Privilege::kUser);
    sink += d.allowed ? 1 : 0;
  });
  if (sink == 0) r.fail("probe: no work observed");
}

bool same_fixed_input(const Pass& a, const Pass& b) {
  return a.cycles == b.cycles && a.steps == b.steps &&
         a.counters == b.counters;
}

void record_counts(Report& r, const Pass& p) {
  r.counts["sim_cycles"] = p.cycles;
  r.counts["interp_steps"] = p.steps;
  for (const auto& [name, v] : p.counters) r.counts[name] = v;
}

}  // namespace

Report run_guest_redis(const Options& o, Tracer* tr) {
  Report r;
  const std::vector<workloads::RedisCase> cmds = workloads::redis_cases();
  const std::vector<Request> fixed = make_batch(o.seed, 0, cmds.size());
  const auto start = Clock::now();
  const double budget = o.trace ? o.seconds / 2 : o.seconds;

  // Untraced repetitions: batch 0, then fresh batches until the time is up.
  std::vector<double> setup_s, rate;
  Pass first;
  for (u64 b = 0; b == 0 || seconds_between(start, Clock::now()) < budget;
       ++b) {
    const std::vector<Request> batch =
        b == 0 ? fixed : make_batch(o.seed, b, cmds.size());
    const Pass p = serve(batch, cmds, r, nullptr, nullptr, no_probe);
    if (b == 0) first = p;
    setup_s.push_back(p.setup_s);
    rate.push_back(ratio(static_cast<double>(p.steps), p.timed_s));
  }
  record_counts(r, first);
  r.headline["interp_steps_per_s"] = {best_rate(rate), "steps/s"};
  r.headline["sim_cycles"] = {static_cast<double>(first.cycles), "cycles"};

  if (!o.trace) {
    r.set("setup_s", best_time(setup_s), "s");
    r.set("work_per_s", best_rate(rate), "1/s");
    r.set("peak_rss_mib", peak_rss_mib(), "MiB");
    return r;
  }

  // An untraced reference pass and a traced pass over the same fixed batch
  // (the traced one then runs the probes); both must match the first pass.
  const Pass ref = serve(fixed, cmds, r, nullptr, nullptr, no_probe);
  std::vector<Access> stream;
  stream.reserve(2 * kCaptureSteps);
  const Pass traced =
      serve(fixed, cmds, r, tr, &stream,
            [&](System& sys, u64 satp) { run_probes(sys, satp, stream, r); });
  if (!same_fixed_input(first, ref) || !same_fixed_input(first, traced)) {
    r.fail("repeated or traced pass diverged on the fixed batch");
  }
  const auto spans = tr->stats();
  auto span = [&](const std::string& name) -> const SpanStats& {
    return span_stats(spans, name);
  };
  const auto count = [&](const char* name) {
    return static_cast<double>(get(traced.counters, name));
  };
  const double steps = static_cast<double>(traced.steps);
  const double itlb = count("ITLB.hits") + count("ITLB.misses");
  const double dtlb = count("DTLB.hits") + count("DTLB.misses");
  const double l1i = count("L1I.hits") + count("L1I.misses");
  const double l1d = count("L1D.hits") + count("L1D.misses");
  const double bb = count("bbcache.hits") + count("bbcache.misses");
  const SpanStats& run = span("workloads.usercompute.run");
  r.set("workloads.usercompute.busy_s", run.self_s, "s");
  r.set("cpu.ns_per_step", ratio(run.self_s * 1e9, steps), "ns");
  r.set("cpu.bbcache.hit_ratio", ratio(count("bbcache.hits"), bb), "ratio");
  r.set("cpu.bbcache.misses", count("bbcache.misses"), "count");
  r.set("mmu.translations_per_step", ratio(itlb + dtlb, steps), "ratio");
  r.set("mmu.itlb.miss_ratio", ratio(count("ITLB.misses"), itlb), "ratio");
  r.set("mmu.dtlb.miss_ratio", ratio(count("DTLB.misses"), dtlb), "ratio");
  r.set("mmu.walks", count("mmu.walks"), "count");
  r.set("cache.accesses_per_step", ratio(l1i + l1d, steps), "ratio");
  r.set("cache.l1i.miss_ratio", ratio(count("L1I.misses"), l1i), "ratio");
  r.set("cache.l1d.miss_ratio", ratio(count("L1D.misses"), l1d), "ratio");
  set_latency(r, "kernel.syscall_us", span("kernel.syscall").dur_s, 1e6, "us");
  r.set("kernel.user_access.busy_s", span("kernel.user_access").self_s, "s");
  r.set("sim_cycles", static_cast<double>(traced.cycles), "cycles");
  r.set("trace.overhead_frac",
        ratio(traced.timed_s - ref.timed_s, ref.timed_s), "ratio");
  return r;
}

}  // namespace hostbench
