// Shared plumbing for the host-speed benchmark: run options, the result
// record each workload fills, span tracing around calls into the
// simulator's layers, and small timing/statistics helpers.
//
// Every number here is host time (std::chrono::steady_clock) unless its
// name says cycles. Spans are recorded only in the traced run; the
// untraced run passes a null Tracer and every Scope is a no-op.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace hostbench {

using ptstore::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< Where the traced run writes its spans.
};

/// One in-memory span: a call the benchmark made into a layer.
struct Span {
  const char* name = "";
  u64 t0_ns = 0;
  u64 t1_ns = 0;
  int parent = -1;  ///< Index of the enclosing span, -1 at top level.
  u64 id = 0;       ///< Request, shard or closure id.
};

/// Per-name aggregate: durations and self time (duration minus the time
/// covered by child spans).
struct SpanStats {
  std::vector<double> dur_s;
  double self_s = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  int open(const char* name, u64 id) {
    Span s;
    s.name = name;
    s.t0_ns = now_ns();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.id = id;
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int idx) {
    spans_[static_cast<size_t>(idx)].t1_ns = now_ns();
    stack_.pop_back();
  }

  /// Aggregate by span name.
  std::map<std::string, SpanStats> stats() const;
  /// Chrome trace_event JSON; returns false when the file cannot be written.
  bool write(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  u64 now_ns() const {
    const auto d = Clock::now() - origin_;
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; does nothing when `t` is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* t, const char* name, u64 id = 0)
      : t_(t), idx_(t != nullptr ? t->open(name, id) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run yields. `metrics` holds the end-to-end metrics in
/// the untraced run and the per-layer metrics in the traced run.
struct Report {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> problems;  ///< First few failure diagnoses.
  std::map<std::string, Metric> metrics;
  /// Deterministic counts of the fixed input (sim cycles, model counters),
  /// printed for the determinism self-test.
  std::map<std::string, u64> counts;
  /// Headline numbers under their workload-specific names, printed as
  /// human-readable lines.
  std::map<std::string, Metric> headline;

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 8) problems.push_back(why);
  }
  void set(const std::string& name, double v, const char* unit) {
    metrics[name] = Metric{v, unit};
  }
};

Report run_guest_redis(const Options& o, Tracer* tr);
Report run_campaign_mix(const Options& o, Tracer* tr);
Report run_ptmc_2hart(const Options& o, Tracer* tr);

// ---- helpers ----

/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
/// A run's host time or rate with the host's interference taken out: its
/// best sample. Other tenants' load slows samples down in phases of seconds
/// that cover a different share of each run, so a run's median moves with
/// that share; its best sample moves with the program.
inline double best_time(const std::vector<double>& s) {
  return percentile(s, 0);
}
inline double best_rate(const std::vector<double>& r) {
  return percentile(r, 100);
}
/// A /proc/self/status memory field of this process, in MiB: "VmHWM:" is
/// the peak resident set, "VmRSS:" the current one.
double status_mib(const char* field);
inline double peak_rss_mib() { return status_mib("VmHWM:"); }
/// Return the heap's free memory to the OS, then reset the peak resident
/// set to the current one (writing "5" to /proc/self/clear_refs, Linux 4.0
/// and later). False when the reset is refused.
bool reset_peak_rss();

/// The aggregate of spans named `name` (empty when none was recorded).
const SpanStats& span_stats(const std::map<std::string, SpanStats>& all,
                            const std::string& name);

/// Report a latency as `<name>.p50`, `<name>.p99` (in `unit`, scaled from
/// seconds by `scale`) and `<name>_n`.
void set_latency(Report& r, const std::string& name,
                 const std::vector<double>& secs, double scale,
                 const char* unit);

/// Counter deltas between two snapshots (after - before), by name.
std::map<std::string, u64> counter_delta(const ptstore::StatSet& before,
                                         const ptstore::StatSet& after);
inline u64 get(const std::map<std::string, u64>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}
inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Time `fn` over `calls` calls in groups of `group`, returning one
/// per-call average (seconds) per group: the probes' latency samples.
/// Single calls are too short for the clock, groups are not.
template <typename Fn>
std::vector<double> probe_groups(size_t calls, size_t group, Fn&& fn) {
  std::vector<double> out;
  for (size_t i = 0; i + group <= calls; i += group) {
    const auto t0 = Clock::now();
    for (size_t j = i; j < i + group; ++j) fn(j);
    const double s = seconds_between(t0, Clock::now());
    out.push_back(s / static_cast<double>(group));
  }
  return out;
}

}  // namespace hostbench
