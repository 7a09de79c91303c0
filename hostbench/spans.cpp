#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace hostbench {

std::map<std::string, SpanStats> Tracer::stats() const {
  // Children close before their parent, so summing each span's duration
  // into its parent's child time gives the covered part exactly.
  std::vector<u64> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.t1_ns - s.t0_ns;
    }
  }
  std::map<std::string, SpanStats> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanStats& st = out[s.name];
    const u64 dur = s.t1_ns - s.t0_ns;
    st.dur_s.push_back(static_cast<double>(dur) * 1e-9);
    st.self_s += static_cast<double>(dur - std::min(dur, child_ns[i])) * 1e-9;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"id\":%llu}}%s\n",
                  s.name, static_cast<double>(s.t0_ns) * 1e-3,
                  static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3, i, s.parent,
                  static_cast<unsigned long long>(s.id),
                  i + 1 == spans_.size() ? "" : ",");
    os << buf;
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double status_mib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream is(line.substr(std::string(field).size()));
      double kib = 0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

bool reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

const SpanStats& span_stats(const std::map<std::string, SpanStats>& all,
                            const std::string& name) {
  static const SpanStats kEmpty;
  auto it = all.find(name);
  return it == all.end() ? kEmpty : it->second;
}

void set_latency(Report& r, const std::string& name,
                 const std::vector<double>& secs, double scale,
                 const char* unit) {
  r.set(name + ".p50", percentile(secs, 50) * scale, unit);
  r.set(name + ".p99", percentile(secs, 99) * scale, unit);
  r.set(name + "_n", static_cast<double>(secs.size()), "count");
}

std::map<std::string, u64> counter_delta(const ptstore::StatSet& before,
                                         const ptstore::StatSet& after) {
  std::map<std::string, u64> out;
  for (const auto& [name, v] : after.counters()) {
    const u64 b = before.get(name);
    out[name] = v >= b ? v - b : 0;
  }
  return out;
}

}  // namespace hostbench
