// hostbench: host-speed benchmark of one workload.
//
//   hostbench --workload <guest_redis|campaign_mix|ptmc_2hart> --seed N
//             --seconds S --trace <0|1> [--spans PATH]
//
// Prints the host facts, the workload's headline numbers, its
// deterministic counts (the determinism self-test compares them), and as
// the last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the per-layer ones, and the spans go to --spans. Exit code 0
// when every output check passed, 1 when one failed, 2 on bad arguments.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

using hostbench::Options;
using hostbench::Report;

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload "
               "<guest_redis|campaign_mix|ptmc_2hart>\n"
               "                 --seed N --seconds S --trace <0|1> "
               "[--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && o.seconds > 0;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      o.trace = v == "1";
    } else if (a == "--spans") {
      o.spans_path = v;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  Report (*run)(const Options&, hostbench::Tracer*) = nullptr;
  if (o.workload == "guest_redis") run = hostbench::run_guest_redis;
  if (o.workload == "campaign_mix") run = hostbench::run_campaign_mix;
  if (o.workload == "ptmc_2hart") run = hostbench::run_ptmc_2hart;
  if (run == nullptr) return usage();

  // Numbers from different build types or machines are never compared.
  std::printf("host: build_type=%s flags=\"%s\" compiler=\"%s\" nproc=%ld\n",
              HOSTBENCH_BUILD_TYPE, HOSTBENCH_CXX_FLAGS, HOSTBENCH_COMPILER,
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);

  hostbench::Tracer tracer;
  const Report r = run(o, o.trace ? &tracer : nullptr);

  for (const auto& [name, m] : r.headline) {
    std::printf("%s = %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  const auto failed = static_cast<unsigned long long>(r.failed);
  const auto attempted = static_cast<unsigned long long>(r.attempted);
  std::printf("failed_frac = %.6g ratio (%llu of %llu attempted)\n",
              hostbench::ratio(static_cast<double>(failed),
                               static_cast<double>(attempted)),
              failed, attempted);
  for (const std::string& p : r.problems) {
    std::printf("FAILED: %s\n", p.c_str());
  }

  std::string counts = "{";
  for (const auto& [name, v] : r.counts) {
    if (counts.size() > 1) counts += ",";
    counts += "\"" + name + "\":" + std::to_string(v);
  }
  std::printf("counts: %s}\n", counts.c_str());

  if (o.trace && !o.spans_path.empty()) {
    if (tracer.write(o.spans_path)) {
      std::printf("spans: %zu written to %s\n", tracer.size(),
                  o.spans_path.c_str());
    } else {
      std::printf("spans: could not write %s\n", o.spans_path.c_str());
    }
  }

  const bool correct = r.failed == 0 && r.attempted > 0;
  std::string metrics;
  for (const auto& [name, m] : r.metrics) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", attempted, failed, metrics.c_str());
  return correct ? 0 : 1;
}
