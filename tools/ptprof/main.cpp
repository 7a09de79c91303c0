// ptprof: exact call-stack profiles of simulated runs, and differential
// overhead attribution between isolation backends.
//
//   ptprof profile [--smoke] [--backend NAME] [--label L] [--top N]
//                  [--json <path>] [--folded <path>] [--flame <path>]
//                  [workload]
//   ptprof diff    [--smoke] [--backend NAME] [--label L] [--top N]
//                  [--json <path>] [--check PCT] [workload]
//   ptprof diff    --a <profile.json> --b <profile.json>
//                  [--json <path>] [--check PCT] [--top N]
//   ptprof flame   <profile.json> [--out <path>] [--label L] [--title T]
//                  [--width N]
//
// `profile` runs a registered workload with the call-stack profiler enabled
// (a pure observer: simulated timing is bit-identical to an unprofiled run)
// and prints the per-function self/inclusive table. `diff` runs the same
// workload twice — once with the stock backend, once with --backend
// (default ptauth) — filters both profiles to the defended configuration
// (--label, default cfi_ptstore), and ranks per-function cycle deltas: the
// paper's §VI overhead methodology, per function instead of per benchmark.
// --check PCT exits nonzero unless at least PCT% of the total cycle delta
// lands in named frames (not pseudo-roots or unsymbolized guest addresses).
// `flame` renders a saved ptstore.profile.v1 JSON as a self-contained SVG
// flamegraph; --folded output is flamegraph.pl-compatible.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "common/cli.h"
#include "kernel/kconfig.h"
#include "telemetry/flamegraph.h"
#include "telemetry/profile.h"
#include "workloads/runner.h"

namespace {

using namespace ptstore;
using namespace ptstore::workloads;

int usage(const char* argv0, int rc) {
  std::fprintf(
      stderr,
      "usage: %s profile [--smoke] [--backend NAME] [--label L] [--top N]\n"
      "       %*s         [--json <path>] [--folded <path>] [--flame <path>] "
      "[workload]\n"
      "       %s diff [--smoke] [--backend NAME] [--label L] [--top N]\n"
      "       %*s      [--json <path>] [--check PCT] [workload]\n"
      "       %s diff --a <profile.json> --b <profile.json> [--json <path>] "
      "[--check PCT]\n"
      "       %s flame <profile.json> [--out <path>] [--label L] [--title T] "
      "[--width N]\n",
      argv0, static_cast<int>(std::strlen(argv0)), "", argv0,
      static_cast<int>(std::strlen(argv0)), "", argv0, argv0);
  return rc;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::optional<telemetry::FoldedProfile> load_profile(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::optional<telemetry::FoldedProfile> p = telemetry::parse_profile_json(*text);
  if (!p) {
    std::fprintf(stderr, "%s is not a ptstore.profile.v1 JSON\n", path.c_str());
  }
  return p;
}

bool write_text(const std::string& path, const std::string& what,
                const std::function<void(std::ostream&)>& emit) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  emit(os);
  std::printf("%s -> %s\n", what.c_str(), path.c_str());
  return true;
}

/// Run `workload` once with the profiler on and return its folded snapshot.
/// The backend override (if any) is already set by the caller; the run's
/// stdout (the bench's own tables) is left visible on purpose.
std::optional<telemetry::FoldedProfile> profile_run(const std::string& workload) {
  std::unique_ptr<Workload> w = WorkloadRegistry::instance().make(workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return std::nullopt;
  }
  telemetry::enable_profiling();
  header(w->title());
  const int rc = w->run();
  telemetry::FoldedProfile p = telemetry::profiling()->snapshot();
  telemetry::disable_profiling();
  if (rc != 0 && !smoke_mode()) {
    std::fprintf(stderr, "workload '%s' exited %d\n", workload.c_str(), rc);
  }
  return p;
}

struct CommonArgs {
  std::string workload = "spec";
  std::string label;
  std::string json_path;
  std::string folded_path;
  std::string flame_path;
  std::string file_a;  ///< diff: saved profile instead of a live run.
  std::string file_b;
  std::string out_path;
  std::string title;
  size_t top_n = 20;
  size_t width = 1200;
  double check_pct = -1.0;  ///< diff: required attributed share, <0 = off.
  std::string backend = "ptauth";
  bool backend_set = false;
};

int run_profile(const CommonArgs& a) {
  if (a.backend_set) {
    const std::optional<BackendKind> k = backend_kind_from(a.backend);
    if (!k) {
      std::fprintf(stderr, "unknown backend '%s' (stock|ptstore|dpti|ptauth)\n",
                   a.backend.c_str());
      return 2;
    }
    set_backend_override(*k);
  }
  std::optional<telemetry::FoldedProfile> full = profile_run(a.workload);
  if (!full) return 2;
  const telemetry::FoldedProfile view =
      a.label.empty() ? *full : full->filter_label(a.label);

  std::printf("\ncall-stack profile%s%s:\n%s",
              a.label.empty() ? "" : " for configuration ",
              a.label.empty() ? "" : a.label.c_str(),
              telemetry::render_function_table(view, a.top_n).c_str());

  if (!a.json_path.empty() &&
      !write_text(a.json_path, "profile JSON", [&](std::ostream& os) {
        telemetry::write_profile_json(os, view);
      })) {
    return 2;
  }
  if (!a.folded_path.empty() &&
      !write_text(a.folded_path, "folded stacks", [&](std::ostream& os) {
        telemetry::write_folded(os, view);
      })) {
    return 2;
  }
  if (!a.flame_path.empty()) {
    telemetry::FlamegraphOptions opts;
    opts.width_px = a.width;
    if (!a.title.empty()) opts.title = a.title;
    if (!write_text(a.flame_path, "flamegraph SVG", [&](std::ostream& os) {
          telemetry::write_flamegraph_svg(os, view, opts);
        })) {
      return 2;
    }
  }
  return 0;
}

int finish_diff(const CommonArgs& a, const telemetry::FoldedProfile& pa,
                const telemetry::FoldedProfile& pb, const std::string& name_a,
                const std::string& name_b) {
  const telemetry::ProfileDiff d = telemetry::diff_profiles(pa, pb);
  std::printf("\n%s", telemetry::render_diff(d, name_a, name_b, a.top_n).c_str());
  if (!a.json_path.empty() &&
      !write_text(a.json_path, "diff JSON", [&](std::ostream& os) {
        telemetry::write_diff_json(os, d, name_a, name_b);
      })) {
    return 2;
  }
  if (a.check_pct >= 0.0 && d.attributed_pct < a.check_pct) {
    std::fprintf(stderr,
                 "FAIL: only %.1f%% of the %+lld-cycle delta is attributed to "
                 "named functions (need >= %.1f%%)\n",
                 d.attributed_pct, static_cast<long long>(d.total_delta),
                 a.check_pct);
    return 1;
  }
  if (a.check_pct >= 0.0) {
    std::printf("attribution check passed: %.1f%% >= %.1f%%\n",
                d.attributed_pct, a.check_pct);
  }
  return 0;
}

int run_diff(const CommonArgs& a0) {
  CommonArgs a = a0;
  if (!a.file_a.empty() || !a.file_b.empty()) {
    if (a.file_a.empty() || a.file_b.empty()) {
      std::fprintf(stderr, "diff needs both --a and --b (or neither)\n");
      return 2;
    }
    const auto pa = load_profile(a.file_a);
    const auto pb = load_profile(a.file_b);
    if (!pa || !pb) return 2;
    return finish_diff(a, *pa, *pb, a.file_a, a.file_b);
  }

  const std::optional<BackendKind> kind = backend_kind_from(a.backend);
  if (!kind) {
    std::fprintf(stderr, "unknown backend '%s' (stock|ptstore|dpti|ptauth)\n",
                 a.backend.c_str());
    return 2;
  }
  if (a.label.empty()) a.label = "cfi_ptstore";

  // Same workload, same seed/scale, twice in-process: the only variable is
  // which isolation backend the defended configuration boots with. The
  // simulator is deterministic, so every cycle of delta is backend cost.
  std::printf("== run A: backend=stock ==\n");
  set_backend_override(BackendKind::kStock);
  const auto pa = profile_run(a.workload);
  if (!pa) return 2;

  std::printf("\n== run B: backend=%s ==\n", a.backend.c_str());
  set_backend_override(*kind);
  const auto pb = profile_run(a.workload);
  if (!pb) return 2;

  return finish_diff(a, pa->filter_label(a.label), pb->filter_label(a.label),
                     "stock", a.backend);
}

int run_flame(const CommonArgs& a) {
  if (a.file_a.empty()) {
    std::fprintf(stderr, "flame needs a profile JSON path\n");
    return 2;
  }
  const auto p = load_profile(a.file_a);
  if (!p) return 2;
  const telemetry::FoldedProfile view =
      a.label.empty() ? *p : p->filter_label(a.label);
  telemetry::FlamegraphOptions opts;
  opts.width_px = a.width;
  if (!a.title.empty()) opts.title = a.title;
  const std::string out =
      a.out_path.empty() ? a.file_a + ".svg" : a.out_path;
  return write_text(out, "flamegraph SVG", [&](std::ostream& os) {
           telemetry::write_flamegraph_svg(os, view, opts);
         })
             ? 0
             : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0], 2);
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h") return usage(argv[0], 0);
  if (cmd != "profile" && cmd != "diff" && cmd != "flame") {
    return usage(argv[0], 2);
  }

  CommonArgs a;
  bool workload_set = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      setenv("PTSTORE_SMOKE", "1", 1);
    } else if (arg == "--backend" && i + 1 < argc) {
      a.backend = argv[++i];
      a.backend_set = true;
    } else if (arg.rfind("--backend=", 0) == 0) {
      a.backend = arg.substr(10);
      a.backend_set = true;
    } else if (arg == "--label" && i + 1 < argc) {
      a.label = argv[++i];
    } else if (arg == "--top" && i + 1 < argc) {
      u64 v = 0;
      if (!parse_count("ptprof", "--top", argv[++i], 0, SIZE_MAX, v)) return 2;
      a.top_n = static_cast<size_t>(v);
    } else if (arg == "--json" && i + 1 < argc) {
      a.json_path = argv[++i];
    } else if (arg == "--folded" && i + 1 < argc) {
      a.folded_path = argv[++i];
    } else if (arg == "--flame" && i + 1 < argc) {
      a.flame_path = argv[++i];
    } else if (arg == "--a" && i + 1 < argc) {
      a.file_a = argv[++i];
    } else if (arg == "--b" && i + 1 < argc) {
      a.file_b = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      a.out_path = argv[++i];
    } else if (arg == "--title" && i + 1 < argc) {
      a.title = argv[++i];
    } else if (arg == "--width" && i + 1 < argc) {
      u64 v = 0;
      if (!parse_count("ptprof", "--width", argv[++i], 0, SIZE_MAX, v)) {
        return 2;
      }
      a.width = static_cast<size_t>(v);
    } else if (arg == "--check" && i + 1 < argc) {
      if (!parse_real("ptprof", "--check", argv[++i], 0.0, 100.0,
                      a.check_pct)) {
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0], arg == "--help" || arg == "-h" ? 0 : 2);
    } else if (cmd == "flame" && a.file_a.empty()) {
      a.file_a = arg;
    } else if (!workload_set) {
      a.workload = arg;
      workload_set = true;
    } else {
      return usage(argv[0], 2);
    }
  }

  if (cmd == "profile") return run_profile(a);
  if (cmd == "diff") return run_diff(a);
  return run_flame(a);
}
