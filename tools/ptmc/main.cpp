// ptmc CLI — bounded model checking of the PTStore reference monitor, with
// counterexample replay against the concrete simulator.
//
//   ptmc --all                 check P1..P4 with every defence on
//   ptmc --mutate sbit         disable one defence set, expect a violation
//   ptmc --matrix [--replay]   run the whole mutation matrix (the §V-E
//                              substitution argument, machine-checked)
//   ptmc --gadget              grant the attacker a satp-write gadget
//   ptmc --harts 2             two model harts: concurrent switch_mm /
//                              user_access interleavings + the shootdown
//                              protocol (see --mutate ipi)
//   ptmc --backend NAME        model another backend's capability set
//                              (stock | ptstore | dpti | ptauth); stock is
//                              expected to violate, like --mutate
//   ptmc --dot FILE            write the first counterexample as GraphViz
//   ptmc --json [FILE]         emit the CheckResult as JSON, with a "host"
//                              object {wall_s, states_per_s, workers}
//
// Every single check also prints a "host:" line (wall time, states/s,
// workers) on stderr, so stdout stays byte-stable across runs.
//
// Exit codes: 0 = expectations met, 1 = property/expectation failure,
// 2 = usage error (including a malformed or out-of-range number).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/ptmc.h"
#include "attacks/ptmc_replay.h"
#include "common/cli.h"

namespace {

using namespace ptstore;
namespace mc = analysis::ptmc;

int usage() {
  std::fprintf(stderr,
               "usage: ptmc [--all | --mutate NAME | --matrix] [options]\n"
               "  --all            prove P1..P4 under full defences (default)\n"
               "  --prop N         restrict the verdict to property N (1..4)\n"
               "  --mutate NAME    disable a defence set: ptw | token | sbit |\n"
               "                   zero | ptw-alone\n"
               "  --matrix         run every mutation entry and check its\n"
               "                   expected violations\n"
               "  --replay         replay each counterexample on the concrete\n"
               "                   simulator (mutated + stock)\n"
               "  --depth N        BFS depth bound (default 16; 20 with\n"
               "                   --harts 2 or --backend ptauth)\n"
               "  --states N       visited-state budget (default 600000;\n"
               "                   8000000 with --harts 2 or --backend\n"
               "                   ptauth; at most 4294967295)\n"
               "  --gadget         grant the attacker a satp-write gadget\n"
               "  --harts N        model harts (1 or 2; default 1)\n"
               "  --skip-ipi       sabotage: exit_mm skips shootdown IPIs\n"
               "  --backend NAME   capability set: stock | ptstore | dpti |\n"
               "                   ptauth (stock expects violations)\n"
               "  --no-grow        disable secure-region growth\n"
               "  --dot FILE       write first counterexample as GraphViz\n"
               "  --json [FILE]    emit result JSON (stdout without FILE)\n"
               "  -v               verbose (print traces)\n");
  return 2;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  if (!f) return false;
  f << text;
  return f.good();
}

void print_result(const mc::CheckResult& res, bool verbose) {
  std::fputs(res.format().c_str(), stdout);
  if (verbose) {
    for (const auto& ce : res.counterexamples) {
      std::printf("trace detail (%s):\n", mc::prop_name(ce.prop));
      mc::State prev = mc::State::initial();
      std::printf("    %s\n", mc::describe(prev).c_str());
      for (const auto& st : ce.steps) {
        std::printf("  %s\n    %s\n", mc::describe(st.op).c_str(),
                    mc::describe(st.after).c_str());
        prev = st.after;
      }
    }
  }
}

/// Host timing goes to stderr: it varies run to run, and stdout is compared
/// byte for byte against golden transcripts.
void print_host(const char* mutation, const mc::CheckResult& res) {
  std::fprintf(stderr, "host:%s%s %.3f s wall, %.0f states/s, %u worker(s)\n",
               *mutation != '\0' ? " mutation " : "", mutation, res.wall_s,
               res.states_per_s(), res.workers);
}

/// Replay every counterexample: mutated config must reproduce the attack,
/// the stock config must stop it. Returns false on any mismatch.
bool replay_all(const mc::CheckResult& res, bool verbose) {
  bool ok = true;
  for (const auto& ce : res.counterexamples) {
    const attacks::ReplayReport mut = attacks::replay_counterexample(ce);
    const attacks::ReplayReport stock = attacks::replay_on_stock(ce);
    std::printf("  replay %s: mutated -> %s; stock -> %s\n",
                mc::prop_name(ce.prop), attacks::to_string(mut.outcome),
                attacks::to_string(stock.outcome));
    if (verbose) {
      for (const auto& line : mut.log) std::printf("    [mut] %s\n", line.c_str());
      std::printf("    [mut] %s\n", mut.detail.c_str());
      for (const auto& line : stock.log)
        std::printf("    [stock] %s\n", line.c_str());
      std::printf("    [stock] %s\n", stock.detail.c_str());
    }
    if (mut.outcome != attacks::Outcome::kSucceeded) {
      std::printf("    FAIL: counterexample did not reproduce on the mutated "
                  "system (%s)\n",
                  mut.detail.c_str());
      ok = false;
    }
    if (!stock.defended()) {
      std::printf("    FAIL: stock system did not stop the trace (%s)\n",
                  stock.detail.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kAll, kMutate, kMatrix };
  Mode mode = Mode::kAll;
  std::string mutate_name;
  std::string backend = "ptstore";
  unsigned nharts = 1;
  u64 max_depth = 0;   // 0: the backend's default bound.
  u64 max_states = 0;  // 0: the backend's default budget.
  bool gadget = false;
  bool no_grow = false;
  bool skip_ipi = false;
  bool verbose = false;
  bool replay = false;
  int prop_filter = 0;
  std::string dot_path;
  bool json_out = false;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ptmc: %s needs an argument\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--all") {
      mode = Mode::kAll;
    } else if (arg == "--mutate") {
      const char* n = next("--mutate");
      if (n == nullptr) return usage();
      mode = Mode::kMutate;
      mutate_name = n;
    } else if (arg == "--matrix") {
      mode = Mode::kMatrix;
    } else if (arg == "--replay") {
      replay = true;
    } else if (arg == "--prop") {
      const char* n = next("--prop");
      u64 v = 0;
      if (n == nullptr ||
          !parse_count("ptmc", "--prop", n, 1, mc::kNumProps, v))
        return usage();
      prop_filter = static_cast<int>(v);
    } else if (arg == "--depth") {
      const char* n = next("--depth");
      if (n == nullptr ||
          !parse_count("ptmc", "--depth", n, 1, 0xFFFF'FFFFu, max_depth))
        return usage();
    } else if (arg == "--states") {
      const char* n = next("--states");
      if (n == nullptr ||
          !parse_count("ptmc", "--states", n, 1, mc::kMaxStates, max_states))
        return usage();
    } else if (arg == "--harts") {
      const char* n = next("--harts");
      u64 v = 0;
      if (n == nullptr || !parse_count("ptmc", "--harts", n, 1, 2, v))
        return usage();
      nharts = static_cast<unsigned>(v);
    } else if (arg == "--skip-ipi") {
      skip_ipi = true;
    } else if (arg == "--backend") {
      const char* n = next("--backend");
      if (n == nullptr) return usage();
      backend = n;
      if (!mc::backend_model(backend, 1)) {
        std::fprintf(stderr, "ptmc: unknown backend '%s'\n", n);
        return usage();
      }
    } else if (arg == "--gadget") {
      gadget = true;
    } else if (arg == "--no-grow") {
      no_grow = true;
    } else if (arg == "--dot") {
      const char* n = next("--dot");
      if (n == nullptr) return usage();
      dot_path = n;
    } else if (arg == "--json") {
      json_out = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (arg == "-v" || arg == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "ptmc: unknown argument '%s'\n", arg.c_str());
      return usage();
    }
  }

  // The backend sets the capability set and the default bounds; the other
  // flags and any explicit bound apply on top.
  mc::ModelConfig cfg = *mc::backend_model(backend, nharts);
  cfg.csr_gadget = gadget;
  cfg.allow_grow = !no_grow;
  cfg.ipi = !skip_ipi;
  if (max_depth != 0) cfg.max_depth = static_cast<u32>(max_depth);
  if (max_states != 0) cfg.max_states = max_states;
  const bool expect_breach = backend == "stock";
  // An undefended kernel violates everything; stop as soon as each checked
  // property has its counterexample instead of sweeping the huge closure.
  if (expect_breach) {
    cfg.stop_after_violated =
        prop_filter == 0 ? mc::kAllProps
                         : static_cast<u8>(1u << (prop_filter - 1));
  }

  if (mode == Mode::kMatrix) {
    bool ok = true;
    for (const auto& entry : mc::mutation_matrix(cfg)) {
      mc::ModelConfig mcfg = entry.cfg;
      mcfg.stop_after_violated = entry.must_break;
      const mc::CheckResult res = mc::check(mcfg);
      print_host(entry.name, res);
      const u8 unexpected =
          res.props_violated & static_cast<u8>(~(entry.must_break | entry.may_also_break));
      const bool entry_ok =
          (res.props_violated & entry.must_break) == entry.must_break &&
          unexpected == 0;
      std::printf("mutation '%s': violated={", entry.name);
      for (unsigned p = 0; p < mc::kNumProps; ++p)
        if (res.props_violated & (1u << p)) std::printf(" %s", mc::prop_name(p));
      std::printf(" } expected={");
      for (unsigned p = 0; p < mc::kNumProps; ++p)
        if (entry.must_break & (1u << p)) std::printf(" %s", mc::prop_name(p));
      std::printf(" } %s\n", entry_ok ? "ok" : "MISMATCH");
      if (verbose) {
        std::printf("  rationale: %s\n", entry.rationale);
        print_result(res, verbose);
      }
      if (!entry_ok) ok = false;
      if (replay && !replay_all(res, verbose)) ok = false;
      if (!dot_path.empty() && !res.counterexamples.empty()) {
        write_file(dot_path, mc::to_dot(res.counterexamples.front()));
        dot_path.clear();  // First counterexample only.
      }
    }
    return ok ? 0 : 1;
  }

  if (mode == Mode::kMutate) {
    bool found = false;
    for (const auto& entry : mc::mutation_matrix(cfg)) {
      if (mutate_name == entry.name) {
        cfg = entry.cfg;
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "ptmc: unknown mutation '%s'\n", mutate_name.c_str());
      return usage();
    }
  }

  const mc::CheckResult res = mc::check(cfg);
  print_result(res, verbose);
  print_host("", res);
  if (!dot_path.empty() && !res.counterexamples.empty())
    write_file(dot_path, mc::to_dot(res.counterexamples.front()));
  if (json_out) {
    const std::string doc = mc::to_json(res);
    if (json_path.empty())
      std::fputs((doc + "\n").c_str(), stdout);
    else if (!write_file(json_path, doc))
      return 2;
  }
  if (replay && !replay_all(res, verbose)) return 1;

  const u8 relevant =
      prop_filter == 0 ? mc::kAllProps : static_cast<u8>(1u << (prop_filter - 1));
  if (mode == Mode::kAll && !expect_breach)
    return (res.props_violated & relevant) == 0 ? 0 : 1;
  // --mutate / --backend stock: finding the violation is the expected outcome.
  return (res.props_violated & relevant) != 0 ? 0 : 1;
}
