#include "analysis/ptflow.h"

#include <sstream>

#include "analysis/fixpoint.h"
#include "isa/csr.h"

namespace ptstore::analysis {
namespace {

using isa::Inst;
using isa::Op;

constexpr u8 kRegRa = 1;

/// Substitute a summary's symbolic argument bits with the caller's actual
/// taint at the call site.
TaintSet instantiate(TaintSet sum, const std::array<TaintSet, 32>& caller) {
  TaintSet out = sum & kTaintSecretMask;
  for (unsigned i = 0; i < 8; ++i) {
    if (sum & taint_arg(i)) out |= caller[10 + i];
  }
  return out;
}

/// Bottom-up summary of one function, computed against symbolic arguments.
struct FnSummary {
  TaintSet ret_taint[2] = {0, 0};  ///< a0/a1 at return.
  bool mediates = false;           ///< Every return path saw mediation.
  bool writes_cred = false;        ///< Every return path wrote the credential.
  bool is_mediation = false;       ///< The function IS a mediation entry.
  bool is_sink = false;            ///< The function IS a T3 sink.
  bool under_m2 = false;           ///< bind_root/rebind_root obligation.

  bool join_effects(const FnSummary& o) {
    bool changed = false;
    for (int i = 0; i < 2; ++i) {
      const TaintSet t = static_cast<TaintSet>(ret_taint[i] | o.ret_taint[i]);
      if (t != ret_taint[i]) {
        ret_taint[i] = t;
        changed = true;
      }
    }
    if (o.mediates && !mediates) {
      mediates = true;
      changed = true;
    }
    if (o.writes_cred && !writes_cred) {
      writes_cred = true;
      changed = true;
    }
    return changed;
  }
};

struct AccessInfo {
  bool is_load = false;
  bool is_store = false;
  bool pt = false;
  Domain addr;
  TaintSet value_taint = 0;  ///< Taint of the stored value (stores only).
};

AccessInfo classify_access(const Inst& in, const FlowState& st) {
  AccessInfo info;
  if (in.is_amo()) {
    info.is_load = true;
    info.is_store = true;
    info.addr = st.regs[in.rs1];
    info.value_taint = st.taint[in.rs2];
    return info;
  }
  if (in.is_load() || in.op == Op::kLdPt) {
    info.is_load = true;
    info.pt = in.op == Op::kLdPt;
    info.addr = add_imm(st.regs[in.rs1], in.imm);
    return info;
  }
  if (in.is_store() || in.op == Op::kSdPt) {
    info.is_store = true;
    info.pt = in.op == Op::kSdPt;
    info.addr = add_imm(st.regs[in.rs1], in.imm);
    info.value_taint = st.taint[in.rs2];
    return info;
  }
  return info;
}

/// Exit-state accumulator for one function analysis: AND over must-flags,
/// OR over return taints, across every return/tail-call path.
struct ExitAcc {
  bool any = false;
  bool mediated = true;
  bool cred_written = true;
  TaintSet ret[2] = {0, 0};

  void add(bool med, bool cred, TaintSet a0, TaintSet a1) {
    any = true;
    mediated = mediated && med;
    cred_written = cred_written && cred;
    ret[0] = static_cast<TaintSet>(ret[0] | a0);
    ret[1] = static_cast<TaintSet>(ret[1] | a1);
  }
};

class FlowVerifier {
 public:
  FlowVerifier(const Image& img, const FlowSpec& spec) : img_(img), spec_(spec) {}

  FlowReport run() {
    cg_ = CallGraph::build(img_, spec_.extra_roots);
    report_.function_count = cg_.functions().size();
    for (const Function& fn : cg_.functions()) {
      report_.callsite_count += fn.calls.size();
      summaries_[fn.entry] = seed_summary(fn);
    }
    compute_summaries();
    solve_contexts();
    check();
    return std::move(report_);
  }

 private:
  FnSummary seed_summary(const Function& fn) const {
    FnSummary s;
    s.is_mediation = name_in(fn.name, spec_.mediation_symbols);
    s.is_sink = name_in(fn.name, spec_.sink_symbols);
    s.under_m2 = name_in(fn.name, spec_.bind_symbols);
    return s;
  }

  static bool name_in(const std::string& name, const std::vector<std::string>& list) {
    for (const std::string& s : list) {
      if (s == name) return true;
    }
    return false;
  }

  // ---- the intra-procedural pass ----

  /// Analyze one function from `entry_state`. In check mode diags are
  /// emitted; context propagations to callees are recorded in `ctx_out`
  /// when non-null. Returns the function's exit accumulator.
  ExitAcc analyze(const Function& fn, const FlowState& entry_state,
                  bool check_mode,
                  std::map<u64, FlowState>* ctx_out) {
    const std::set<u64> owned(fn.blocks.begin(), fn.blocks.end());
    ExitAcc exits;
    Fixpoint<FlowState> fix;
    const auto propagate = [&](u64 to, const FlowState& next) {
      if (owned.count(to) != 0) fix.join(to, next);
    };

    FlowState seed = entry_state;
    if (summaries_[fn.entry].is_mediation) seed.mediated = true;
    fix.seed(fn.entry, seed);

    fix.run([&](u64 at, FlowState st) {
      const BasicBlock* bb = cg_.cfg().block_at(at);
      if (bb == nullptr || owned.count(at) == 0) return;

      for (u64 pc = bb->start; pc < bb->end; pc += 4) {
        const Inst in = img_.inst_at(pc);
        const AccessInfo acc = classify_access(in, st);

        if (acc.is_store) {
          if (check_mode) check_store(pc, acc, st);
          // M2 bookkeeping: a store provably confined to the credential
          // home commits the credential.
          if (spec_.cred_end > spec_.cred_base &&
              acc.addr.inside(spec_.cred_base, spec_.cred_end)) {
            st.cred_written = true;
          }
        }
        if (check_mode && writes_csr(in) &&
            (static_cast<u32>(in.imm) & 0xFFF) == isa::csr::kSatp) {
          if (spec_.m2 && summaries_[fn.entry].under_m2 && !st.cred_written) {
            diag(FlowDiagKind::kCredAfterWalkable, Severity::kViolation, pc,
                 "root becomes walkable before the credential is written "
                 "(bind path writes satp first)");
          }
        }

        st.step(pc, in);
        if (acc.is_load && in.rd != 0) {
          // Re-taint the loaded value from the spec's secret sources.
          st.taint[in.rd] = spec_.secret_taint(acc.addr);
        }
      }

      const u64 term_pc = bb->end - 4;
      const Inst term = img_.inst_at(term_pc);
      const CallSite* cs = fn.call_at(term_pc);

      if (cs != nullptr) {
        handle_call(*cs, term_pc, st, check_mode, ctx_out, &exits, propagate);
        return;
      }
      if (term.op == Op::kJalr && term.rd == 0 && term.rs1 == kRegRa) {
        exits.add(st.mediated, st.cred_written, st.taint[10], st.taint[11]);
        return;
      }
      for (const Edge& e : bb->succs) propagate(e.to, st);
    });
    return exits;
  }

  template <typename Propagate>
  void handle_call(const CallSite& cs, u64 pc, const FlowState& at_call,
                   bool check_mode, std::map<u64, FlowState>* ctx_out,
                   ExitAcc* exits, const Propagate& propagate_next) {
    // T3: a secret reaching a sink's argument registers (a0..a2).
    if (check_mode && spec_.t3) {
      for (const u64 t : cs.targets) {
        auto it = summaries_.find(t);
        if (it == summaries_.end() || !it->second.is_sink) continue;
        const TaintSet args = static_cast<TaintSet>(
            (at_call.taint[10] | at_call.taint[11] | at_call.taint[12]) &
            kTaintSecretMask);
        if (args != 0) {
          diag(FlowDiagKind::kSecretToSink, Severity::kViolation, pc,
               "secret " + describe_taint(args) +
                   " reaches trace/telemetry sink '" + callee_name(t) + "'");
        }
      }
    }

    // Record the calling context for every resolved callee.
    if (ctx_out != nullptr) {
      for (const u64 t : cs.targets) (*ctx_out)[t].join_from(at_call);
    }

    // Summary effects of the callee set: must-flags AND over all possible
    // targets, return taint OR.
    bool callee_mediates = cs.resolved && !cs.targets.empty();
    bool callee_writes_cred = callee_mediates;
    TaintSet ret0 = 0, ret1 = 0;
    for (const u64 t : cs.targets) {
      const FnSummary& sum = summaries_[t];
      callee_mediates = callee_mediates && (sum.mediates || sum.is_mediation);
      callee_writes_cred = callee_writes_cred && sum.writes_cred;
      ret0 |= instantiate(sum.ret_taint[0], at_call.taint);
      ret1 |= instantiate(sum.ret_taint[1], at_call.taint);
    }
    if (!cs.resolved) {
      if (check_mode) {
        diag(FlowDiagKind::kUnresolvedCall, Severity::kNote, pc,
             "indirect call target is not statically resolvable; callee "
             "effects over-approximated (havoc)");
        ++report_.unresolved_calls;
      }
    }

    if (cs.tail) {
      // The callee's returns are this function's returns. Must-facts that
      // held at the transfer survive; the callee may add its own.
      exits->add(at_call.mediated || callee_mediates,
                 at_call.cred_written || callee_writes_cred, ret0, ret1);
      return;
    }

    FlowState next = at_call;
    clobber_caller_saved(next.regs);
    for (const u8 r : kCallerSaved) next.taint[r] = 0;
    next.taint[10] = ret0;
    next.taint[11] = ret1;
    if (callee_mediates) next.mediated = true;
    if (callee_writes_cred) next.cred_written = true;
    const BasicBlock* bb = cg_.cfg().block_containing(pc);
    if (bb != nullptr) {
      for (const Edge& e : bb->succs) {
        if (e.kind == EdgeKind::kCallReturn) propagate_next(e.to, next);
      }
    }
  }

  // ---- rule checks ----

  void check_store(u64 pc, const AccessInfo& acc, const FlowState& st) {
    const TaintSet secret =
        static_cast<TaintSet>(acc.value_taint & kTaintSecretMask);
    if (secret != 0) {
      if (spec_.t2 && acc.addr.may_overlap(spec_.user_base, spec_.user_end)) {
        diag(FlowDiagKind::kSecretToUser, Severity::kViolation, pc,
             "secret " + describe_taint(secret) +
                 " stored to U-mode-readable memory, address " +
                 acc.addr.describe());
        return;
      }
      if (spec_.t1 && !acc.addr.inside(spec_.sr_base, spec_.sr_end) &&
          !spec_.sanctioned_dest(acc.addr)) {
        diag(FlowDiagKind::kSecretEscapes, Severity::kViolation, pc,
             "secret " + describe_taint(secret) +
                 " escapes the secure region, address " + acc.addr.describe());
        return;
      }
    }
    if (spec_.m1 && acc.addr.may_overlap(spec_.pt_base, spec_.pt_end)) {
      const bool mediated =
          st.mediated || (acc.pt && spec_.pt_insn_mediates);
      if (!mediated) {
        if (acc.addr.is_top()) {
          diag(FlowDiagKind::kUnconstrainedStore, Severity::kNote, pc,
               "store address is unconstrained; PT-page aliasing checked "
               "dynamically");
        } else {
          diag(FlowDiagKind::kUnmediatedPtStore, Severity::kViolation, pc,
               "store may alias a page-table page (address " +
                   acc.addr.describe() +
                   ") without a dominating mediation call");
        }
      }
    }
  }

  // ---- phase drivers ----

  void compute_summaries() {
    // bottom_up() keeps SCC members adjacent: iterate each group until its
    // summaries stop changing. That always happens: join_effects only grows
    // a finite lattice (two taint sets, two must-flags that only flip
    // pessimistic->established), however many rounds a long recursion
    // ring needs to carry a fact against the member order.
    const std::vector<u64>& order = cg_.bottom_up();
    size_t i = 0;
    while (i < order.size()) {
      size_t j = i;
      const size_t scc = cg_.scc_id(order[i]);
      while (j < order.size() && cg_.scc_id(order[j]) == scc) ++j;
      for (bool changed = true; changed;) {
        changed = false;
        for (size_t k = i; k < j; ++k) {
          const Function* fn = cg_.function_at(order[k]);
          if (fn == nullptr) continue;
          const ExitAcc exits =
              analyze(*fn, FlowState::entry(/*symbolic_args=*/true),
                      /*check_mode=*/false, nullptr);
          FnSummary next;
          if (exits.any) {
            next.ret_taint[0] = exits.ret[0];
            next.ret_taint[1] = exits.ret[1];
            next.mediates = exits.mediated;
            next.writes_cred = exits.cred_written;
          }
          changed = summaries_[fn->entry].join_effects(next) || changed;
        }
      }
      i = j;
    }
  }

  void solve_contexts() {
    const FlowState root = FlowState::entry(/*symbolic_args=*/false);
    const auto seed = [&](u64 e) {
      if (cg_.function_at(e) != nullptr) contexts_.seed(e, root);
    };
    seed(img_.base);
    for (const u64 r : spec_.extra_roots) seed(r);

    contexts_.run([&](u64 at, const FlowState& ctx) {
      const Function* fn = cg_.function_at(at);
      if (fn == nullptr) return;
      std::map<u64, FlowState> calls;
      analyze(*fn, ctx, /*check_mode=*/false, &calls);
      for (const auto& [callee, st] : calls) contexts_.join(callee, st);
    });
  }

  void check() {
    for (const Function& fn : cg_.functions()) {
      const FlowState* ctx = contexts_.state(fn.entry);
      if (ctx != nullptr) analyze(fn, *ctx, /*check_mode=*/true, nullptr);
    }
  }

  std::string callee_name(u64 entry) const {
    const Function* fn = cg_.function_at(entry);
    return fn != nullptr ? fn->name : "?";
  }

  void diag(FlowDiagKind kind, Severity sev, u64 pc, std::string message) {
    if (!seen_.insert({static_cast<u8>(kind), pc}).second) return;
    FlowDiag d;
    d.kind = kind;
    d.sev = sev;
    d.pc = pc;
    d.message = img_.locate(pc) + ": " + std::move(message);
    d.context = img_.disassembly_context(pc);
    report_.diags.push_back(std::move(d));
  }

  const Image& img_;
  const FlowSpec& spec_;
  CallGraph cg_;
  std::map<u64, FnSummary> summaries_;
  Fixpoint<FlowState> contexts_;
  std::set<std::pair<u8, u64>> seen_;
  FlowReport report_;
};

}  // namespace

FlowSpec FlowSpec::for_backend(BackendKind k, u64 sr_base, u64 sr_end) {
  const FlowAnnotation& ann = flow_annotation(k);
  FlowSpec s;
  s.backend = ann.kind;
  s.sr_base = sr_base;
  s.sr_end = sr_end;
  // The PT-page pool: the paper places page tables in the secure region;
  // DPTI's domain and PTAuth's signed pool model the same address range.
  s.pt_base = sr_base;
  s.pt_end = sr_end;
  s.user_base = kUserSpaceBase;
  s.user_end = kUserSpaceBase + GiB(1);

  // Image geometry shared with the corpus builders: the token table and
  // domain registry live inside the secure region, the MAC key in monitor
  // memory at the region base, and PCBs one MiB below the region.
  const u64 token = sr_base + 0x800;
  const u64 domain = sr_base + 0x1000;
  const u64 mac = sr_base + 0x600;
  const u64 pcb = sr_base - MiB(1);
  for (const SecretClass c : ann.secrets) {
    switch (c) {
      case SecretClass::kToken:
        s.secrets.push_back({token, token + 0x100, kTaintToken, "token table"});
        break;
      case SecretClass::kMacKey:
        s.secrets.push_back({mac, mac + 0x40, kTaintMacKey, "MAC key"});
        break;
      case SecretClass::kCredential:
        s.secrets.push_back(
            {pcb, pcb + 0x1000, kTaintCredential, "PCB credential field"});
        break;
      case SecretClass::kDomainRoot:
        s.secrets.push_back(
            {domain, domain + 0x100, kTaintDomainRoot, "domain registry"});
        break;
    }
  }
  switch (ann.kind) {
    case BackendKind::kPtstore:
      s.cred_base = token;
      s.cred_end = token + 0x100;
      break;
    case BackendKind::kDpti:
      s.cred_base = domain;
      s.cred_end = domain + 0x100;
      break;
    case BackendKind::kPtauth:
      s.cred_base = pcb;
      s.cred_end = pcb + 0x1000;
      break;
    default:
      break;
  }
  for (const char* sym : ann.mediation_symbols) s.mediation_symbols.push_back(sym);
  for (const char* sym : ann.bind_symbols) s.bind_symbols.push_back(sym);
  for (const char* sym : ann.sink_symbols) s.sink_symbols.push_back(sym);
  s.t1 = s.t2 = s.t3 = ann.taint_rules;
  s.m1 = ann.mediation_rule;
  s.m2 = ann.bind_order_rule;
  s.pt_insn_mediates = ann.pt_insn_mediates;
  return s;
}

TaintSet FlowSpec::secret_taint(const Domain& addr) const {
  TaintSet t = 0;
  for (const SecretRange& r : secrets) {
    // ⊤ addresses are *not* tainted: an unconstrained pointer may read
    // anything, and tainting it would mark every spilled reload secret.
    // The note-level store diagnostics keep those sites visible instead.
    if (addr.is_top()) continue;
    if (addr.may_overlap(r.base, r.end)) t |= r.cls;
  }
  return t;
}

bool FlowSpec::sanctioned_dest(const Domain& addr) const {
  if (cred_end > cred_base && addr.inside(cred_base, cred_end)) return true;
  for (const SecretRange& r : secrets) {
    if (addr.inside(r.base, r.end)) return true;
  }
  return false;
}

const char* flow_diag_kind_name(FlowDiagKind k) {
  switch (k) {
    case FlowDiagKind::kSecretEscapes: return "secret-escapes";
    case FlowDiagKind::kSecretToUser: return "secret-to-user";
    case FlowDiagKind::kSecretToSink: return "secret-to-sink";
    case FlowDiagKind::kUnmediatedPtStore: return "unmediated-pt-store";
    case FlowDiagKind::kCredAfterWalkable: return "cred-after-walkable";
    case FlowDiagKind::kUnresolvedCall: return "unresolved-call";
    case FlowDiagKind::kUnconstrainedStore: return "unconstrained-store";
  }
  return "?";
}

size_t FlowReport::violation_count() const {
  size_t n = 0;
  for (const FlowDiag& d : diags) n += d.sev == Severity::kViolation ? 1 : 0;
  return n;
}

std::vector<const FlowDiag*> FlowReport::violations() const {
  std::vector<const FlowDiag*> out;
  for (const FlowDiag& d : diags) {
    if (d.sev == Severity::kViolation) out.push_back(&d);
  }
  return out;
}

std::string FlowReport::format() const {
  std::ostringstream os;
  for (const FlowDiag& d : diags) {
    os << (d.sev == Severity::kViolation ? "violation" : "note") << " ["
       << flow_diag_kind_name(d.kind) << "] at 0x" << std::hex << d.pc
       << std::dec << ": " << d.message << "\n";
    for (const std::string& line : d.context) os << line << "\n";
  }
  os << diags.size() << " diagnostic(s), " << violation_count()
     << " violation(s), " << function_count << " function(s), "
     << callsite_count << " call site(s)\n";
  return os.str();
}

FlowReport flow_verify(const Image& img, const FlowSpec& spec) {
  return FlowVerifier(img, spec).run();
}

}  // namespace ptstore::analysis
