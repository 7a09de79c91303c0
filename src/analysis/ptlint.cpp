#include "analysis/ptlint.h"

#include <sstream>

#include "analysis/fixpoint.h"
#include "isa/csr.h"

namespace ptstore::analysis {
namespace {

using isa::Inst;
using isa::Op;

/// Abstract machine state at one program point: one interval per register
/// plus the R3 must-flag ("a token-validation call dominates this point").
struct RegState {
  RegIntervals regs = entry_intervals();
  bool validated = false;
  bool reached = false;

  /// Join: interval lub per register, AND on the must-flag.
  bool join_from(const RegState& o) {
    if (!o.reached) return false;
    if (!reached) {
      *this = o;
      return true;
    }
    bool changed = join_intervals(regs, o.regs);
    if (validated && !o.validated) {
      validated = false;
      changed = true;
    }
    return changed;
  }
};

bool is_pmp_csr(u32 csr) {
  return (csr >= isa::csr::kPmpcfg0 && csr <= isa::csr::kPmpcfg0 + 3) ||
         (csr >= isa::csr::kPmpaddr0 && csr <= isa::csr::kPmpaddr0 + 15);
}

struct AccessInfo {
  bool is_access = false;
  Domain addr;
  bool pt = false;
  bool store = false;
};

AccessInfo classify_access(const Inst& in, const RegState& st) {
  AccessInfo info;
  if (!(in.is_load() || in.is_store() || in.is_amo() || in.is_pt_access()))
    return info;
  info.is_access = true;
  info.pt = in.is_pt_access();
  info.store = in.is_store() || in.is_amo() || in.op == Op::kSdPt;
  info.addr = in.is_amo() ? st.regs[in.rs1]
                          : add_imm(st.regs[in.rs1], in.imm);
  return info;
}

AccessClass classify(const Domain& addr, const LintConfig& cfg) {
  if (addr.inside(cfg.sr_base, cfg.sr_end)) return AccessClass::kSecure;
  if (addr.outside(cfg.sr_base, cfg.sr_end)) return AccessClass::kNonSecure;
  return AccessClass::kUnknown;
}

class Linter {
 public:
  Linter(const Image& img, const LintConfig& cfg) : img_(img), cfg_(cfg) {}

  LintReport run() {
    std::vector<u64> roots = cfg_.extra_roots;
    cfg_graph_ = Cfg::build(img_, roots);
    report_.reachable = cfg_graph_.reachable_pcs();
    solve();
    for (const BasicBlock& bb : cfg_graph_.blocks()) report_block(bb);
    return std::move(report_);
  }

 private:
  /// Interpret a block from its fixpoint entry state. `visit` sees the
  /// state *before* each instruction executes. Returns the state after the
  /// last instruction's register effects (terminator link write included).
  template <typename Visit>
  RegState interpret(const BasicBlock& bb, RegState st, Visit&& visit) {
    for (u64 pc = bb.start; pc < bb.end; pc += 4) {
      const Inst in = img_.inst_at(pc);
      visit(pc, in, st);
      interval_step(pc, in, st.regs);
    }
    return st;
  }

  bool call_target_validates(u64 target) const {
    const Symbol* sym = img_.symbol_at(target);
    if (sym == nullptr) return false;
    for (const std::string& name : cfg_.token_validate_symbols) {
      if (sym->name == name) return true;
    }
    return false;
  }

  void solve() {
    const RegState root{.reached = true};
    const auto seed = [&](u64 pc) {
      if (cfg_graph_.block_at(pc) != nullptr) fix_.seed(pc, root);
    };
    seed(img_.base);
    for (const u64 r : cfg_.extra_roots) seed(r);

    fix_.run([&](u64 at, const RegState& entry) {
      const BasicBlock* bb = cfg_graph_.block_at(at);
      if (bb == nullptr) return;
      const RegState out =
          interpret(*bb, entry, [](u64, const Inst&, RegState&) {});
      for (const Edge& e : bb->succs) {
        if (e.kind != EdgeKind::kCallReturn) {
          fix_.join(e.to, out);
          continue;
        }
        // For a direct call the callee address is the paired kCall edge's
        // target; an indirect call (no kCall edge) validates nothing.
        RegState next = out;
        clobber_caller_saved(next.regs);
        for (const Edge& c : bb->succs) {
          if (c.kind == EdgeKind::kCall && call_target_validates(c.to)) {
            next.validated = true;
          }
        }
        fix_.join(e.to, next);
      }
    });
  }

  void report_block(const BasicBlock& bb) {
    const RegState* entry = fix_.state(bb.start);
    if (entry == nullptr) return;

    if (bb.start < cfg_.sr_end && bb.end > cfg_.sr_base) {
      diag(DiagKind::kFetchFromSecure, Severity::kViolation,
           bb.start < cfg_.sr_base ? cfg_.sr_base : bb.start,
           "reachable code lies inside the secure region");
    }

    interpret(bb, *entry, [&](u64 pc, const Inst& in, RegState& st) {
      check_inst(pc, in, st);
    });

    // Resolved control targets that leave the image: a note in general, a
    // violation when the target would fetch from the secure region.
    if (bb.leaves_image) {
      const u64 last = bb.end - 4;
      const Inst in = img_.inst_at(last);
      for (const Edge& e : terminator_edges(in, last)) {
        if (img_.contains(e.to)) continue;
        if (e.to >= cfg_.sr_base && e.to < cfg_.sr_end) {
          diag(DiagKind::kFetchFromSecure, Severity::kViolation, last,
               "control transfer targets the secure region");
        } else if (e.kind != EdgeKind::kCallReturn) {
          diag(DiagKind::kJumpOutOfImage, Severity::kNote, last,
               "control transfer leaves the analyzed image");
        }
      }
    }
  }

  void check_inst(u64 pc, const Inst& in, const RegState& st) {
    if (in.op == Op::kIllegal) {
      diag(DiagKind::kIllegalInstruction, Severity::kNote, pc,
           "reachable word does not decode");
      return;
    }
    const AccessInfo acc = classify_access(in, st);
    if (acc.is_access) {
      const AccessClass cls = classify(acc.addr, cfg_);
      report_.access_class[pc] = cls;
      const std::string what =
          std::string(acc.store ? "store" : "load") + " address " +
          acc.addr.describe();
      if (acc.pt) {
        if (cls != AccessClass::kSecure) {
          diag(DiagKind::kPtInsnEscapes, Severity::kViolation, pc,
               "pt-access " + what + " is not provably inside the secure region");
        }
      } else if (cls == AccessClass::kSecure) {
        diag(DiagKind::kRegularTouchesSecure, Severity::kViolation, pc,
             "regular " + what + " targets the secure region");
      } else if (cls == AccessClass::kUnknown) {
        if (acc.addr.is_top()) {
          // Documented imprecision: an unconstrained address may point
          // anywhere. The dynamic cross-check covers these sites.
          diag(DiagKind::kRegularTouchesSecure, Severity::kNote, pc,
               "regular " + what + " is unconstrained (checked dynamically)");
        } else {
          diag(DiagKind::kRegularTouchesSecure, Severity::kViolation, pc,
               "regular " + what + " may overlap the secure region");
        }
      }
    }
    if (writes_csr(in)) {
      const u32 csr = static_cast<u32>(in.imm) & 0xFFF;
      if (csr == isa::csr::kSatp && !st.validated) {
        diag(DiagKind::kSatpWriteUnvalidated, Severity::kViolation, pc,
             "satp write is not dominated by a token-validation call");
      }
      if (is_pmp_csr(csr)) {
        diag(DiagKind::kPmpScopeViolation, Severity::kViolation, pc,
             "guest code writes a PMP CSR owned by the M-mode monitor");
      }
    }
  }

  void diag(DiagKind kind, Severity sev, u64 pc, std::string message) {
    Diag d;
    d.kind = kind;
    d.sev = sev;
    d.pc = pc;
    d.message = img_.locate(pc) + ": " + std::move(message);
    d.context = img_.disassembly_context(pc);
    report_.diags.push_back(std::move(d));
  }

  const Image& img_;
  const LintConfig& cfg_;
  Cfg cfg_graph_;
  Fixpoint<RegState> fix_;
  LintReport report_;
};

}  // namespace

bool writes_csr(const Inst& in) {
  switch (in.op) {
    case Op::kCsrrw:
    case Op::kCsrrwi:
      return true;
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrsi:  // rs1 field holds the uimm for the immediate forms.
    case Op::kCsrrci:
      return in.rs1 != 0;
    default:
      return false;
  }
}

const char* access_class_name(AccessClass c) {
  switch (c) {
    case AccessClass::kNonSecure: return "non-secure";
    case AccessClass::kSecure: return "secure";
    case AccessClass::kUnknown: return "unknown";
  }
  return "?";
}

const char* diag_kind_name(DiagKind k) {
  switch (k) {
    case DiagKind::kRegularTouchesSecure: return "regular-touches-secure";
    case DiagKind::kFetchFromSecure: return "fetch-from-secure";
    case DiagKind::kPtInsnEscapes: return "pt-insn-escapes";
    case DiagKind::kSatpWriteUnvalidated: return "satp-write-unvalidated";
    case DiagKind::kPmpScopeViolation: return "pmp-scope-violation";
    case DiagKind::kJumpOutOfImage: return "jump-out-of-image";
    case DiagKind::kIllegalInstruction: return "illegal-instruction";
  }
  return "?";
}

size_t LintReport::violation_count() const {
  size_t n = 0;
  for (const Diag& d : diags) n += d.sev == Severity::kViolation ? 1 : 0;
  return n;
}

std::vector<const Diag*> LintReport::violations() const {
  std::vector<const Diag*> out;
  for (const Diag& d : diags) {
    if (d.sev == Severity::kViolation) out.push_back(&d);
  }
  return out;
}

std::string LintReport::format() const {
  std::ostringstream os;
  for (const Diag& d : diags) {
    os << (d.sev == Severity::kViolation ? "violation" : "note") << " ["
       << diag_kind_name(d.kind) << "] at 0x" << std::hex << d.pc << std::dec
       << ": " << d.message << "\n";
    for (const std::string& line : d.context) os << line << "\n";
  }
  os << diags.size() << " diagnostic(s), " << violation_count()
     << " violation(s)\n";
  return os.str();
}

LintReport lint_image(const Image& img, const LintConfig& cfg) {
  return Linter(img, cfg).run();
}

}  // namespace ptstore::analysis
