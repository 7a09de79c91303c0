#include "analysis/symexec/path.h"

#include <algorithm>
#include <utility>

#include "analysis/symexec/slice.h"
#include "analysis/taint.h"

namespace ptstore::analysis::symexec {

namespace {

using isa::Inst;
using isa::Op;

constexpr unsigned kRegRa = 1;
constexpr unsigned kRegA0 = 10;

/// Distinctive secret sentinel for replay: a tainted witness pokes this
/// value into the secret's home cell and the replayed escape carries it.
u64 secret_sentinel(InputId id) {
  return 0x5EC7'E700'0000'0000ull | (static_cast<u64>(id) << 4);
}

struct MemOpInfo {
  u8 size = 8;
  bool sign = false;
};

MemOpInfo load_info(Op op) {
  switch (op) {
    case Op::kLb: return {1, true};
    case Op::kLbu: return {1, false};
    case Op::kLh: return {2, true};
    case Op::kLhu: return {2, false};
    case Op::kLw: return {4, true};
    case Op::kLwu: return {4, false};
    case Op::kLrW: return {4, true};
    default: return {8, false};  // ld / ld.pt / lr.d
  }
}

u8 store_size(Op op) {
  switch (op) {
    case Op::kSb: return 1;
    case Op::kSh: return 2;
    case Op::kSw: return 4;
    case Op::kScW: return 4;
    default: return 8;  // sd / sd.pt / sc.d / amo*.d
  }
}

bool ranges_overlap(u64 a, u64 alen, u64 b, u64 blen) {
  return a < b + blen && b < a + alen;
}

}  // namespace

PathExplorer::PathExplorer(const Image& img, const Cfg& cfg,
                           const WitnessBudget& budget)
    : img_(img), cfg_(cfg), budget_(budget) {}

void PathExplorer::truncate(ExploreResult& result, const std::string& why) {
  result.truncated = true;
  if (result.truncation_reason.empty()) result.truncation_reason = why;
}

ExprId PathExplorer::reg(PathState& st, unsigned r) {
  if (r == 0) return arena_.constant(0);
  if (st.regs[r] == kNoExpr) st.regs[r] = arena_.input(InputOrigin::kReg, r);
  return st.regs[r];
}

void PathExplorer::set_reg(PathState& st, unsigned r, ExprId v, TaintSet t) {
  if (r == 0) return;
  st.regs[r] = v;
  st.taint[r] = t;
}

ExprId PathExplorer::effective_address(PathState& st, const Inst& in) {
  const ExprId base = reg(st, in.rs1);
  if (in.is_amo()) return base;  // AMO/LR/SC have no displacement
  return arena_.binary(ExprOp::kAdd, base, arena_.constant(in.imm));
}

ExprId PathExplorer::do_load(PathState& st, ExprId addr, u8 size,
                             bool sign_extend, TaintSet* taint_out) {
  const u64 mask = size >= 8 ? ~u64{0} : (u64{1} << (size * 8)) - 1;
  auto extend = [&](ExprId raw) {
    if (!sign_extend || size >= 8) return raw;
    if (size == 4) return arena_.unary(ExprOp::kSextW, raw);
    const u64 sh = 64 - size * 8;
    return arena_.binary(
        ExprOp::kShra,
        arena_.binary(ExprOp::kShl, raw, arena_.constant(sh)),
        arena_.constant(sh));
  };

  if (arena_.is_const(addr)) {
    const u64 a = arena_.const_value(addr);
    // Forward from the newest store that provably hits this cell; stop at
    // the first store that *may* alias without matching exactly.
    bool hazard = false;
    for (auto it = st.stores.rbegin(); it != st.stores.rend(); ++it) {
      if (!it->addr_const) {
        hazard = true;
        break;
      }
      if (it->addr == a && it->size == size) {
        const ExprId raw =
            size >= 8 ? it->value
                      : arena_.binary(ExprOp::kAnd, it->value,
                                      arena_.constant(mask));
        if (taint_out != nullptr) {
          TaintSet t = static_cast<TaintSet>(it->taint | kTaintSymMem);
          if (flow_ != nullptr)
            t = static_cast<TaintSet>(
                t | flow_->secret_taint(Domain::exact(a)));
          *taint_out = t;
        }
        return extend(raw);
      }
      if (ranges_overlap(it->addr, it->size, a, size)) {
        hazard = true;
        break;
      }
    }
    if (!hazard) {
      for (const LoadCacheEntry& e : st.load_cache) {
        if (e.addr == a && e.size == size) {
          if (taint_out != nullptr)
            *taint_out = static_cast<TaintSet>(
                kTaintSymMem |
                (flow_ != nullptr ? flow_->secret_taint(Domain::exact(a))
                                  : 0));
          return extend(e.value);
        }
      }
    }
    const ExprId in_expr = arena_.input(InputOrigin::kMem, 0, addr);
    const InputId in_id = arena_.node(in_expr).input;
    TaintSet t = kTaintSymMem;
    if (flow_ != nullptr) {
      t = static_cast<TaintSet>(t | flow_->secret_taint(Domain::exact(a)));
      if ((t & kSecretBits) != 0) {
        arena_.input_info(in_id).preferred = secret_sentinel(in_id) & mask;
        arena_.input_info(in_id).has_preferred = true;
      }
    }
    if (taint_out != nullptr) *taint_out = t;
    if (size < 8)
      st.constraints.push_back({in_expr, Domain::range(0, mask)});
    st.cells.push_back({in_id, true, a, addr, size});
    if (hazard)
      st.has_symbolic_load = true;  // aliasing: replay may disagree
    else
      st.load_cache.push_back({a, size, in_expr});
    return extend(in_expr);
  }

  // Symbolic address: fresh input each time (over-approximate memory).
  st.has_symbolic_load = true;
  const ExprId in_expr = arena_.input(InputOrigin::kMem, 0, addr);
  const InputId in_id = arena_.node(in_expr).input;
  if (size < 8) st.constraints.push_back({in_expr, Domain::range(0, mask)});
  st.cells.push_back({in_id, false, 0, addr, size});
  if (taint_out != nullptr) *taint_out = kTaintSymMem;
  return extend(in_expr);
}

void PathExplorer::do_store(PathState& st, ExprId addr, ExprId value, u8 size,
                            TaintSet value_taint) {
  StoreRec rec;
  rec.addr_const = arena_.is_const(addr);
  rec.addr = rec.addr_const ? arena_.const_value(addr) : 0;
  rec.addr_expr = addr;
  rec.value = value;
  rec.size = size;
  rec.taint = value_taint;
  if (rec.addr_const) {
    // Invalidate cached loads this store may feed differently now.
    st.load_cache.erase(
        std::remove_if(st.load_cache.begin(), st.load_cache.end(),
                       [&](const LoadCacheEntry& e) {
                         return ranges_overlap(e.addr, e.size, rec.addr,
                                               rec.size);
                       }),
        st.load_cache.end());
    if (flow_ != nullptr && flow_->cred_end > flow_->cred_base &&
        rec.addr >= flow_->cred_base && rec.addr < flow_->cred_end)
      st.cred_written = true;
  } else {
    st.load_cache.clear();  // unknown target: no cached load is safe
  }
  st.stores.push_back(rec);
}

void PathExplorer::note_call_target(PathState& st, u64 target) {
  const Symbol* sym = img_.symbol_at(target);
  if (sym == nullptr) return;
  if (lint_ != nullptr) {
    for (const std::string& name : lint_->token_validate_symbols)
      if (sym->name == name) st.validated = true;
  }
  if (flow_ != nullptr) {
    for (const std::string& name : flow_->mediation_symbols)
      if (sym->name == name) st.mediated = true;
  }
}

bool PathExplorer::step(PathState& st, std::vector<PathState>& stack,
                        ExploreResult& result) {
  const Inst in = img_.inst_at(st.pc);
  const u64 pc = st.pc;
  st.trace.push_back(pc);
  ++st.steps;
  auto C = [&](u64 v) { return arena_.constant(v); };

  // Taint transfer first (reads the pre-instruction register taints).
  const TaintSet rd_taint = taint_after(in, st.taint);

  switch (in.op) {
    case Op::kIllegal:
      return false;

    case Op::kLui:
      set_reg(st, in.rd, C(static_cast<u64>(in.imm)), 0);
      break;
    case Op::kAuipc:
      set_reg(st, in.rd, C(pc + static_cast<u64>(in.imm)), 0);
      break;

    // ---- register-register / register-immediate ALU ----
    case Op::kAddi:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kAdd, reg(st, in.rs1), C(in.imm)),
              rd_taint);
      break;
    case Op::kSlti:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kLts, reg(st, in.rs1), C(in.imm)),
              rd_taint);
      break;
    case Op::kSltiu:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kLtu, reg(st, in.rs1), C(in.imm)),
              rd_taint);
      break;
    case Op::kXori:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kXor, reg(st, in.rs1), C(in.imm)),
              rd_taint);
      break;
    case Op::kOri:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kOr, reg(st, in.rs1), C(in.imm)),
              rd_taint);
      break;
    case Op::kAndi:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kAnd, reg(st, in.rs1), C(in.imm)),
              rd_taint);
      break;
    case Op::kSlli:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kShl, reg(st, in.rs1), C(in.imm & 63)),
              rd_taint);
      break;
    case Op::kSrli:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kShrl, reg(st, in.rs1), C(in.imm & 63)),
              rd_taint);
      break;
    case Op::kSrai:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kShra, reg(st, in.rs1), C(in.imm & 63)),
              rd_taint);
      break;
    case Op::kAdd:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kAdd, reg(st, in.rs1), reg(st, in.rs2)),
              rd_taint);
      break;
    case Op::kSub:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kSub, reg(st, in.rs1), reg(st, in.rs2)),
              rd_taint);
      break;
    case Op::kSll:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kShl, reg(st, in.rs1),
                            arena_.binary(ExprOp::kAnd, reg(st, in.rs2),
                                          C(63))),
              rd_taint);
      break;
    case Op::kSlt:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kLts, reg(st, in.rs1), reg(st, in.rs2)),
              rd_taint);
      break;
    case Op::kSltu:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kLtu, reg(st, in.rs1), reg(st, in.rs2)),
              rd_taint);
      break;
    case Op::kXor:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kXor, reg(st, in.rs1), reg(st, in.rs2)),
              rd_taint);
      break;
    case Op::kSrl:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kShrl, reg(st, in.rs1),
                            arena_.binary(ExprOp::kAnd, reg(st, in.rs2),
                                          C(63))),
              rd_taint);
      break;
    case Op::kSra:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kShra, reg(st, in.rs1),
                            arena_.binary(ExprOp::kAnd, reg(st, in.rs2),
                                          C(63))),
              rd_taint);
      break;
    case Op::kOr:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kOr, reg(st, in.rs1), reg(st, in.rs2)),
              rd_taint);
      break;
    case Op::kAnd:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kAnd, reg(st, in.rs1), reg(st, in.rs2)),
              rd_taint);
      break;

    // ---- 32-bit (word) ALU ----
    case Op::kAddiw:
      set_reg(st, in.rd,
              arena_.unary(ExprOp::kSextW,
                           arena_.binary(ExprOp::kAdd, reg(st, in.rs1),
                                         C(in.imm))),
              rd_taint);
      break;
    case Op::kSlliw:
      set_reg(st, in.rd,
              arena_.unary(ExprOp::kSextW,
                           arena_.binary(ExprOp::kShl, reg(st, in.rs1),
                                         C(in.imm & 31))),
              rd_taint);
      break;
    case Op::kSrliw:
      set_reg(st, in.rd,
              arena_.unary(
                  ExprOp::kSextW,
                  arena_.binary(ExprOp::kShrl,
                                arena_.binary(ExprOp::kAnd, reg(st, in.rs1),
                                              C(0xFFFFFFFFu)),
                                C(in.imm & 31))),
              rd_taint);
      break;
    case Op::kSraiw:
      set_reg(st, in.rd,
              arena_.unary(
                  ExprOp::kSextW,
                  arena_.binary(ExprOp::kShra,
                                arena_.unary(ExprOp::kSextW, reg(st, in.rs1)),
                                C(in.imm & 31))),
              rd_taint);
      break;
    case Op::kAddw:
      set_reg(st, in.rd,
              arena_.unary(ExprOp::kSextW,
                           arena_.binary(ExprOp::kAdd, reg(st, in.rs1),
                                         reg(st, in.rs2))),
              rd_taint);
      break;
    case Op::kSubw:
      set_reg(st, in.rd,
              arena_.unary(ExprOp::kSextW,
                           arena_.binary(ExprOp::kSub, reg(st, in.rs1),
                                         reg(st, in.rs2))),
              rd_taint);
      break;
    case Op::kSllw:
      set_reg(st, in.rd,
              arena_.unary(ExprOp::kSextW,
                           arena_.binary(ExprOp::kShl, reg(st, in.rs1),
                                         arena_.binary(ExprOp::kAnd,
                                                       reg(st, in.rs2),
                                                       C(31)))),
              rd_taint);
      break;
    case Op::kSrlw:
      set_reg(st, in.rd,
              arena_.unary(
                  ExprOp::kSextW,
                  arena_.binary(ExprOp::kShrl,
                                arena_.binary(ExprOp::kAnd, reg(st, in.rs1),
                                              C(0xFFFFFFFFu)),
                                arena_.binary(ExprOp::kAnd, reg(st, in.rs2),
                                              C(31)))),
              rd_taint);
      break;
    case Op::kSraw:
      set_reg(st, in.rd,
              arena_.unary(
                  ExprOp::kSextW,
                  arena_.binary(ExprOp::kShra,
                                arena_.unary(ExprOp::kSextW, reg(st, in.rs1)),
                                arena_.binary(ExprOp::kAnd, reg(st, in.rs2),
                                              C(31)))),
              rd_taint);
      break;

    case Op::kMul:
      set_reg(st, in.rd,
              arena_.binary(ExprOp::kMul, reg(st, in.rs1), reg(st, in.rs2)),
              rd_taint);
      break;
    case Op::kMulw:
      set_reg(st, in.rd,
              arena_.unary(ExprOp::kSextW,
                           arena_.binary(ExprOp::kMul, reg(st, in.rs1),
                                         reg(st, in.rs2))),
              rd_taint);
      break;
    case Op::kMulh:
    case Op::kMulhsu:
    case Op::kMulhu:
    case Op::kDiv:
    case Op::kDivu:
    case Op::kRem:
    case Op::kRemu:
    case Op::kDivw:
    case Op::kDivuw:
    case Op::kRemw:
    case Op::kRemuw:
      // Unmodeled arithmetic: havoc the destination.
      set_reg(st, in.rd, arena_.input(InputOrigin::kHavoc), rd_taint);
      break;

    // ---- memory ----
    case Op::kLb:
    case Op::kLh:
    case Op::kLw:
    case Op::kLd:
    case Op::kLbu:
    case Op::kLhu:
    case Op::kLwu:
    case Op::kLdPt: {
      const MemOpInfo info = load_info(in.op);
      const ExprId ea = effective_address(st, in);
      TaintSet t = 0;
      const ExprId v = do_load(st, ea, info.size, info.sign, &t);
      set_reg(st, in.rd, v, t);
      break;
    }
    case Op::kSb:
    case Op::kSh:
    case Op::kSw:
    case Op::kSd:
    case Op::kSdPt: {
      const ExprId ea = effective_address(st, in);
      do_store(st, ea, reg(st, in.rs2), store_size(in.op),
               st.taint[in.rs2]);
      break;
    }

    // ---- atomics: load + store through rs1, no displacement ----
    case Op::kLrW:
    case Op::kLrD: {
      const MemOpInfo info = load_info(in.op);
      TaintSet t = 0;
      const ExprId v =
          do_load(st, reg(st, in.rs1), info.size, info.sign, &t);
      set_reg(st, in.rd, v, t);
      break;
    }
    case Op::kScW:
    case Op::kScD: {
      // Modeled as always succeeding (single-hart replay honours this).
      do_store(st, reg(st, in.rs1), reg(st, in.rs2), store_size(in.op),
               st.taint[in.rs2]);
      set_reg(st, in.rd, C(0), 0);
      break;
    }
    case Op::kAmoSwapW:
    case Op::kAmoAddW:
    case Op::kAmoXorW:
    case Op::kAmoAndW:
    case Op::kAmoOrW:
    case Op::kAmoSwapD:
    case Op::kAmoAddD:
    case Op::kAmoXorD:
    case Op::kAmoAndD:
    case Op::kAmoOrD: {
      const bool word = in.op >= Op::kAmoSwapW && in.op <= Op::kAmoOrW;
      const u8 size = word ? 4 : 8;
      const ExprId addr = reg(st, in.rs1);
      TaintSet t = 0;
      const ExprId loaded = do_load(st, addr, size, word, &t);
      ExprOp aop = ExprOp::kAdd;
      bool swap = false;
      switch (in.op) {
        case Op::kAmoSwapW: case Op::kAmoSwapD: swap = true; break;
        case Op::kAmoAddW: case Op::kAmoAddD: aop = ExprOp::kAdd; break;
        case Op::kAmoXorW: case Op::kAmoXorD: aop = ExprOp::kXor; break;
        case Op::kAmoAndW: case Op::kAmoAndD: aop = ExprOp::kAnd; break;
        default: aop = ExprOp::kOr; break;
      }
      const ExprId stored =
          swap ? reg(st, in.rs2)
               : arena_.binary(aop, loaded, reg(st, in.rs2));
      do_store(st, addr, stored, size,
               static_cast<TaintSet>(t | st.taint[in.rs2]));
      set_reg(st, in.rd, loaded, t);
      break;
    }

    // ---- control flow ----
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu: {
      ExprOp cmp = ExprOp::kEq;
      u64 taken_req = 1;
      switch (in.op) {
        case Op::kBeq: cmp = ExprOp::kEq; taken_req = 1; break;
        case Op::kBne: cmp = ExprOp::kEq; taken_req = 0; break;
        case Op::kBlt: cmp = ExprOp::kLts; taken_req = 1; break;
        case Op::kBge: cmp = ExprOp::kLts; taken_req = 0; break;
        case Op::kBltu: cmp = ExprOp::kLtu; taken_req = 1; break;
        default: cmp = ExprOp::kLtu; taken_req = 0; break;  // bgeu
      }
      const ExprId cond =
          arena_.binary(cmp, reg(st, in.rs1), reg(st, in.rs2));
      const u64 taken_pc = pc + static_cast<u64>(in.imm);
      const u64 fall_pc = pc + 4;

      auto prunable = [&](u64 target) {
        if (st.call_depth != 0) return false;
        const BasicBlock* bb = cfg_.block_containing(target);
        if (bb == nullptr) return false;
        return slice_.count(bb->start) == 0 && wild_.count(bb->start) == 0;
      };
      auto feasible = [&](u64 req) {
        return !arena_.is_const(cond) || arena_.const_value(cond) == req;
      };

      const bool want_taken = feasible(taken_req) && !prunable(taken_pc);
      const bool want_fall = feasible(1 - taken_req) && !prunable(fall_pc);
      if (!want_taken && !want_fall) return false;
      if (want_taken && want_fall) {
        // Fork; continue with the goal-directed side when only one is in
        // the slice.
        const BasicBlock* tb = cfg_.block_containing(taken_pc);
        const bool prefer_taken =
            tb != nullptr && slice_.count(tb->start) != 0;
        PathState other = st;
        if (prefer_taken) {
          other.pc = fall_pc;
          if (!arena_.is_const(cond))
            other.constraints.push_back(
                {cond, Domain::exact(1 - taken_req)});
          st.pc = taken_pc;
          if (!arena_.is_const(cond))
            st.constraints.push_back({cond, Domain::exact(taken_req)});
        } else {
          other.pc = taken_pc;
          if (!arena_.is_const(cond))
            other.constraints.push_back({cond, Domain::exact(taken_req)});
          st.pc = fall_pc;
          if (!arena_.is_const(cond))
            st.constraints.push_back({cond, Domain::exact(1 - taken_req)});
        }
        stack.push_back(std::move(other));
      } else {
        const u64 req = want_taken ? taken_req : 1 - taken_req;
        st.pc = want_taken ? taken_pc : fall_pc;
        if (!arena_.is_const(cond))
          st.constraints.push_back({cond, Domain::exact(req)});
      }
      return true;
    }

    case Op::kJal: {
      const u64 target = pc + static_cast<u64>(in.imm);
      if (in.rd != 0) set_reg(st, in.rd, C(pc + 4), 0);
      note_call_target(st, target);
      if (!img_.contains(target)) return false;  // leaves the image
      if (in.rd != 0) ++st.call_depth;
      st.pc = target;
      return true;
    }
    case Op::kJalr: {
      const ExprId target_expr = arena_.binary(
          ExprOp::kAnd,
          arena_.binary(ExprOp::kAdd, reg(st, in.rs1), C(in.imm)),
          C(~u64{1}));
      const bool is_ret =
          in.rd == 0 && in.rs1 == kRegRa && in.imm == 0;
      if (!arena_.is_const(target_expr)) {
        if (is_ret && st.call_depth == 0) return false;  // scope exit
        truncate(result, "unresolved indirect jump");
        return false;
      }
      const u64 target = arena_.const_value(target_expr);
      if (in.rd != 0) set_reg(st, in.rd, C(pc + 4), 0);
      note_call_target(st, target);
      if (!img_.contains(target)) return false;
      if (in.rd != 0)
        ++st.call_depth;
      else if (is_ret && st.call_depth > 0)
        --st.call_depth;
      st.pc = target;
      return true;
    }

    // ---- CSR: havoc the old value, track nothing else ----
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
      if (in.rd != 0)
        set_reg(st, in.rd, arena_.input(InputOrigin::kHavoc), 0);
      break;

    case Op::kFence:
    case Op::kFenceI:
    case Op::kSfenceVma:
      break;

    case Op::kEcall:
    case Op::kEbreak:
    case Op::kWfi:
    case Op::kMret:
    case Op::kSret:
      return false;  // leaves the modeled instruction stream
  }

  st.pc = pc + 4;
  return true;
}

void PathExplorer::try_goal(PathState& st, const Goal& goal,
                            ExploreResult& result) {
  const Inst in = img_.inst_at(goal.pc);

  switch (goal.flag) {
    case Goal::FlagReq::kValidatedFalse:
      if (st.validated) return;
      break;
    case Goal::FlagReq::kMediatedFalse:
      if (st.mediated) return;
      break;
    case Goal::FlagReq::kCredWrittenFalse:
      if (st.cred_written) return;
      break;
    case Goal::FlagReq::kNone:
      break;
  }

  ExprId ea = kNoExpr;
  ExprId value = kNoExpr;
  u8 size = 8;

  if (goal.check == WitnessCheck::kStore || goal.check == WitnessCheck::kLoad) {
    ea = effective_address(st, in);
    if (in.is_store() || in.op == Op::kSdPt) {
      size = store_size(in.op);
      value = reg(st, in.rs2);
    } else if (in.is_amo()) {
      size = store_size(in.op);
      value = reg(st, in.rs2);
    } else {
      size = load_info(in.op).size;
    }
  } else if (goal.check == WitnessCheck::kSatp) {
    if (in.op == Op::kCsrrw)
      value = reg(st, in.rs1);
    else if (in.op == Op::kCsrrwi)
      value = arena_.constant(in.rs1);  // uimm lives in the rs1 field
    else
      value = arena_.input(InputOrigin::kHavoc);  // csrrs/c: old | bits
  } else if (goal.check == WitnessCheck::kCallArg) {
    // Find a tainted argument register.
    unsigned arg_reg = 0;
    for (unsigned r = kRegA0; r < kRegA0 + 8; ++r) {
      if ((st.taint[r] & kSecretBits) != 0) {
        arg_reg = r;
        break;
      }
    }
    if (arg_reg == 0) {
      if (st.has_symbolic_load)
        truncate(result, "taint premise lost through symbolic load");
      return;
    }
    ea = arena_.constant(arg_reg);  // register index, not an address
    value = reg(st, arg_reg);
  }

  if (goal.value_taint_mask != 0) {
    const TaintSet t =
        (in.is_store() || in.is_amo() || in.op == Op::kSdPt)
            ? st.taint[in.rs2]
            : 0;
    if ((t & goal.value_taint_mask) == 0) {
      if (st.has_symbolic_load)
        truncate(result, "taint premise lost through symbolic load");
      return;
    }
  }

  // Memory provenance of the EA base register, for the R2 fallback.
  bool mem_derived_ea = false;
  if (goal.allow_mem_derived_ea &&
      (goal.check == WitnessCheck::kStore ||
       goal.check == WitnessCheck::kLoad))
    mem_derived_ea = (st.taint[in.rs1] & kTaintSymMem) != 0;

  solve_goal(st, goal, ea, value, size, mem_derived_ea, result);
}

bool PathExplorer::solve_goal(PathState& st, const Goal& goal, ExprId ea,
                              ExprId value, u8 access_size,
                              bool mem_derived_ea, ExploreResult& result) {
  const bool constrain_ea =
      ea != kNoExpr && goal.check != WitnessCheck::kCallArg &&
      !goal.ea_in.empty();

  auto run = [&](const std::pair<u64, u64>* range) -> SolveStatus {
    Solver solver(arena_, budget_.solver_splits);
    for (const PathConstraint& c : st.constraints)
      solver.require(c.node, c.dom);
    if (ea != kNoExpr && goal.check != WitnessCheck::kCallArg) {
      if (range != nullptr)
        solver.require_in(ea, range->first, range->second - 1);
      if (access_size > 1) {
        Domain align = Domain::top();
        align.meet_known(access_size - 1, 0);
        solver.require(ea, align);
      }
      solver.note_support(ea);
    }
    if (value != kNoExpr) solver.note_support(value);
    Solver::GoalCheck check;
    if (goal.concrete_ok) {
      check = [&](const std::vector<u64>& assign) {
        const u64 cea = ea != kNoExpr ? arena_.eval(ea, assign) : 0;
        const u64 cval = value != kNoExpr ? arena_.eval(value, assign) : 0;
        return goal.concrete_ok(cea, cval);
      };
    }
    SolveResult r = solver.solve(check);
    if (r.status == SolveStatus::kSat &&
        !build_witness(st, goal, ea, value, r.assign, result))
      return SolveStatus::kBudget;  // SAT but unmaterialisable: not a refutation
    return r.status;
  };

  bool budget_hit = false;
  if (constrain_ea) {
    for (const auto& range : goal.ea_in) {
      if (range.second <= range.first) continue;
      const SolveStatus s = run(&range);
      if (s == SolveStatus::kSat && result.found) return true;
      if (s == SolveStatus::kBudget) budget_hit = true;
    }
    // R2 fallback: a memory-derived pt-insn pointer witnesses the
    // diagnostic even when it cannot be steered outside the region — the
    // static analysis could not confine an attacker-planted pointer. Only
    // used when every replay-friendly disjunct is UNSAT.
    if (mem_derived_ea && !budget_hit) {
      const SolveStatus s = run(nullptr);
      if (s == SolveStatus::kSat && result.found) return true;
      if (s == SolveStatus::kBudget) budget_hit = true;
    }
  } else {
    const SolveStatus s = run(nullptr);
    if (s == SolveStatus::kSat && result.found) return true;
    if (s == SolveStatus::kBudget) budget_hit = true;
  }
  if (budget_hit) truncate(result, "solver budget");
  return false;
}

bool PathExplorer::build_witness(PathState& st, const Goal& goal, ExprId ea,
                                 ExprId value,
                                 const std::vector<u64>& assign,
                                 ExploreResult& result) {
  // Inputs that decide the witness: path condition, goal EA/value, every
  // store (they execute during replay) and load address on the path.
  std::vector<InputId> used;
  for (const PathConstraint& c : st.constraints)
    arena_.collect_inputs(c.node, used);
  if (ea != kNoExpr) arena_.collect_inputs(ea, used);
  if (value != kNoExpr) arena_.collect_inputs(value, used);
  for (const StoreRec& rec : st.stores) {
    arena_.collect_inputs(rec.addr_expr, used);
    arena_.collect_inputs(rec.value, used);
  }
  for (const CellRec& cell : st.cells)
    if (!cell.addr_const) arena_.collect_inputs(cell.addr_expr, used);

  // A havocked value (CSR read, div result) steering the path condition or
  // the goal cannot be reproduced by poking state: give up gracefully.
  std::vector<InputId> support;
  for (const PathConstraint& c : st.constraints)
    arena_.collect_inputs(c.node, support);
  if (ea != kNoExpr) arena_.collect_inputs(ea, support);
  if (value != kNoExpr) arena_.collect_inputs(value, support);
  for (InputId id : support) {
    if (arena_.input_info(id).origin == InputOrigin::kHavoc) {
      truncate(result, "havocked value steers the witness");
      return false;
    }
  }

  WitnessTrace t;
  t.diag_pc = goal.pc;
  t.rule_id = goal.rule_id;
  t.kind_name = goal.kind_name;
  t.check = goal.check;
  const Inst in = img_.inst_at(goal.pc);
  t.pt_access = in.is_pt_access();
  t.ea = ea != kNoExpr ? arena_.eval(ea, assign) : 0;
  t.value = value != kNoExpr ? arena_.eval(value, assign) : 0;

  for (InputId id : used) {
    const InputInfo& info = arena_.input_info(id);
    if (info.origin != InputOrigin::kReg) continue;
    const u64 v = id < assign.size() ? assign[id] : 0;
    for (const auto& [r, existing] : t.init_regs)
      if (r == info.reg && existing != v) return false;  // conflicting mints
    t.init_regs.push_back({info.reg, v});
  }

  // Materialise memory cells, rejecting aliasing hazards: a cell replay
  // pokes must not be overwritten by a path store before its load reads it
  // (store order is not tracked, so any overlap rejects).
  for (const CellRec& cell : st.cells) {
    bool cell_used = false;
    for (InputId id : used) cell_used = cell_used || id == cell.input;
    if (!cell_used) continue;
    const u64 addr = cell.addr_const
                         ? cell.addr
                         : arena_.eval(cell.addr_expr, assign);
    const u64 v = cell.input < assign.size() ? assign[cell.input] : 0;
    for (const WitnessMemCell& existing : t.mem_cells) {
      if (ranges_overlap(existing.addr, existing.size, addr, cell.size)) {
        if (existing.addr != addr || existing.size != cell.size ||
            existing.value != v) {
          truncate(result, "conflicting witness memory cells");
          return false;
        }
      }
    }
    for (const StoreRec& rec : st.stores) {
      const u64 saddr =
          rec.addr_const ? rec.addr : arena_.eval(rec.addr_expr, assign);
      if (ranges_overlap(saddr, rec.size, addr, cell.size)) {
        truncate(result, "path store aliases a witness memory cell");
        return false;
      }
    }
    bool dup = false;
    for (const WitnessMemCell& existing : t.mem_cells)
      dup = dup || (existing.addr == addr && existing.size == cell.size);
    if (!dup) t.mem_cells.push_back({addr, v, cell.size});
  }

  t.path = st.trace;
  t.path.push_back(goal.pc);

  result.witness = std::move(t);
  result.found = true;
  return true;
}

ExploreResult PathExplorer::explore(const Goal& goal, u64 entry_pc) {
  ExploreResult result;
  arena_ = ExprArena();
  slice_ = backward_block_slice(cfg_, goal.pc);
  wild_ = wild_block_slice(cfg_, img_);
  if (!img_.contains(entry_pc)) return result;

  // Vacuously unreachable from this entry?
  const BasicBlock* entry_bb = cfg_.block_containing(entry_pc);
  if (entry_bb != nullptr && slice_.count(entry_bb->start) == 0 &&
      wild_.count(entry_bb->start) == 0)
    return result;

  std::vector<PathState> stack;
  PathState init;
  init.pc = entry_pc;
  init.regs.fill(kNoExpr);
  init.taint.fill(0);
  stack.push_back(std::move(init));

  while (!stack.empty() && !result.found) {
    PathState st = std::move(stack.back());
    stack.pop_back();
    bool alive = true;
    while (alive && !result.found) {
      if (st.steps >= budget_.max_steps) {
        truncate(result, "per-path step budget");
        break;
      }
      if (!img_.contains(st.pc)) break;  // left the image
      if (st.pc == goal.pc) {
        try_goal(st, goal, result);
        if (result.found) break;
      }
      alive = step(st, stack, result);
    }
    ++result.paths;
    result.max_depth = std::max(result.max_depth, st.steps);
    if (!result.found && result.paths >= budget_.max_paths &&
        !stack.empty()) {
      truncate(result, "path budget");
      break;
    }
  }
  return result;
}

}  // namespace ptstore::analysis::symexec
