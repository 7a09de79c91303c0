#include "attacks/witness_replay.h"

#include <array>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "isa/csr.h"
#include "isa/inst.h"
#include "kernel/system.h"

namespace ptstore::attacks {

namespace {

using analysis::symexec::WitnessCheck;
using analysis::symexec::WitnessTrace;
using isa::Inst;
using isa::Op;

/// Scratch backing for witness addresses outside DRAM and the mapped
/// devices: a plain little-endian RAM page behind the MMIO interface, so
/// out-of-region stores/loads retire with ordinary memory semantics.
class RamPage : public MmioDevice {
 public:
  u64 mmio_read(u64 offset, unsigned size) override {
    u64 v = 0;
    for (unsigned i = 0; i < size; ++i)
      v |= u64{bytes_[(offset + i) & (kPageSize - 1)]} << (8 * i);
    return v;
  }
  void mmio_write(u64 offset, unsigned size, u64 value) override {
    for (unsigned i = 0; i < size; ++i)
      bytes_[(offset + i) & (kPageSize - 1)] = static_cast<u8>(value >> (8 * i));
  }

 private:
  std::array<u8, kPageSize> bytes_{};
};

/// Pages the replay can scratch-map / open in PMP before giving up.
constexpr size_t kMaxScratchPages = 64;
/// PMP entries 15..10 are free after SBI boot; 9 and below carry the boot
/// layout (and pmpaddr7 is the TOR lower bound of entry 8 — never touch).
constexpr unsigned kPmpScratchHi = 15;
constexpr unsigned kPmpScratchLo = 10;

u8 access_size(const Inst& in) {
  switch (in.op) {
    case Op::kLb: case Op::kLbu: case Op::kSb: return 1;
    case Op::kLh: case Op::kLhu: case Op::kSh: return 2;
    case Op::kLw: case Op::kLwu: case Op::kSw:
    case Op::kLrW: case Op::kScW:
    case Op::kAmoSwapW: case Op::kAmoAddW: case Op::kAmoXorW:
    case Op::kAmoAndW: case Op::kAmoOrW:
      return 4;
    default: return 8;
  }
}

bool is_csr_op(Op op) {
  return op >= Op::kCsrrw && op <= Op::kCsrrci;
}

std::string hex(u64 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

std::vector<u64> pages_spanned(u64 addr, u64 len) {
  std::vector<u64> pages;
  if (len == 0) return pages;
  // The last byte, clamped to the top of the address space.
  const u64 span = len - 1;
  const u64 last_byte = addr > ~u64{0} - span ? ~u64{0} : addr + span;
  const u64 last = last_byte & ~(kPageSize - 1);
  // Stop *at* the last page: a bound of `p < addr + len` never holds false
  // in the top page, where addr + len wraps to 0.
  for (u64 p = addr & ~(kPageSize - 1);; p += kPageSize) {
    pages.push_back(p);
    if (p == last) break;
  }
  return pages;
}

WitnessReplayReport replay_witness(const analysis::Image& img,
                                   const WitnessTrace& t,
                                   BackendKind backend) {
  WitnessReplayReport rep;
  if (t.path.empty() || t.path.back() != t.diag_pc) {
    rep.detail = "malformed witness: path empty or does not end at diag pc";
    return rep;
  }

  auto sysr = System::create(SystemConfig::for_backend(backend));
  if (!sysr) {
    rep.detail = "system boot failed: " + sysr.error();
    return rep;
  }
  System& sys = *sysr.value();
  Core& core = sys.core();

  // Detach the kernel model and quiesce the machine: the witness drives the
  // bare core. Bare translation (VA == PA) matches the executor's memory
  // model; secure enforcement off lets the flagged access itself retire so
  // its EA/value can be checked architecturally.
  core.set_strap_hook({});
  core.set_sintr_hook({});
  core.set_trace_hook({});
  core.set_mtimecmp(~u64{0});
  core.write_csr(isa::csr::kMie, 0, Privilege::kMachine);
  core.write_csr(isa::csr::kSatp, 0, Privilege::kMachine);
  core.set_priv(Privilege::kSupervisor);
  core.pmp().set_secure_enforcement(false);

  // Every byte range the replay will touch: the image, the witness cells,
  // and the predicted effective address of the flagged access.
  const Inst diag_in = img.inst_at(t.diag_pc);
  std::vector<std::pair<u64, u64>> ranges;  // [addr, addr+len)
  if (img.size_bytes() > 0) ranges.push_back({img.base, img.size_bytes()});
  for (const auto& c : t.mem_cells) ranges.push_back({c.addr, c.size});
  if (t.check == WitnessCheck::kStore || t.check == WitnessCheck::kLoad)
    ranges.push_back({t.ea, access_size(diag_in)});

  std::set<u64> pages;
  for (const auto& [addr, len] : ranges)
    for (const u64 p : pages_spanned(addr, len)) pages.insert(p);

  // Back pages no DRAM or device covers with scratch RAM pages.
  std::vector<std::unique_ptr<RamPage>> scratch;
  for (u64 p : pages) {
    if (sys.mem().is_valid(p, kPageSize)) continue;
    if (scratch.size() >= kMaxScratchPages) {
      rep.detail = "witness touches more than " +
                   std::to_string(kMaxScratchPages) + " unbacked pages";
      return rep;
    }
    scratch.push_back(std::make_unique<RamPage>());
    if (!sys.mem().map_device(p, kPageSize, scratch.back().get())) {
      rep.detail = "cannot scratch-map page " + hex(p);
      return rep;
    }
  }

  // Open PMP windows for pages the boot layout does not cover (addresses
  // above DRAM match no entry, which denies all S-mode access).
  if (core.pmp().any_active()) {
    unsigned next_entry = kPmpScratchHi;
    for (u64 p : pages) {
      const bool in_image = p >= (img.base & ~(kPageSize - 1)) && p < img.end();
      bool allowed =
          core.pmp()
              .check(p, kPageSize, AccessType::kRead, AccessKind::kRegular,
                     Privilege::kSupervisor)
              .allowed &&
          core.pmp()
              .check(p, kPageSize, AccessType::kWrite, AccessKind::kRegular,
                     Privilege::kSupervisor)
              .allowed;
      if (allowed && in_image)
        allowed = core.pmp()
                      .check(p, kPageSize, AccessType::kExecute,
                             AccessKind::kRegular, Privilege::kSupervisor)
                      .allowed;
      if (allowed) continue;
      while (next_entry >= kPmpScratchLo && core.pmp().cfg(next_entry) != 0)
        --next_entry;
      if (next_entry < kPmpScratchLo) {
        rep.detail = "out of scratch PMP entries for page " + hex(p);
        return rep;
      }
      core.pmp().set_addr(next_entry, (p >> 2) | 511);  // NAPOT, 4 KiB
      core.pmp().set_cfg(next_entry,
                         pmpcfg::kR | pmpcfg::kW | pmpcfg::kX |
                             (static_cast<u8>(PmpMatch::kNapot)
                              << pmpcfg::kAShift));
      --next_entry;
    }
  }

  // Seed the witness state: image code, registers, memory cells.
  core.load_code(img.base, img.words);
  for (unsigned r = 1; r < 32; ++r) core.set_reg(r, 0);
  for (const auto& [r, v] : t.init_regs) core.set_reg(r, v);
  for (const auto& c : t.mem_cells) sys.mem().write(c.addr, c.size, c.value);

  // Follow the path op-for-op.
  core.set_pc(t.path.front());
  for (size_t i = 0; i + 1 < t.path.size(); ++i) {
    if (core.pc() != t.path[i]) {
      rep.detail = "path divergence at step " + std::to_string(i) +
                   ": expected pc " + hex(t.path[i]) + ", core at " +
                   hex(core.pc());
      rep.steps = i;
      return rep;
    }
    const Inst in = img.inst_at(core.pc());
    const StepResult sr = core.step();
    ++rep.steps;
    if (sr.stop != StopReason::kNone) {
      rep.detail = "unexpected stop at pc " + hex(t.path[i]) + " (step " +
                   std::to_string(i) + "): " + isa::to_string(sr.trap);
      return rep;
    }
    // The executor models CSR writes as register-only effects; keep the
    // machine in Bare translation if a mid-path instruction wrote satp.
    if (is_csr_op(in.op) && in.imm == isa::csr::kSatp)
      core.write_csr(isa::csr::kSatp, 0, Privilege::kMachine);
  }

  if (core.pc() != t.diag_pc) {
    rep.detail = "path divergence at flagged pc: expected " + hex(t.diag_pc) +
                 ", core at " + hex(core.pc());
    return rep;
  }

  // The final architectural check at the flagged instruction.
  switch (t.check) {
    case WitnessCheck::kReach:
      rep.ok = true;
      rep.detail = "reached flagged pc " + hex(t.diag_pc);
      return rep;

    case WitnessCheck::kCallArg: {
      const u64 got = core.reg(static_cast<unsigned>(t.ea));
      if (got != t.value) {
        rep.detail = "argument register a" +
                     std::to_string(t.ea >= 10 ? t.ea - 10 : t.ea) +
                     " holds " + hex(got) + ", predicted " + hex(t.value);
        return rep;
      }
      rep.ok = true;
      rep.detail = "secret value " + hex(t.value) +
                   " in argument register at call site " + hex(t.diag_pc);
      return rep;
    }

    case WitnessCheck::kStore:
    case WitnessCheck::kLoad: {
      const u64 ea = core.reg(diag_in.rs1) +
                     (diag_in.is_amo() ? 0 : static_cast<u64>(diag_in.imm));
      if (ea != t.ea) {
        rep.detail = "effective address " + hex(ea) + ", predicted " +
                     hex(t.ea);
        return rep;
      }
      const StepResult sr = core.step();
      ++rep.steps;
      if (sr.stop != StopReason::kNone) {
        rep.detail = "flagged access trapped: " + std::string(isa::to_string(sr.trap));
        return rep;
      }
      if (t.check == WitnessCheck::kStore && !diag_in.is_amo()) {
        const u8 size = access_size(diag_in);
        const u64 mask =
            size == 8 ? ~u64{0} : (u64{1} << (8 * size)) - 1;
        const u64 back = sys.mem().read(t.ea, size);
        if ((back & mask) != (t.value & mask)) {
          rep.detail = "stored value reads back " + hex(back & mask) +
                       ", predicted " + hex(t.value & mask);
          return rep;
        }
      }
      rep.ok = true;
      rep.detail = std::string(t.check == WitnessCheck::kStore
                                   ? "store" : "load") +
                   " retired at EA " + hex(t.ea);
      return rep;
    }

    case WitnessCheck::kSatp: {
      const StepResult sr = core.step();
      ++rep.steps;
      if (sr.stop != StopReason::kNone) {
        rep.detail = "satp write trapped: " + std::string(isa::to_string(sr.trap));
        return rep;
      }
      const auto rb = core.read_csr(isa::csr::kSatp, Privilege::kMachine);
      if (!rb || isa::satp::ppn(*rb) != isa::satp::ppn(t.value)) {
        rep.detail = "satp read-back ppn " + hex(rb ? isa::satp::ppn(*rb) : 0) +
                     ", predicted ppn " + hex(isa::satp::ppn(t.value));
        return rep;
      }
      rep.ok = true;
      rep.detail = "satp write retired, root ppn " + hex(isa::satp::ppn(t.value));
      return rep;
    }

    case WitnessCheck::kPmpCsr: {
      // Reaching the PMP CSR write in kernel text is the violation; the
      // attempt witnesses it whether the core accepts or traps it.
      const StepResult sr = core.step();
      ++rep.steps;
      rep.ok = true;
      rep.detail = sr.stop == StopReason::kNone
                       ? "PMP CSR write retired"
                       : "PMP CSR write attempted (trapped: " +
                             std::string(isa::to_string(sr.trap)) + ")";
      return rep;
    }
  }

  rep.detail = "unhandled witness check";
  return rep;
}

}  // namespace ptstore::attacks
