// An assembled guest image as ptlint sees it: the instruction words, their
// load address, and the assembler's symbol table (text_asm labels or any
// caller-supplied names). This is the unit the static verifier analyzes —
// the analogue of the paper's "kernel binary produced by the modified LLVM
// back-end".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "isa/inst.h"
#include "isa/text_asm.h"

namespace ptstore::analysis {

struct Symbol {
  std::string name;
  u64 address = 0;
};

struct Image {
  u64 base = 0;
  std::vector<u32> words;
  std::vector<Symbol> symbols;  ///< Address order preferred, not required.

  u64 end() const { return base + 4 * words.size(); }
  u64 size_bytes() const { return 4 * words.size(); }

  /// True if `pc` names an instruction slot of this image. Phrased as an
  /// offset comparison so addresses near the top of the address space
  /// cannot wrap `pc + 4` back into range.
  bool contains(u64 pc) const {
    return pc >= base && pc - base < size_bytes() && ((pc - base) & 3) == 0;
  }

  /// Decode the instruction at `pc`; out-of-image or misaligned addresses
  /// yield Op::kIllegal instead of undefined behaviour, so callers fuzzing
  /// arbitrary pcs get a graceful diagnostic.
  isa::Inst inst_at(u64 pc) const {
    if (!contains(pc)) return isa::Inst{};
    return isa::decode(words[(pc - base) / 4]);
  }

  /// "symbol+0x18"-style location for diagnostics; falls back to
  /// "entry+offset" when no symbol precedes `pc`.
  std::string locate(u64 pc) const;

  /// The instruction at `pc` and up to two neighbours either side, one
  /// " => 0x...  disasm" (at pc) or "    0x...  disasm" line each.
  std::vector<std::string> disassembly_context(u64 pc) const;

  /// Exact-address symbol lookup; nullptr when none.
  const Symbol* symbol_at(u64 address) const;

  /// Address of the first symbol with this name, if any.
  std::optional<u64> symbol_address(const std::string& name) const;

  /// Adopt a text_asm result (words + symbol table) loaded at `base`.
  static Image from_assembly(const isa::AsmResult& res, u64 base);
};

}  // namespace ptstore::analysis
