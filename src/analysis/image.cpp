#include "analysis/image.h"

#include <sstream>

namespace ptstore::analysis {

std::string Image::locate(u64 pc) const {
  const Symbol* best = nullptr;
  for (const Symbol& s : symbols) {
    if (s.address <= pc && (best == nullptr || s.address > best->address)) best = &s;
  }
  std::ostringstream os;
  if (best != nullptr) {
    os << best->name;
    if (pc != best->address) os << "+0x" << std::hex << pc - best->address;
  } else {
    os << "entry";
    if (pc != base) os << "+0x" << std::hex << pc - base;
  }
  return os.str();
}

std::vector<std::string> Image::disassembly_context(u64 pc) const {
  std::vector<std::string> lines;
  const u64 lo = (pc >= base + 8) ? pc - 8 : base;
  const u64 hi = (pc + 12 <= end()) ? pc + 12 : end();
  for (u64 p = lo; p < hi; p += 4) {
    if (!contains(p)) continue;
    std::ostringstream os;
    os << (p == pc ? " => " : "    ") << "0x" << std::hex << p << "  "
       << isa::disassemble(inst_at(p));
    lines.push_back(os.str());
  }
  return lines;
}

const Symbol* Image::symbol_at(u64 address) const {
  for (const Symbol& s : symbols) {
    if (s.address == address) return &s;
  }
  return nullptr;
}

std::optional<u64> Image::symbol_address(const std::string& name) const {
  for (const Symbol& s : symbols) {
    if (s.name == name) return s.address;
  }
  return std::nullopt;
}

Image Image::from_assembly(const isa::AsmResult& res, u64 base) {
  Image img;
  img.base = base;
  img.words = res.words;
  img.symbols.reserve(res.symbols.size());
  for (const isa::AsmSymbol& s : res.symbols) {
    img.symbols.push_back(Symbol{s.name, s.address});
  }
  return img;
}

}  // namespace ptstore::analysis
