#include "vasm/builder.hpp"

#include <sstream>

namespace fgpu::vasm {

namespace {

// Splits `value` into a 20-bit upper immediate (lui/auipc) and the
// sign-extended low 12 bits (addi). The upper part is rounded up when bit
// 11 is set, to compensate for the sign extension; it is computed in
// uint32_t because value - lo can leave the int32_t range (0x7FFFF800).
struct HiLo {
  int32_t hi;
  int32_t lo;
};
HiLo split_hi_lo(int32_t value) {
  const uint32_t bits = static_cast<uint32_t>(value);
  const int32_t lo = static_cast<int32_t>(bits << 20) >> 20;
  const uint32_t hi = ((bits - static_cast<uint32_t>(lo)) >> 12) & 0xFFFFF;
  return HiLo{static_cast<int32_t>(hi), lo};
}

}  // namespace

void AsmBuilder::li(unsigned rd, int32_t value) {
  if (value >= -2048 && value <= 2047) {
    emit_i(arch::Op::kAddi, rd, 0, value);
    return;
  }
  // lui loads imm<<12; addi adds the low 12 bits.
  const HiLo parts = split_hi_lo(value);
  emit_u(arch::Op::kLui, rd, parts.hi);
  if (parts.lo != 0) emit_i(arch::Op::kAddi, rd, rd, parts.lo);
}

Result<Program> AsmBuilder::finalize(uint32_t base) const {
  Program prog;
  prog.base = base;
  prog.words.reserve(instrs_.size());
  for (size_t i = 0; i < instrs_.size(); ++i) {
    arch::Instr instr = instrs_[i].instr;
    if (instrs_[i].target != kNoLabel) {
      const int target_index = labels_[static_cast<size_t>(instrs_[i].target)];
      if (target_index == kUnbound) {
        return Result<Program>(ErrorKind::kInternal,
                               "unbound label referenced at instruction " + std::to_string(i));
      }
      if (instrs_[i].fix == FixKind::kLaHi || instrs_[i].fix == FixKind::kLaLo) {
        // auipc/addi pair: both immediates are relative to the auipc's pc.
        const size_t auipc_index = instrs_[i].fix == FixKind::kLaHi ? i : i - 1;
        const int64_t delta =
            (static_cast<int64_t>(target_index) - static_cast<int64_t>(auipc_index)) * 4;
        const HiLo parts = split_hi_lo(static_cast<int32_t>(delta));
        instr.imm = instrs_[i].fix == FixKind::kLaHi ? parts.hi : parts.lo;
      } else {
        const int64_t offset = (static_cast<int64_t>(target_index) - static_cast<int64_t>(i)) * 4;
        const auto& info = arch::op_info(instr.op);
        const bool is_b = info.fmt == arch::Format::kB;
        const int64_t limit = is_b ? 4096 : (1 << 20);
        if (offset < -limit || offset >= limit) {
          return Result<Program>(ErrorKind::kCompileError,
                                 "branch offset out of range at instruction " + std::to_string(i));
        }
        instr.imm = static_cast<int32_t>(offset);
      }
    }
    prog.words.push_back(arch::encode(instr));
  }
  for (const auto& [name, index] : pending_symbols_) {
    prog.symbols[name] = base + static_cast<uint32_t>(index * 4);
  }
  return prog;
}

std::string Program::disassemble() const { return disassemble(DisasmOptions{}); }

namespace {

// True for ops whose immediate is a pc-relative control-flow offset
// (branches, JAL, and the SIMT split/pred/join family).
bool is_pc_relative(arch::Format fmt) {
  return fmt == arch::Format::kB || fmt == arch::Format::kJ || fmt == arch::Format::kJr;
}

// Renders `instr` with its control-flow offset replaced by `label`
// (arch::to_string prints numeric offsets, which the assembler does not
// accept back — targets must be labels).
std::string to_string_with_label(const arch::Instr& instr, const std::string& label) {
  const auto& info = arch::op_info(instr.op);
  char buf[96];
  switch (info.fmt) {
    case arch::Format::kB:
      std::snprintf(buf, sizeof(buf), "%s %s, %s, %s", info.name, arch::xreg_name(instr.rs1),
                    arch::xreg_name(instr.rs2), label.c_str());
      break;
    case arch::Format::kJ:
      if (instr.op == arch::Op::kJoin) {
        std::snprintf(buf, sizeof(buf), "%s %s", info.name, label.c_str());
      } else {
        std::snprintf(buf, sizeof(buf), "%s %s, %s", info.name, arch::xreg_name(instr.rd),
                      label.c_str());
      }
      break;
    case arch::Format::kJr:
      std::snprintf(buf, sizeof(buf), "%s %s, %s", info.name, arch::xreg_name(instr.rs1),
                    label.c_str());
      break;
    default:
      return arch::to_string(instr);
  }
  return buf;
}

}  // namespace

std::string Program::disassemble(const DisasmOptions& options) const {
  // Invert the symbol table for label printing. Synthetic-label mode builds
  // its own names instead: symbol names like ".end" are not valid assembler
  // identifiers, and every branch target needs a label for re-assembly.
  std::unordered_map<uint32_t, std::string> by_addr;
  if (options.synth_labels) {
    for (size_t i = 0; i < words.size(); ++i) {
      const auto instr = arch::decode(words[i]);
      if (!instr || !is_pc_relative(arch::op_info(instr->op).fmt)) continue;
      const uint32_t target = base + static_cast<uint32_t>(i * 4) +
                              static_cast<uint32_t>(instr->imm);
      char name[16];
      std::snprintf(name, sizeof(name), "L%08x", target);
      by_addr[target] = name;
    }
  } else {
    for (const auto& [name, addr] : symbols) by_addr[addr] = name;
  }

  std::ostringstream os;
  int32_t last_source = -1;
  for (size_t i = 0; i < words.size(); ++i) {
    const uint32_t addr = base + static_cast<uint32_t>(i * 4);
    if (options.source_map != nullptr && i < options.source_map->word_source.size()) {
      const int32_t src = options.source_map->word_source[i];
      if (src >= 0 && src != last_source) {
        // Comments must stay on one line or the listing stops re-assembling:
        // source strings can embed control characters (printf format text).
        os << "# ";
        for (const char c : options.source_map->sources[static_cast<size_t>(src)]) {
          switch (c) {
            case '\n': os << "\\n"; break;
            case '\r': os << "\\r"; break;
            case '\t': os << "\\t"; break;
            default: os << c; break;
          }
        }
        os << "\n";
        last_source = src;
      }
    }
    if (auto it = by_addr.find(addr); it != by_addr.end()) {
      os << it->second << ":\n";
    }
    if (options.annotate) os << options.annotate(addr, i);
    if (options.addresses) {
      char head[32];
      std::snprintf(head, sizeof(head), "  %08x:  %08x  ", addr, words[i]);
      os << head;
    } else {
      os << "  ";
    }
    const auto instr = arch::decode(words[i]);
    if (!instr) {
      os << "<invalid>";
    } else if (options.synth_labels && is_pc_relative(arch::op_info(instr->op).fmt)) {
      const uint32_t target = addr + static_cast<uint32_t>(instr->imm);
      os << to_string_with_label(*instr, by_addr.at(target));
    } else {
      os << arch::to_string(*instr);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace fgpu::vasm
