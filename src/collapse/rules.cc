#include "rules.hh"

#include "support/logging.hh"

namespace ddsc
{

ExprSize
ExprSize::of(const TraceRecord &rec)
{
    ExprSize size;
    // Raw slots and zero slots follow the same enumeration the record
    // uses for 0-op detection.
    unsigned raw = 0;
    unsigned non_zero = rec.nonZeroOperandCount();
    switch (rec.cls()) {
      case OpClass::Arith:
      case OpClass::Logic:
      case OpClass::Shift:
      case OpClass::Mul:
      case OpClass::Div:
      case OpClass::Load:
      case OpClass::IndirectJump:
        raw = 2;
        break;
      case OpClass::Move:
        raw = 1;
        break;
      case OpClass::Store:
        raw = 3;    // base, offset, data
        break;
      case OpClass::Branch:
        // A conditional branch has exactly one input: the condition
        // codes.  Model it as one (non-zero) slot so substituting the
        // cc producer consumes it, giving e.g. arrr-brc = 2 operands.
        raw = 1;
        non_zero = 1;
        break;
      default:
        raw = 0;
        non_zero = 0;
        break;
    }
    size.rawOperands = raw;
    size.nonZeroOperands = non_zero;
    size.instructions = 1;
    return size;
}

ExprSize
ExprSize::substitute(const ExprSize &consumer, const ExprSize &producer,
                     unsigned slots)
{
    ddsc_assert(slots >= 1 && slots <= 2, "bad substitution count %u",
                slots);
    ExprSize out;
    // Each referencing slot disappears and is replaced by a copy of the
    // producer's full operand list (Rc = Rb + Rb duplicates it).
    out.rawOperands = consumer.rawOperands - slots +
        slots * producer.rawOperands;
    out.nonZeroOperands = consumer.nonZeroOperands - slots +
        slots * producer.nonZeroOperands;
    out.instructions = consumer.instructions + producer.instructions;
    return out;
}

std::string_view
collapseCategoryName(CollapseCategory c)
{
    switch (c) {
      case CollapseCategory::ThreeOne: return "3-1";
      case CollapseCategory::FourOne: return "4-1";
      case CollapseCategory::ZeroOp: return "0-op";
    }
    return "?";
}

bool
CollapseRules::judge(const ExprSize &combined,
                     CollapseCategory &category) const
{
    if (combined.instructions > maxInstructions)
        return false;

    const unsigned effective = zeroOpDetection
        ? combined.nonZeroOperands : combined.rawOperands;
    if (effective > maxOperands)
        return false;

    if (zeroOpDetection && combined.rawOperands > maxOperands) {
        // Legal only thanks to zero-operand elimination.
        category = CollapseCategory::ZeroOp;
    } else if (combined.instructions == 2 &&
               combined.rawOperands <= kNarrowOperands) {
        category = CollapseCategory::ThreeOne;
    } else {
        // Triples, and pairs too wide for the 3-1 device.
        category = CollapseCategory::FourOne;
    }
    return true;
}

namespace
{

char
regLetter(std::uint8_t reg)
{
    return reg == kRegZero ? '0' : 'r';
}

char
src2Letter(const TraceRecord &rec)
{
    if (rec.useImm)
        return rec.imm == 0 ? '0' : 'i';
    return regLetter(rec.rs2);
}

} // anonymous namespace

std::size_t
appendInstructionSignature(const TraceRecord &rec, char *out)
{
    const std::string_view cls = opClassSignature(rec.cls());
    cls.copy(out, cls.size());
    char *p = out + cls.size();
    switch (rec.cls()) {
      case OpClass::Arith:
      case OpClass::Logic:
      case OpClass::Shift:
      case OpClass::Mul:
      case OpClass::Div:
        *p++ = regLetter(rec.rs1);
        *p++ = src2Letter(rec);
        break;
      case OpClass::Move:
        if (rec.op == Opcode::SETHI)
            *p++ = rec.imm == 0 ? '0' : 'i';
        else
            *p++ = src2Letter(rec);
        break;
      case OpClass::Load:
      case OpClass::Store:
        // Address slots only, matching the two-letter ld/st signatures
        // in the paper's tables.
        *p++ = regLetter(rec.rs1);
        *p++ = src2Letter(rec);
        break;
      case OpClass::Branch:
        break;      // plain "brc"
      default:
        break;
    }
    return static_cast<std::size_t>(p - out);
}

std::uint64_t
packInstructionSignature(const TraceRecord &rec)
{
    char letters[kMaxInstructionSignature];
    const std::size_t len = appendInstructionSignature(rec, letters);
    std::uint64_t frag = static_cast<std::uint64_t>(len) << 56;
    for (std::size_t i = 0; i < len; ++i)
        frag |= std::uint64_t{static_cast<std::uint8_t>(letters[i])}
                << (8 * i);
    return frag;
}

std::size_t
appendPackedSignature(std::uint64_t frag, char *out)
{
    const std::size_t len = static_cast<std::size_t>(frag >> 56);
    for (std::size_t i = 0; i < len; ++i)
        out[i] = static_cast<char>(frag >> (8 * i));
    return len;
}

const CollapseColumnTable &
CollapseColumnTable::instance()
{
    static const CollapseColumnTable table;
    return table;
}

CollapseColumnTable::CollapseColumnTable()
{
    for (unsigned op = 0; op < kNumOpcodes; ++op) {
        for (unsigned pattern = 0; pattern < kOperandPatterns; ++pattern) {
            // Any record with this opcode and pattern will do: the
            // non-zero register numbers and immediate are arbitrary.
            TraceRecord rec;
            rec.op = static_cast<Opcode>(op);
            rec.rs1 = pattern & 1 ? kRegZero : 1;
            rec.rs2 = pattern & 2 ? kRegZero : 2;
            rec.rd = pattern & 4 ? kRegZero : 3;
            rec.useImm = (pattern & 8) != 0;
            rec.imm = pattern & 16 ? 0 : 1;
            entries_[op * kOperandPatterns + pattern] = {
                ExprSize::of(rec), packInstructionSignature(rec)};
        }
    }
}

std::size_t
groupSignature(const TraceRecord *const *members, unsigned count,
               char *out)
{
    char *p = out;
    for (unsigned i = 0; i < count; ++i) {
        if (i > 0)
            *p++ = '-';
        p += appendInstructionSignature(*members[i], p);
    }
    return static_cast<std::size_t>(p - out);
}

std::string
instructionSignature(const TraceRecord &rec)
{
    char buf[kMaxInstructionSignature];
    return std::string(buf, appendInstructionSignature(rec, buf));
}

std::string
groupSignature(const TraceRecord *const *members, unsigned count)
{
    char buf[kMaxGroupSignature];
    return std::string(buf, groupSignature(members, count, buf));
}

} // namespace ddsc
