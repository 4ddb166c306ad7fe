/**
 * @file
 * Dependence-collapsing legality rules and dependence expressions.
 *
 * The paper's collapsing device executes 3-1 and 4-1 dependence
 * expressions over shift, arithmetic (not multiply/divide), logical and
 * move operations, plus the address generation of loads and stores and
 * the condition-code generation consumed by conditional branches.  Zero
 * operands (reads of r0 or zero immediates) are detected and shrink the
 * expression, enabling collapses that would otherwise exceed the device
 * width ("0-op" category).
 *
 * Terminology used here:
 *  - producer: the instruction whose result arc is being collapsed; must
 *    be an ALU-executable class (arith/logic/shift/move).
 *  - consumer: the instruction absorbing the producer's expression; any
 *    collapsible class.  For loads/stores only the *address* arcs are
 *    collapsible, for conditional branches only the cc arc.
 *  - group: the set of instructions fused into one compound operation,
 *    at most 3 (pairs and triples).
 */

#ifndef DDSC_COLLAPSE_RULES_HH
#define DDSC_COLLAPSE_RULES_HH

#include <cstdint>
#include <string>

#include "trace/record.hh"

namespace ddsc
{

/**
 * Operand-count summary of a (possibly compound) dependence expression.
 */
struct ExprSize
{
    unsigned rawOperands = 0;       ///< all leaf source slots
    unsigned nonZeroOperands = 0;   ///< slots after 0-op elimination
    unsigned instructions = 1;      ///< group member count

    /** The size of a single instruction's own expression. */
    static ExprSize of(const TraceRecord &rec);

    /**
     * The expression obtained by substituting @p producer into one
     * referencing slot of @p consumer (the slot itself disappears; the
     * producer's operands take its place).  @p slots is how many of the
     * consumer's slots reference the producer (1 normally, 2 for
     * patterns like Rc = Rb + Rb).
     */
    static ExprSize substitute(const ExprSize &consumer,
                               const ExprSize &producer,
                               unsigned slots = 1);
};

/** Collapse event categories reported in Figure 9. */
enum class CollapseCategory : std::uint8_t
{
    ThreeOne,   ///< pair whose expression fits the 3-1 device
    FourOne,    ///< triple, or a pair needing the 4-1 device
    ZeroOp,     ///< legal only because zero operands were discarded
};

/** Number of collapse categories. */
constexpr unsigned kNumCollapseCategories = 3;

/** Display name ("3-1", "4-1", "0-op"). */
std::string_view collapseCategoryName(CollapseCategory c);

/**
 * Tunable legality rules; defaults match the paper's model.
 */
struct CollapseRules
{
    /** Largest operand count the widest device accepts (4 = 4-1). */
    unsigned maxOperands = 4;
    /** Operand count handled by the narrow device (3 = 3-1); fixed,
     *  and still written into MachineConfig::fingerprint(). */
    static constexpr unsigned kNarrowOperands = 3;
    /** Largest group size (3 = pairs and triples). */
    unsigned maxInstructions = 3;
    /** Discard zero operands when sizing expressions. */
    bool zeroOpDetection = true;

    /**
     * Prior-work restrictions (paper section 2: earlier interlock-
     * collapsing studies handled "only consecutive instructions within
     * a single basic block").  0 = unlimited distance; 1 = adjacent
     * dynamic instructions only.
     */
    std::uint64_t maxCollapseDistance = 0;
    /** Forbid collapsing across basic-block boundaries. */
    bool sameBasicBlockOnly = false;

    /** Can @p rec's result arc be absorbed by a collapsing device? */
    static bool
    producerEligible(const TraceRecord &rec)
    {
        switch (rec.cls()) {
          case OpClass::Arith:
          case OpClass::Logic:
          case OpClass::Shift:
          case OpClass::Move:
            return true;
          default:
            return false;
        }
    }

    /**
     * Can @p rec absorb a producer on the given arc kind?
     * @param address_arc true when the arc feeds address generation.
     * @param cc_arc true when the arc carries condition codes.
     */
    static bool
    consumerEligible(const TraceRecord &rec, bool address_arc, bool cc_arc)
    {
        switch (rec.cls()) {
          case OpClass::Arith:
          case OpClass::Logic:
          case OpClass::Shift:
          case OpClass::Move:
            return !address_arc && !cc_arc;
          case OpClass::Load:
          case OpClass::Store:
            return address_arc;
          case OpClass::Branch:
            return cc_arc;
          default:
            return false;
        }
    }

    /**
     * Judge a combined expression.  @return true when collapsible, and
     * set @p category accordingly.
     */
    bool judge(const ExprSize &combined, CollapseCategory &category) const;
};

/**
 * The paper's signature encoding for one instruction: operation-class
 * letters followed by one letter per source-operand slot, 'r' for a
 * register, 'i' for a non-zero immediate, and '0' for a zero operand
 * (r0 or a zero immediate).  Examples: arrr, arri, arr0, shri, mvi,
 * ldrr, lgr0, brc.  Loads and stores list only their address slots;
 * conditional branches have no slots (their input is the cc arc).
 */
std::string instructionSignature(const TraceRecord &rec);

/** Signature of a group, oldest first, e.g. "arri-arri-ldrr". */
std::string groupSignature(const TraceRecord *const *members,
                           unsigned count);

/** Longest possible group signature: three members of up to
 *  kMaxInstructionSignature bytes each plus two separators. */
constexpr std::size_t kMaxInstructionSignature = 7;
constexpr std::size_t kMaxGroupSignature =
    3 * kMaxInstructionSignature + 2;

/** Allocation-free variant for the simulator's collapse path: append
 *  the signature bytes of @p rec to @p out (>= kMaxInstructionSignature
 *  bytes) and return the count written. */
std::size_t appendInstructionSignature(const TraceRecord &rec, char *out);

static_assert(kMaxInstructionSignature < sizeof(std::uint64_t),
              "a packed fragment keeps its length in the top byte");

/**
 * @p rec's signature fragment packed into one word: letter i in bits
 * [8i, 8i + 8), zero bytes past the length, and the length in the top
 * byte.  Equal fragments pack to equal words, so the word is the
 * fragment's id: the collapse path counts groups by these words and
 * spells them only once per run (CollapseTally).
 */
std::uint64_t packInstructionSignature(const TraceRecord &rec);

/** Append the letters of packed fragment @p frag to @p out
 *  (>= kMaxInstructionSignature bytes) and return the count written. */
std::size_t appendPackedSignature(std::uint64_t frag, char *out);

/** Number of operand patterns (five bits, see operandPattern()). */
constexpr unsigned kOperandPatterns = 32;

/**
 * The five operand bits that, with the opcode, fully determine
 * ExprSize::of and packInstructionSignature: bit 0 rs1 == r0, bit 1
 * rs2 == r0, bit 2 rd == r0, bit 3 useImm, bit 4 imm == 0.
 */
inline unsigned
operandPattern(const TraceRecord &rec)
{
    return unsigned{rec.rs1 == kRegZero} |
           unsigned{rec.rs2 == kRegZero} << 1 |
           unsigned{rec.rd == kRegZero} << 2 |
           unsigned{rec.useImm} << 3 |
           unsigned{rec.imm == 0} << 4;
}

/** A record's two collapse columns. */
struct CollapseColumns
{
    ExprSize expr;              ///< ExprSize::of
    std::uint64_t sig = 0;      ///< packInstructionSignature
};

/**
 * ExprSize::of and packInstructionSignature of every (opcode, operand
 * pattern), built once from those two definitions, so the front-end
 * reads a record's collapse columns with one indexed load.
 */
class CollapseColumnTable
{
  public:
    /** The process-wide table, built on first use. */
    static const CollapseColumnTable &instance();

    /** {ExprSize::of(rec), packInstructionSignature(rec)}. */
    const CollapseColumns &
    of(const TraceRecord &rec) const
    {
        return entries_[static_cast<unsigned>(rec.op) * kOperandPatterns +
                        operandPattern(rec)];
    }

  private:
    CollapseColumnTable();

    CollapseColumns entries_[kNumOpcodes * kOperandPatterns];
};

/** Allocation-free groupSignature into @p out (>= kMaxGroupSignature
 *  bytes); returns the length. */
std::size_t groupSignature(const TraceRecord *const *members,
                           unsigned count, char *out);

} // namespace ddsc

#endif // DDSC_COLLAPSE_RULES_HH
