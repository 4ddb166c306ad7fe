/**
 * @file
 * Unit tests for dependence-expression sizing, collapse legality,
 * signature encoding, and collapse-event accounting.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "collapse/collapse_stats.hh"
#include "collapse/rules.hh"
#include "support/random.hh"
#include "test_helpers.hh"

namespace ddsc
{
namespace
{

using test::Rec;
using test::alu;
using test::aluImm;
using test::branch;
using test::load;
using test::store;

/** Every opcode in each of the kOperandPatterns operand patterns, each
 *  pattern spelled four times with random non-zero registers and
 *  immediates: the column table was built from one spelling, so equal
 *  columns across spellings show that the pattern determines them. */
std::vector<TraceRecord>
everyOperandPattern()
{
    Rng rng(27);
    const auto reg = [&rng](bool zero) {
        return zero ? kRegZero
                    : static_cast<std::uint8_t>(1 + rng.below(31));
    };
    std::vector<TraceRecord> out;
    for (unsigned op = 0; op < kNumOpcodes; ++op) {
        for (unsigned pattern = 0; pattern < kOperandPatterns; ++pattern) {
            for (unsigned spelling = 0; spelling < 4; ++spelling) {
                TraceRecord rec;
                rec.op = static_cast<Opcode>(op);
                rec.rs1 = reg(pattern & 1);
                rec.rs2 = reg(pattern & 2);
                rec.rd = reg(pattern & 4);
                rec.useImm = (pattern & 8) != 0;
                const auto magnitude =
                    static_cast<std::int32_t>(1 + rng.below(1u << 19));
                rec.imm = pattern & 16 ? 0
                                       : rng.below(2) ? magnitude
                                                      : -magnitude;
                EXPECT_EQ(operandPattern(rec), pattern);
                out.push_back(rec);
            }
        }
    }
    return out;
}

TEST(ExprSize, SingleInstructions)
{
    const ExprSize add = ExprSize::of(alu(Opcode::ADD, 3, 1, 2));
    EXPECT_EQ(add.rawOperands, 2u);
    EXPECT_EQ(add.nonZeroOperands, 2u);
    EXPECT_EQ(add.instructions, 1u);

    const ExprSize addi0 = ExprSize::of(aluImm(Opcode::ADD, 3, 1, 0));
    EXPECT_EQ(addi0.rawOperands, 2u);
    EXPECT_EQ(addi0.nonZeroOperands, 1u);

    const ExprSize mv = ExprSize::of(aluImm(Opcode::MOV, 3, 0, 5));
    EXPECT_EQ(mv.rawOperands, 1u);

    const ExprSize st = ExprSize::of(store(5, 2, 4, 0));
    EXPECT_EQ(st.rawOperands, 3u);

    // The branch's one input is the cc arc itself.
    const ExprSize br = ExprSize::of(branch(Cond::EQ, true));
    EXPECT_EQ(br.rawOperands, 1u);
    EXPECT_EQ(br.nonZeroOperands, 1u);

    // The front-end reads the same sizes from CollapseColumnTable.
    const CollapseColumnTable &table = CollapseColumnTable::instance();
    for (const TraceRecord &rec : everyOperandPattern()) {
        const ExprSize want = ExprSize::of(rec);
        const ExprSize got = table.of(rec).expr;
        EXPECT_EQ(got.rawOperands, want.rawOperands)
            << opTraits(rec.op).mnemonic << " " << operandPattern(rec);
        EXPECT_EQ(got.nonZeroOperands, want.nonZeroOperands)
            << opTraits(rec.op).mnemonic << " " << operandPattern(rec);
        EXPECT_EQ(got.instructions, want.instructions)
            << opTraits(rec.op).mnemonic << " " << operandPattern(rec);
    }
}

TEST(ExprSize, SubstituteSingleSlot)
{
    // Rg = (Rd << Rh) + Re: 2 + 2 - 1 = 3 operands.
    const ExprSize shift = ExprSize::of(alu(Opcode::SLL, 2, 3, 4));
    const ExprSize add = ExprSize::of(alu(Opcode::ADD, 5, 2, 6));
    const ExprSize combined = ExprSize::substitute(add, shift, 1);
    EXPECT_EQ(combined.rawOperands, 3u);
    EXPECT_EQ(combined.nonZeroOperands, 3u);
    EXPECT_EQ(combined.instructions, 2u);
}

TEST(ExprSize, SubstituteBothSlots)
{
    // Rb = Ra + Rd; Rc = Rb + Rb: (Ra+Rd)+(Ra+Rd) is a 4-1 expression
    // (the paper's own example in Section 3).
    const ExprSize prod = ExprSize::of(alu(Opcode::ADD, 2, 1, 4));
    const ExprSize cons = ExprSize::of(alu(Opcode::ADD, 3, 2, 2));
    const ExprSize combined = ExprSize::substitute(cons, prod, 2);
    EXPECT_EQ(combined.rawOperands, 4u);
    EXPECT_EQ(combined.instructions, 2u);
}

TEST(Judge, PairWithinThreeOperandsIsThreeOne)
{
    CollapseRules rules;
    ExprSize e;
    e.rawOperands = 3;
    e.nonZeroOperands = 3;
    e.instructions = 2;
    CollapseCategory cat;
    ASSERT_TRUE(rules.judge(e, cat));
    EXPECT_EQ(cat, CollapseCategory::ThreeOne);
}

TEST(Judge, WidePairNeedsFourOneDevice)
{
    CollapseRules rules;
    ExprSize e;
    e.rawOperands = 4;
    e.nonZeroOperands = 4;
    e.instructions = 2;
    CollapseCategory cat;
    ASSERT_TRUE(rules.judge(e, cat));
    EXPECT_EQ(cat, CollapseCategory::FourOne);
}

TEST(Judge, TripleIsFourOne)
{
    CollapseRules rules;
    ExprSize e;
    e.rawOperands = 4;
    e.nonZeroOperands = 4;
    e.instructions = 3;
    CollapseCategory cat;
    ASSERT_TRUE(rules.judge(e, cat));
    EXPECT_EQ(cat, CollapseCategory::FourOne);
}

TEST(Judge, ZeroEnabledCollapseIsZeroOp)
{
    CollapseRules rules;
    ExprSize e;
    e.rawOperands = 5;      // too wide for the device...
    e.nonZeroOperands = 4;  // ...but fits once the zero is discarded
    e.instructions = 3;
    CollapseCategory cat;
    ASSERT_TRUE(rules.judge(e, cat));
    EXPECT_EQ(cat, CollapseCategory::ZeroOp);
}

TEST(Judge, TooManyOperandsRejected)
{
    CollapseRules rules;
    ExprSize e;
    e.rawOperands = 5;
    e.nonZeroOperands = 5;
    e.instructions = 3;
    CollapseCategory cat;
    EXPECT_FALSE(rules.judge(e, cat));
}

TEST(Judge, TooManyInstructionsRejected)
{
    CollapseRules rules;
    ExprSize e;
    e.rawOperands = 4;
    e.nonZeroOperands = 4;
    e.instructions = 4;
    CollapseCategory cat;
    EXPECT_FALSE(rules.judge(e, cat));
}

TEST(Judge, ZeroOpDetectionCanBeDisabled)
{
    CollapseRules rules;
    rules.zeroOpDetection = false;
    ExprSize e;
    e.rawOperands = 5;
    e.nonZeroOperands = 4;
    e.instructions = 3;
    CollapseCategory cat;
    EXPECT_FALSE(rules.judge(e, cat));
}

TEST(Judge, PairLimitKnob)
{
    CollapseRules rules;
    rules.maxInstructions = 2;      // pairs only (ablation)
    ExprSize e;
    e.rawOperands = 4;
    e.nonZeroOperands = 4;
    e.instructions = 3;
    CollapseCategory cat;
    EXPECT_FALSE(rules.judge(e, cat));
}

TEST(Eligibility, ProducersAreAluClassesOnly)
{
    EXPECT_TRUE(CollapseRules::producerEligible(alu(Opcode::ADD, 1, 2, 3)));
    EXPECT_TRUE(CollapseRules::producerEligible(alu(Opcode::SLL, 1, 2, 3)));
    EXPECT_TRUE(CollapseRules::producerEligible(alu(Opcode::OR, 1, 2, 3)));
    EXPECT_TRUE(CollapseRules::producerEligible(
        aluImm(Opcode::MOV, 1, 0, 5)));
    EXPECT_FALSE(CollapseRules::producerEligible(alu(Opcode::MUL, 1, 2, 3)));
    EXPECT_FALSE(CollapseRules::producerEligible(alu(Opcode::DIV, 1, 2, 3)));
    EXPECT_FALSE(CollapseRules::producerEligible(load(1, 2, 0, 0)));
}

TEST(Eligibility, ConsumersByArcKind)
{
    const TraceRecord add = alu(Opcode::ADD, 1, 2, 3);
    EXPECT_TRUE(CollapseRules::consumerEligible(add, false, false));
    EXPECT_FALSE(CollapseRules::consumerEligible(add, true, false));

    const TraceRecord ld = load(1, 2, 0, 0);
    EXPECT_TRUE(CollapseRules::consumerEligible(ld, true, false));
    EXPECT_FALSE(CollapseRules::consumerEligible(ld, false, false));

    const TraceRecord st = store(1, 2, 0, 0);
    EXPECT_TRUE(CollapseRules::consumerEligible(st, true, false));
    EXPECT_FALSE(CollapseRules::consumerEligible(st, false, false));

    const TraceRecord br = branch(Cond::EQ, true);
    EXPECT_TRUE(CollapseRules::consumerEligible(br, false, true));

    const TraceRecord mul = alu(Opcode::MUL, 1, 2, 3);
    EXPECT_FALSE(CollapseRules::consumerEligible(mul, false, false));
}

TEST(Signature, PaperEncodings)
{
    EXPECT_EQ(instructionSignature(alu(Opcode::ADD, 1, 2, 3)), "arrr");
    EXPECT_EQ(instructionSignature(aluImm(Opcode::ADD, 1, 2, 9)), "arri");
    EXPECT_EQ(instructionSignature(aluImm(Opcode::ADD, 1, 2, 0)), "arr0");
    EXPECT_EQ(instructionSignature(alu(Opcode::SUB, 1, 0, 3)), "ar0r");
    EXPECT_EQ(instructionSignature(aluImm(Opcode::SLL, 1, 2, 4)), "shri");
    EXPECT_EQ(instructionSignature(aluImm(Opcode::OR, 1, 2, 7)), "lgri");
    EXPECT_EQ(instructionSignature(alu(Opcode::AND, 1, 2, 0)), "lgr0");
    EXPECT_EQ(instructionSignature(aluImm(Opcode::MOV, 1, 0, 5)), "mvi");
    EXPECT_EQ(instructionSignature(Rec(Opcode::SETHI).rd(1).imm(0x40000)),
              "mvi");
    EXPECT_EQ(instructionSignature(
                  Rec(Opcode::MOV).rd(1).rs2(7)), "mvr");
    EXPECT_EQ(instructionSignature(load(1, 2, 0, 0)), "ldr0");
    EXPECT_EQ(instructionSignature(
                  Rec(Opcode::LDW).rd(1).rs1(2).rs2(3)), "ldrr");
    EXPECT_EQ(instructionSignature(load(1, 2, 8, 0)), "ldri");
    EXPECT_EQ(instructionSignature(store(5, 2, 8, 0)), "stri");
    EXPECT_EQ(instructionSignature(branch(Cond::NE, true)), "brc");
}

TEST(Signature, Groups)
{
    const TraceRecord a = aluImm(Opcode::ADD, 1, 2, 5);
    const TraceRecord b = branch(Cond::EQ, true);
    const TraceRecord *pair[] = {&a, &b};
    EXPECT_EQ(groupSignature(pair, 2), "arri-brc");

    const TraceRecord c = alu(Opcode::SLL, 3, 1, 4);
    const TraceRecord *triple[] = {&a, &c, &b};
    EXPECT_EQ(groupSignature(triple, 3), "arri-shrr-brc");
}

/** The documented packed-fragment layout, built independently of
 *  packInstructionSignature: letter i in byte i, length in the top
 *  byte, zeros between. */
std::uint64_t
packed(std::string_view letters)
{
    std::uint64_t word = std::uint64_t{letters.size()} << 56;
    for (std::size_t i = 0; i < letters.size(); ++i)
        word |= std::uint64_t{static_cast<unsigned char>(letters[i])}
                << (8 * i);
    return word;
}

TEST(Signature, PackedFragments)
{
    const TraceRecord records[] = {
        alu(Opcode::ADD, 1, 2, 3), aluImm(Opcode::ADD, 1, 2, 0),
        aluImm(Opcode::SLL, 1, 2, 4), aluImm(Opcode::MOV, 1, 0, 5),
        load(1, 2, 8, 0), store(5, 2, 8, 0), branch(Cond::NE, true),
    };
    for (const TraceRecord &rec : records) {
        const std::string sig = instructionSignature(rec);
        EXPECT_EQ(packInstructionSignature(rec), packed(sig)) << sig;
        char out[kMaxInstructionSignature];
        EXPECT_EQ(std::string(out, appendPackedSignature(
                                       packInstructionSignature(rec),
                                       out)),
                  sig);
    }
    char out[kMaxInstructionSignature];
    EXPECT_EQ(std::string(out, appendPackedSignature(packed("abcdefg"),
                                                     out)),
              "abcdefg");
    EXPECT_EQ(appendPackedSignature(packed(""), out), 0u);

    // The front-end reads the same fragments from CollapseColumnTable.
    const CollapseColumnTable &table = CollapseColumnTable::instance();
    for (const TraceRecord &rec : everyOperandPattern())
        EXPECT_EQ(table.of(rec).sig, packInstructionSignature(rec))
            << opTraits(rec.op).mnemonic << " " << operandPattern(rec);
}

/** Feed @p n seeded random events, built from @p frags, both to
 *  record() on @p oracle and to @p tally. */
void
feedBoth(Rng &rng, unsigned n,
         const std::vector<std::string> &frags, std::uint64_t max_distance,
         CollapseStats &oracle, CollapseTally &tally)
{
    for (unsigned i = 0; i < n; ++i) {
        CollapseEvent event;
        event.category = static_cast<CollapseCategory>(
            rng.below(kNumCollapseCategories));
        event.groupSize = rng.chance(0.4) ? 3 : 2;
        std::size_t members[3];
        std::string sig;
        for (unsigned m = 0; m < event.groupSize; ++m) {
            members[m] = rng.below(frags.size());
            sig += (m > 0 ? "-" : "") + frags[members[m]];
        }
        event.signature = sig;
        event.distanceCount = static_cast<unsigned>(rng.below(3));
        for (unsigned d = 0; d < event.distanceCount; ++d) {
            event.distances[d] = rng.below(max_distance + 1);
            tally.addDistance(event.distances[d]);
        }
        oracle.record(event);
        if (event.groupSize == 2) {
            tally.addPair(event.category, packed(frags[members[0]]),
                          packed(frags[members[1]]));
        } else {
            tally.addTriple(event.category, packed(frags[members[0]]),
                            packed(frags[members[1]]),
                            packed(frags[members[2]]));
        }
        if (rng.chance(0.3)) {
            oracle.noteCollapsedInstruction();
            tally.noteCollapsedInstruction();
        }
    }
}

std::string
encoded(const CollapseStats &stats)
{
    std::string out;
    stats.encode(out);
    return out;
}

TEST(CollapseTally, DrainMatchesRecord)
{
    // Real fragments plus the extremes: one letter and all seven.
    const std::vector<std::string> frags = {
        "arrr", "arri", "arr0", "ar0r", "shri", "lgri", "lgr0", "mvi",
        "mvr", "ldr0", "ldrr", "ldri", "stri", "brc", "a", "abcdefg"};
    Rng rng(25);

    // Distance 0 and distances past the initial array; more keys than
    // either table starts with.
    CollapseStats oracle;
    CollapseTally tally;
    feedBoth(rng, 6000, frags, 3 * CollapseTally::kInitialDistances,
             oracle, tally);
    CollapseStats drained;
    tally.drainInto(drained);
    EXPECT_EQ(encoded(drained), encoded(oracle));
    EXPECT_GT(oracle.distances().count(0), 0u);
    EXPECT_GT(oracle.distances().maxKey(),
              CollapseTally::kInitialDistances);
    EXPECT_GT(oracle.pairSignatures().size(),
              CollapseTally::kInitialSlots);
    EXPECT_GT(oracle.tripleSignatures().size(),
              CollapseTally::kInitialSlots);

    // A drain adds to a non-empty CollapseStats, and drainInto() left
    // the tally empty for the next run.
    feedBoth(rng, 3000, frags, 40, oracle, tally);
    tally.drainInto(drained);
    EXPECT_EQ(encoded(drained), encoded(oracle));

    // A tally reused after clear() forgets what it held.
    CollapseStats discarded;
    feedBoth(rng, 500, frags, 500, discarded, tally);
    tally.clear();
    CollapseStats fresh_oracle;
    feedBoth(rng, 2000, frags, 100, fresh_oracle, tally);
    CollapseStats fresh;
    tally.drainInto(fresh);
    EXPECT_EQ(encoded(fresh), encoded(fresh_oracle));

    // An empty tally drains nothing.
    const std::string before = encoded(fresh);
    tally.drainInto(fresh);
    EXPECT_EQ(encoded(fresh), before);
}

TEST(CollapseStats, CategoriesAndDistances)
{
    CollapseStats stats;
    CollapseEvent e1;
    e1.category = CollapseCategory::ThreeOne;
    e1.groupSize = 2;
    e1.signature = "arri-brc";
    e1.distances = {1, 0};
    e1.distanceCount = 1;
    stats.record(e1);
    stats.record(e1);

    CollapseEvent e2;
    e2.category = CollapseCategory::FourOne;
    e2.groupSize = 3;
    e2.signature = "arri-arri-arri";
    e2.distances = {2, 5};
    e2.distanceCount = 2;
    stats.record(e2);

    EXPECT_EQ(stats.events(), 3u);
    EXPECT_EQ(stats.eventsOf(CollapseCategory::ThreeOne), 2u);
    EXPECT_EQ(stats.eventsOf(CollapseCategory::FourOne), 1u);
    EXPECT_NEAR(stats.pctOf(CollapseCategory::ThreeOne), 66.67, 0.01);
    EXPECT_EQ(stats.pairEvents(), 2u);
    EXPECT_EQ(stats.tripleEvents(), 1u);
    EXPECT_EQ(stats.distances().samples(), 4u);
    EXPECT_EQ(stats.distances().count(1), 2u);
    EXPECT_EQ(stats.distances().count(5), 1u);
}

TEST(CollapseStats, TopSignatures)
{
    CollapseStats stats;
    CollapseEvent e;
    e.category = CollapseCategory::ThreeOne;
    e.groupSize = 2;
    e.distanceCount = 0;
    e.signature = "arri-brc";
    stats.record(e);
    stats.record(e);
    stats.record(e);
    e.signature = "shri-ldrr";
    stats.record(e);
    const auto top = stats.topSignatures(2, 5);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].first, "arri-brc");
    EXPECT_NEAR(top[0].second, 75.0, 1e-9);
    EXPECT_EQ(top[1].first, "shri-ldrr");
    EXPECT_NEAR(top[1].second, 25.0, 1e-9);
}

TEST(CollapseStats, Merge)
{
    CollapseStats a, b;
    CollapseEvent e;
    e.category = CollapseCategory::ZeroOp;
    e.groupSize = 2;
    e.signature = "lgr0-arrr";
    e.distances = {3, 0};
    e.distanceCount = 1;
    a.record(e);
    b.record(e);
    b.noteCollapsedInstruction();
    a.merge(b);
    EXPECT_EQ(a.events(), 2u);
    EXPECT_EQ(a.collapsedInstructions(), 1u);
    EXPECT_EQ(a.pairSignatures().at("lgr0-arrr"), 2u);
}

} // anonymous namespace
} // namespace ddsc
