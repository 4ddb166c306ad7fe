/**
 * @file
 * Parameterized property sweeps across component configuration spaces:
 * predictor geometries, stride patterns, collapse-rule shapes, and
 * scheduler widths.  Each property is stated once and instantiated
 * over the whole parameter grid.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "addrpred/addrpred.hh"
#include "bpred/bpred.hh"
#include "collapse/rules.hh"
#include "core/scheduler.hh"
#include "trace/synthetic.hh"

namespace ddsc
{
namespace
{

// --- branch predictors across sizes ------------------------------------

class BpredGeometry : public testing::TestWithParam<unsigned>
{
};

TEST_P(BpredGeometry, AllDesignsLearnABiasedStream)
{
    const unsigned bits = GetParam();
    BimodalPredictor bimodal(bits);
    GsharePredictor gshare(bits);
    LocalPredictor local(bits > 12 ? 12 : bits, bits);
    CombiningPredictor combining(bits);
    BranchPredictor *preds[] = {&bimodal, &gshare, &local, &combining};

    for (BranchPredictor *pred : preds) {
        int hits = 0;
        for (int i = 0; i < 500; ++i)
            hits += pred->predictAndUpdate(0x10000, true) ? 1 : 0;
        // History-indexed designs pay ~2 mispredicts per distinct
        // history pattern during warm-up, so the floor is sized for
        // the longest history in the sweep.
        EXPECT_GT(hits, 460) << pred->name();
    }
}

TEST_P(BpredGeometry, ResetIsIdempotentAndComplete)
{
    const unsigned bits = GetParam();
    CombiningPredictor pred(bits);
    // Train on a mixed stream across many pcs.
    for (int i = 0; i < 400; ++i)
        pred.update(0x10000 + 4 * (i % 64), i % 3 != 0);
    pred.reset();
    // Post-reset behaviour must match a freshly built predictor.
    CombiningPredictor fresh(bits);
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t pc = 0x20000 + 4 * (i % 16);
        const bool taken = i % 2 == 0;
        EXPECT_EQ(pred.predictAndUpdate(pc, taken),
                  fresh.predictAndUpdate(pc, taken)) << bits;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BpredGeometry,
                         testing::Values(4u, 8u, 10u, 13u, 15u));

// --- address predictors across strides ---------------------------------

// gtest names each instance after the raw bytes of its parameter, so
// the struct has no implicit padding: padding would carry stack bytes
// into the test names and make them differ from run to run.
struct StrideCase
{
    StrideCase(AddrPredKind k, std::int64_t s) : kind(k), stride(s) {}

    AddrPredKind kind;
    std::uint32_t unused = 0;
    std::int64_t stride;
};
static_assert(std::has_unique_object_representations_v<StrideCase>);

class StrideLearning : public testing::TestWithParam<StrideCase>
{
};

TEST_P(StrideLearning, ConstantStridesAreLearned)
{
    const StrideCase param = GetParam();
    auto pred = makeAddressPredictor(param.kind);
    std::uint64_t addr = 0x40000000;
    // Train well past any warm-up.
    for (int i = 0; i < 30; ++i) {
        pred->update(0x10040, addr);
        addr = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(addr) + param.stride);
    }
    const AddrPrediction p = pred->predict(0x10040);
    ASSERT_TRUE(p.usable);
    EXPECT_EQ(p.addr, addr);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, StrideLearning,
    testing::Values(
        StrideCase{AddrPredKind::TwoDelta, 4},
        StrideCase{AddrPredKind::TwoDelta, -8},
        StrideCase{AddrPredKind::TwoDelta, 64},
        StrideCase{AddrPredKind::TwoDelta, 0},
        StrideCase{AddrPredKind::Context, 4},
        StrideCase{AddrPredKind::Context, -8},
        StrideCase{AddrPredKind::Context, 0},
        StrideCase{AddrPredKind::LastValue, 0}));

// --- collapse-rule properties over expression shapes --------------------

struct ExprCase
{
    unsigned raw;
    unsigned nonZero;
    unsigned instrs;
};

class CollapseShapes : public testing::TestWithParam<ExprCase>
{
};

TEST_P(CollapseShapes, JudgementIsMonotoneInOperands)
{
    // If a shape is illegal, any shape with more non-zero operands
    // (same instruction count) is illegal too.
    const ExprCase param = GetParam();
    CollapseRules rules;
    ExprSize expr;
    expr.rawOperands = param.raw;
    expr.nonZeroOperands = param.nonZero;
    expr.instructions = param.instrs;
    CollapseCategory category;
    const bool legal = rules.judge(expr, category);
    if (!legal) {
        ExprSize wider = expr;
        wider.rawOperands += 1;
        wider.nonZeroOperands += 1;
        CollapseCategory c2;
        EXPECT_FALSE(rules.judge(wider, c2));
    } else {
        // Legal shapes have at most 4 effective operands and at most
        // 3 instructions, and the category is consistent.
        EXPECT_LE(expr.nonZeroOperands, 4u);
        EXPECT_LE(expr.instructions, 3u);
        if (category == CollapseCategory::ZeroOp) {
            EXPECT_GT(expr.rawOperands, 4u);
        }
        if (category == CollapseCategory::ThreeOne) {
            EXPECT_EQ(expr.instructions, 2u);
            EXPECT_LE(expr.rawOperands, 3u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CollapseShapes,
    testing::ValuesIn([] {
        std::vector<ExprCase> cases;
        for (unsigned instrs = 2; instrs <= 4; ++instrs) {
            for (unsigned raw = 1; raw <= 7; ++raw) {
                for (unsigned zero = 0; zero <= raw && zero <= 3;
                     ++zero) {
                    cases.push_back({raw, raw - zero, instrs});
                }
            }
        }
        return cases;
    }()));

// --- scheduler across widths --------------------------------------------

class WidthSweep : public testing::TestWithParam<unsigned>
{
};

TEST_P(WidthSweep, StructuralInvariantsOnASyntheticTrace)
{
    const unsigned width = GetParam();
    SyntheticTraceConfig config;
    config.instructions = 8000;
    config.seed = 1234;
    VectorTraceSource trace = generateSynthetic(config);

    LimitScheduler scheduler(MachineConfig::paper('D', width));
    const SchedStats stats = scheduler.run(trace);

    // Width bounds IPC; total work bounds cycles from below.
    EXPECT_LE(stats.ipc(), static_cast<double>(width) + 1e-9);
    EXPECT_GE(stats.cycles,
              (stats.instructions + width - 1) / width);
    // Everything got simulated exactly once.
    EXPECT_EQ(stats.instructions, 8000u);
    // Load classes partition loads.
    std::uint64_t sum = 0;
    for (const auto n : stats.loadClasses)
        sum += n;
    EXPECT_EQ(sum, stats.loads);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         testing::Values(1u, 2u, 3u, 4u, 8u, 16u, 32u,
                                         64u, 128u, 2048u));

} // anonymous namespace
} // namespace ddsc
