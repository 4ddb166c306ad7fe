/**
 * @file
 * Differential validation of the production placement engine (what
 * LimitScheduler::run() drives through a one-cell batched pass)
 * against the naive O(window)-per-cycle scan engine.  The two share
 * only the front-end annotations and the collapse step: placement
 * fixes each record's issue cycle once, in program order, from times
 * older records already fixed, while the scan engine steps cycle by
 * cycle and rescans the window with exact predicates.  Agreement on
 * every statistic across random and workload traces, configurations,
 * widths and window sizes is therefore evidence about two separate
 * implementations of the model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/scheduler.hh"
#include "test_helpers.hh"
#include "trace/synthetic.hh"
#include "workloads/workloads.hh"

namespace ddsc
{
namespace
{

void
expectSameStats(const SchedStats &fast, const SchedStats &naive,
                const std::string &what)
{
    // The digest folds every deterministic field, both histograms
    // included; cycles first gives a readable diff when it fails.
    EXPECT_EQ(fast.cycles, naive.cycles) << what;
    EXPECT_EQ(digestSchedStats(fast), digestSchedStats(naive)) << what;
    // The digest skips the signature maps, and folds the mem-dep
    // counters only when one is nonzero.
    EXPECT_EQ(fast.collapse.pairSignatures(),
              naive.collapse.pairSignatures()) << what;
    EXPECT_EQ(fast.collapse.tripleSignatures(),
              naive.collapse.tripleSignatures()) << what;
    EXPECT_EQ(fast.memDepPredictedDeps, naive.memDepPredictedDeps) << what;
    EXPECT_EQ(fast.memDepFalseDeps, naive.memDepFalseDeps) << what;
    EXPECT_EQ(fast.memDepSquashes, naive.memDepSquashes) << what;
}

void
diffOnConfig(TraceSource &trace, const MachineConfig &fast_config,
             const std::string &what)
{
    MachineConfig naive_config = fast_config;
    naive_config.naiveEngine = true;

    trace.reset();
    LimitScheduler fast(fast_config);
    const SchedStats fast_stats = fast.run(trace);

    trace.reset();
    LimitScheduler naive(naive_config);
    const SchedStats naive_stats = naive.run(trace);

    expectSameStats(fast_stats, naive_stats, what);
}

void
diffOn(TraceSource &trace, char config, unsigned width,
       const std::string &what)
{
    diffOnConfig(trace, MachineConfig::paper(config, width), what);
}

// gtest names each instance after the raw bytes of its parameter, so
// the struct has no implicit padding: padding would carry stack bytes
// into the test names and make them differ from run to run.
struct DiffParam
{
    DiffParam(std::uint64_t s, char c, unsigned w)
        : seed(s), config(c), width(w)
    {
    }

    std::uint64_t seed;
    char config;
    char unused[3] = {};
    unsigned width;
};
static_assert(std::has_unique_object_representations_v<DiffParam>);

class EngineDiff : public testing::TestWithParam<DiffParam>
{
};

TEST_P(EngineDiff, RandomTracesAgree)
{
    const DiffParam param = GetParam();
    SyntheticTraceConfig config;
    config.instructions = 20000;
    config.seed = param.seed;
    VectorTraceSource trace = generateSynthetic(config);
    diffOn(trace, param.config, param.width,
           std::string("seed ") + std::to_string(param.seed) +
           " config " + param.config + " width " +
           std::to_string(param.width));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineDiff,
    testing::Values(
        DiffParam{1, 'A', 4}, DiffParam{1, 'B', 4},
        DiffParam{1, 'C', 4}, DiffParam{1, 'D', 4},
        DiffParam{1, 'E', 4},
        DiffParam{2, 'A', 16}, DiffParam{2, 'B', 16},
        DiffParam{2, 'C', 16}, DiffParam{2, 'D', 16},
        DiffParam{2, 'E', 16},
        DiffParam{3, 'D', 1}, DiffParam{3, 'D', 2},
        DiffParam{3, 'D', 64}, DiffParam{3, 'E', 128},
        DiffParam{4, 'D', 8}, DiffParam{5, 'D', 8},
        DiffParam{6, 'B', 32}, DiffParam{7, 'C', 32}));

// The fixed cases above keep the paper's 2 x width window.  These add
// the module configs, odd widths, and the 1x and 4x windows
// bench_ablation sweeps.
struct ShapeParam
{
    ShapeParam(std::uint64_t s, char c, unsigned w, std::uint64_t win)
        : seed(s), config(c), width(w), window(win)
    {
    }

    std::uint64_t seed;
    char config;
    char unused[3] = {};
    unsigned width;
    std::uint64_t window;
};
static_assert(std::has_unique_object_representations_v<ShapeParam>);

class EngineDiffShapes : public testing::TestWithParam<ShapeParam>
{
};

TEST_P(EngineDiffShapes, RandomTracesAgree)
{
    const ShapeParam param = GetParam();
    SyntheticTraceConfig trace_config;
    trace_config.instructions = 10000;
    trace_config.seed = param.seed;
    VectorTraceSource trace = generateSynthetic(trace_config);
    MachineConfig config = MachineConfig::paper(param.config, param.width);
    config.windowSize = static_cast<unsigned>(param.window);
    diffOnConfig(trace, config,
                 std::string("seed ") + std::to_string(param.seed) +
                 " config " + param.config + " width " +
                 std::to_string(param.width) + " window " +
                 std::to_string(param.window));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineDiffShapes, testing::ValuesIn([] {
        std::vector<ShapeParam> shapes;
        std::uint64_t seed = 20;
        for (const char config : {'A', 'B', 'C', 'D', 'E', 'F', 'G'}) {
            for (const unsigned width : {1u, 3u, 5u, 7u, 13u}) {
                for (const unsigned factor : {1u, 4u})
                    shapes.emplace_back(seed++, config, width,
                                        factor * width);
            }
        }
        for (const char config : {'F', 'G'}) {
            for (const unsigned width : {4u, 16u})
                shapes.emplace_back(seed++, config, width, 2 * width);
        }
        return shapes;
    }()));

/** @p chain chained divides, one consumer of the last, @p adds
 *  independent adds, and a second consumer of the last divide. */
VectorTraceSource
divideChain(int chain, int adds)
{
    std::vector<TraceRecord> recs;
    std::uint64_t pc = 0x10000;
    for (int i = 0; i < chain; ++i, pc += 4)
        recs.push_back(test::alu(Opcode::DIV, 1, 1, 2, pc));
    recs.push_back(test::alu(Opcode::ADD, 3, 1, 2, pc));
    for (int i = 0; i < adds; ++i, pc += 4)
        recs.push_back(test::aluImm(Opcode::ADD, 4 + i % 8, 0, i, pc));
    recs.push_back(test::alu(Opcode::ADD, 3, 1, 2, pc));
    return test::traceOf(std::move(recs));
}

TEST(EngineDiff, PlacementRingsGrow)
{
    // Placement starts both of its rings at 4 x window slots.  A
    // divide chain longer than 4 x window cycles outgrows the
    // per-cycle count ring, and independent adds streaming past the
    // unissued chain wrap the record ring onto slots the final
    // consumer still reads.  Both must grow without changing a
    // statistic.
    struct Case
    {
        unsigned width;
        int chain;
        int adds;
    };
    for (const Case c : {Case{2048, 1400, 100}, Case{64, 50, 2000}}) {
        VectorTraceSource trace = divideChain(c.chain, c.adds);
        const std::string what = "width " + std::to_string(c.width);
        diffOn(trace, 'D', c.width, what);
        trace.reset();
        LimitScheduler sched(MachineConfig::paper('D', c.width));
        EXPECT_GT(sched.run(trace).cycles, 8u * c.width) << what;
    }
}

TEST(EngineDiff, PointerHeavySynthetic)
{
    SyntheticTraceConfig config;
    config.instructions = 15000;
    config.seed = 99;
    config.strideFraction = 0.0;    // all loads pointer-like
    config.loadFraction = 0.4;
    VectorTraceSource trace = generateSynthetic(config);
    for (const char c : {'B', 'D'})
        diffOn(trace, c, 8, std::string("pointer-heavy ") + c);
}

TEST(EngineDiff, MispredictHeavySynthetic)
{
    SyntheticTraceConfig config;
    config.instructions = 15000;
    config.seed = 100;
    config.takenBias = 0.5;         // coin-flip branches
    config.branchFraction = 0.3;
    VectorTraceSource trace = generateSynthetic(config);
    for (const char c : {'A', 'D'})
        diffOn(trace, c, 16, std::string("mispredict-heavy ") + c);
}

TEST(EngineDiff, WorkloadTracesAgree)
{
    for (const char *name : {"li", "espresso", "go"}) {
        const WorkloadSpec &spec = findWorkload(name);
        VectorTraceSource trace = traceWorkload(spec, spec.testScale);
        for (const char c : {'A', 'D', 'E'})
            diffOn(trace, c, 8, std::string(name) + " " + c);
    }
}

TEST(EngineDiff, ValuePredictionOnlyConfig)
{
    // Value prediction without address-based load speculation: loads
    // are classified whenever either is on, but the naive engine used
    // to gate its classification scan on
    // loadSpec alone, silently skipping classification (loads and
    // valuePredHits/Wrong stayed 0 and the timing diverged).  Both
    // engines must classify, count, and speculate identically.
    SyntheticTraceConfig trace_config;
    trace_config.instructions = 15000;
    trace_config.seed = 102;
    trace_config.loadFraction = 0.35;
    VectorTraceSource trace = generateSynthetic(trace_config);

    for (const unsigned width : {4u, 16u}) {
        MachineConfig config = MachineConfig::paper('A', width);
        config.loadValuePrediction = true;
        ASSERT_EQ(config.loadSpec, LoadSpecMode::None);
        diffOnConfig(trace, config,
                     "value-prediction-only width " +
                     std::to_string(width));

        // The classification path must actually fire: a run with
        // loads cannot report zero classified loads.
        trace.reset();
        LimitScheduler sched(config);
        const SchedStats stats = sched.run(trace);
        EXPECT_GT(stats.loads, 0u) << "width " << width;
        EXPECT_GT(stats.valuePredHits + stats.valuePredWrong, 0u)
            << "width " << width;
    }
}

TEST(EngineDiff, DivideChains)
{
    // Long-latency chains exercise the bound propagation hardest.
    SyntheticTraceConfig config;
    config.instructions = 5000;
    config.seed = 101;
    config.divFraction = 0.2;
    config.mulFraction = 0.2;
    VectorTraceSource trace = generateSynthetic(config);
    diffOn(trace, 'D', 4, "divide chains");
}

} // anonymous namespace
} // namespace ddsc
