/**
 * @file
 * Differential validation of the production wake-list engine (what
 * LimitScheduler::run() drives through a one-cell batched pass)
 * against the naive O(window)-per-cycle reference engine.  Both share
 * the window-construction and constraint semantics but find ready
 * instructions through completely different machinery (exact wakeup
 * lists and timing wheels vs exhaustive scans), so agreement across
 * random traces, workload traces, configurations, and widths is
 * strong evidence that the wake bookkeeping never perturbs timing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/scheduler.hh"
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
    EXPECT_EQ(fast.cycles, naive.cycles) << what;
    EXPECT_EQ(fast.instructions, naive.instructions) << what;
    EXPECT_EQ(fast.mispredicts, naive.mispredicts) << what;
    EXPECT_EQ(fast.loads, naive.loads) << what;
    for (unsigned c = 0; c < kNumLoadClasses; ++c)
        EXPECT_EQ(fast.loadClasses[c], naive.loadClasses[c])
            << what << " class " << c;
    EXPECT_EQ(fast.valuePredHits, naive.valuePredHits) << what;
    EXPECT_EQ(fast.valuePredWrong, naive.valuePredWrong) << what;
    EXPECT_EQ(fast.collapse.events(), naive.collapse.events()) << what;
    EXPECT_EQ(fast.collapse.collapsedInstructions(),
              naive.collapse.collapsedInstructions()) << what;
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
    // Value prediction without address-based load speculation:
    // insert() queues loads for classification whenever either is on,
    // but the naive engine used to gate its classification scan on
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
