/**
 * @file
 * Differential equivalence of grouped batched simulation against an
 * oracle outside the batched engine.
 *
 * Every cell runs on the placement engine, one front-end pass per
 * (workload, front-end fingerprint) group.  The oracle here is
 * deliberately blunt: for every workload x configuration x width
 * cell, the full SchedStats digest (digestSchedStats, every
 * deterministic field including both histograms) of the grouped run
 * must be bit-identical to the naive scan engine's, which shares only
 * the annotations and the collapse step with placement.  Above
 * width 64, where the naive engine is too slow, the reference is the
 * cell run alone (LimitScheduler::run, a one-cell pass), which pins
 * the grouping; engine identity at width 2048 rests on bench_sched's
 * pinned per-cell digests.  VP-only and collapse-only configurations,
 * chunk-size invariance, the predictor-train-once property, and the
 * driver-level grouped prefetch are pinned alongside.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/scheduler.hh"
#include "core/sched_stats.hh"
#include "sim/batched.hh"
#include "sim/experiment.hh"
#include "naive_oracle.hh"
#include "trace/mapped.hh"
#include "support/fault.hh"
#include "trace/synthetic.hh"
#include "workloads/workloads.hh"

namespace ddsc
{
namespace
{

using test::naiveCell;

/** The reference a grouped cell must match: the naive engine up to
 *  width 64, the cell run alone above it. */
SchedStats
referenceCell(const VectorTraceSource &trace, const MachineConfig &config)
{
    if (config.issueWidth <= 64)
        return naiveCell(trace, config);
    VectorTraceView view(trace);
    LimitScheduler sched(config);
    return sched.run(view);
}

/**
 * Run every (config, label) cell batched, grouped by front-end
 * fingerprint exactly as the driver groups them, and require digests
 * bit-identical to referenceCell().
 */
void
expectGroupedMatchesReference(const VectorTraceSource &trace,
                              const std::vector<MachineConfig> &configs,
                              const std::vector<std::string> &labels,
                              const std::string &what,
                              std::size_t chunk = kBatchedChunk)
{
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < configs.size(); ++i)
        groups[configs[i].frontEndFingerprint()].push_back(i);

    for (const auto &[fp, members] : groups) {
        std::vector<MachineConfig> group_configs;
        std::vector<std::string> group_keys;
        for (const std::size_t i : members) {
            group_configs.push_back(configs[i]);
            group_keys.push_back(labels[i]);
        }
        const BatchedGroupResult out =
            runBatchedGroup(trace, group_configs, group_keys, chunk);
        ASSERT_EQ(out.cells.size(), members.size()) << what;
        for (std::size_t k = 0; k < members.size(); ++k) {
            ASSERT_TRUE(out.cells[k].ok)
                << what << " " << group_keys[k] << ": "
                << out.cells[k].error;
            EXPECT_EQ(digestSchedStats(out.cells[k].stats),
                      digestSchedStats(
                          referenceCell(trace, group_configs[k])))
                << what << " " << group_keys[k];
        }
    }
}

std::vector<MachineConfig>
paperConfigs(const std::vector<unsigned> &widths,
             std::vector<std::string> &labels)
{
    std::vector<MachineConfig> configs;
    for (const char c : std::string("ABCDE"))
        for (const unsigned w : widths) {
            configs.push_back(MachineConfig::paper(c, w));
            labels.push_back(std::string(1, c) + "/" +
                             std::to_string(w));
        }
    return configs;
}

TEST(BatchedEquiv, AllWorkloadsFullMatrix)
{
    // The central oracle: every workload, every paper configuration
    // A-E, the verification widths — grouped digests must equal the
    // naive engine's exactly.
    for (const WorkloadSpec &spec : allWorkloads()) {
        const VectorTraceSource trace =
            traceWorkload(spec, spec.testScale);
        std::vector<std::string> labels;
        const std::vector<MachineConfig> configs =
            paperConfigs({4, 16}, labels);
        expectGroupedMatchesReference(trace, configs, labels, spec.name);
    }
}

TEST(BatchedEquiv, MappedSourceMatchesVectorSource)
{
    // Feeding the batched front-end from an mmap'd v4 file instead of
    // the in-memory vector must not change a single stats bit, for
    // every paper configuration.  (This is the equivalence --trace-dir
    // and the bounded-RSS corpus sweep stand on.)
    const WorkloadSpec &spec = findWorkload("espresso");
    const VectorTraceSource trace = traceWorkload(spec, spec.testScale);

    const std::string path =
        testing::TempDir() + "/batched_equiv_mapped.trc";
    {
        TraceFileWriter writer(path, 4, 4096);  // many small blocks
        const std::unique_ptr<TraceSource> cursor = trace.cursor();
        TraceRecord rec;
        while (cursor->next(rec))
            writer.emit(rec);
    }
    MappedTraceSource mapped(path);
    ASSERT_EQ(mapped.digest(), trace.digest());

    std::vector<std::string> labels;
    const std::vector<MachineConfig> configs =
        paperConfigs({4, 16}, labels);
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < configs.size(); ++i)
        groups[configs[i].frontEndFingerprint()].push_back(i);

    for (const auto &[fp, members] : groups) {
        std::vector<MachineConfig> group_configs;
        std::vector<std::string> group_keys;
        for (const std::size_t i : members) {
            group_configs.push_back(configs[i]);
            group_keys.push_back(labels[i]);
        }
        const BatchedGroupResult from_vector =
            runBatchedGroup(trace, group_configs, group_keys);
        const BatchedGroupResult from_mapped =
            runBatchedGroup(mapped, group_configs, group_keys);
        for (std::size_t k = 0; k < members.size(); ++k) {
            ASSERT_TRUE(from_vector.cells[k].ok);
            ASSERT_TRUE(from_mapped.cells[k].ok);
            EXPECT_EQ(digestSchedStats(from_mapped.cells[k].stats),
                      digestSchedStats(from_vector.cells[k].stats))
                << group_keys[k];
        }
    }
    std::remove(path.c_str());
}

TEST(BatchedEquiv, WideWindow)
{
    // The 2048-wide cells (deep chains, giant windows) are too slow
    // for the naive engine; one workload at full matrix width pins
    // that sharing a front-end pass leaves each cell exactly as it
    // runs alone.
    const WorkloadSpec &spec = findWorkload("li");
    const VectorTraceSource trace = traceWorkload(spec, spec.testScale);
    std::vector<std::string> labels;
    const std::vector<MachineConfig> configs =
        paperConfigs({2048}, labels);
    expectGroupedMatchesReference(trace, configs, labels, "li wide");
}

TEST(BatchedEquiv, SyntheticStressShapes)
{
    // Pointer-heavy, mispredict-heavy, and long-latency-chain traces
    // (the shapes engine_diff_test uses against the naive engine).
    struct Shape
    {
        const char *name;
        SyntheticTraceConfig config;
    };
    std::vector<Shape> shapes(3);
    shapes[0].name = "pointer-heavy";
    shapes[0].config.instructions = 15000;
    shapes[0].config.seed = 99;
    shapes[0].config.strideFraction = 0.0;
    shapes[0].config.loadFraction = 0.4;
    shapes[1].name = "mispredict-heavy";
    shapes[1].config.instructions = 15000;
    shapes[1].config.seed = 100;
    shapes[1].config.takenBias = 0.5;
    shapes[1].config.branchFraction = 0.3;
    shapes[2].name = "divide-chains";
    shapes[2].config.instructions = 5000;
    shapes[2].config.seed = 101;
    shapes[2].config.divFraction = 0.2;
    shapes[2].config.mulFraction = 0.2;

    for (const Shape &shape : shapes) {
        const VectorTraceSource trace =
            generateSynthetic(shape.config);
        std::vector<std::string> labels;
        const std::vector<MachineConfig> configs =
            paperConfigs({4, 16, 64}, labels);
        expectGroupedMatchesReference(trace, configs, labels, shape.name);
    }
}

TEST(BatchedEquiv, ValuePredictionOnlyConfig)
{
    // Value prediction without address-based load speculation: the
    // front-end must train the value predictor (and only it) and
    // placement must classify loads at the cycles the scan finds.
    SyntheticTraceConfig trace_config;
    trace_config.instructions = 15000;
    trace_config.seed = 102;
    trace_config.loadFraction = 0.35;
    const VectorTraceSource trace = generateSynthetic(trace_config);

    std::vector<MachineConfig> configs;
    std::vector<std::string> labels;
    for (const unsigned w : {4u, 16u}) {
        MachineConfig config = MachineConfig::paper('A', w);
        config.loadValuePrediction = true;
        ASSERT_EQ(config.loadSpec, LoadSpecMode::None);
        configs.push_back(config);
        labels.push_back("vp-only/" + std::to_string(w));
    }
    expectGroupedMatchesReference(trace, configs, labels, "vp-only");

    // ...and the speculation must actually have fired.
    const SchedStats probe = naiveCell(trace, configs[0]);
    EXPECT_GT(probe.valuePredHits + probe.valuePredWrong, 0u);
}

TEST(BatchedEquiv, CollapseOnlyAndElimination)
{
    // Collapse-only (no load speculation) plus the node-elimination
    // extension: collapsed arcs wait on the producer's ready cycle,
    // and elimination cells run on the scan engine through the same
    // batched protocol.
    SyntheticTraceConfig trace_config;
    trace_config.instructions = 15000;
    trace_config.seed = 103;
    const VectorTraceSource trace = generateSynthetic(trace_config);

    std::vector<MachineConfig> configs;
    std::vector<std::string> labels;
    for (const unsigned w : {4u, 16u}) {
        configs.push_back(MachineConfig::paper('C', w));
        labels.push_back("C/" + std::to_string(w));
        MachineConfig elim = MachineConfig::paper('C', w);
        elim.nodeElimination = true;
        configs.push_back(elim);
        labels.push_back("C+elim/" + std::to_string(w));
    }
    expectGroupedMatchesReference(trace, configs, labels, "collapse-only");
}

TEST(BatchedEquiv, ChunkSizeInvariance)
{
    // The feed protocol ("kept full" across chunk boundaries) must
    // make the chunk size unobservable, including a degenerate chunk
    // smaller than the window.
    const WorkloadSpec &spec = findWorkload("espresso");
    const VectorTraceSource trace = traceWorkload(spec, spec.testScale);
    std::vector<std::string> labels;
    const std::vector<MachineConfig> configs =
        paperConfigs({4, 16}, labels);
    for (const std::size_t chunk : {std::size_t{7}, std::size_t{1000},
                                    kBatchedChunk})
        expectGroupedMatchesReference(trace, configs, labels,
                                   "chunk=" + std::to_string(chunk),
                                   chunk);
}

TEST(BatchedEquiv, PredictorsTrainOncePerRecord)
{
    // The point of sharing the front-end: predictor training activity
    // depends only on the trace, never on how many back-ends consume
    // the pass.  N = 1, 2, 5 back-ends must leave identical train
    // counters, equal to a bare front-end pass over the same trace.
    const WorkloadSpec &spec = findWorkload("li");
    const VectorTraceSource trace = traceWorkload(spec, spec.testScale);
    const MachineConfig base = MachineConfig::paper('D', 8);

    SpecFrontEnd bare(base);
    FrontEndBatch batch;
    VectorTraceView view(trace);
    while (bare.fill(view, batch, kBatchedChunk) != 0) {
    }
    const FrontEndTrainCounts expected = bare.trainCounts();
    EXPECT_EQ(bare.recordsAnnotated(), trace.size());
    EXPECT_GT(expected.branch, 0u);
    EXPECT_GT(expected.address, 0u);    // D trains the address tables

    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{5}}) {
        std::vector<MachineConfig> configs;
        std::vector<std::string> keys;
        for (std::size_t i = 0; i < n; ++i) {
            configs.push_back(
                MachineConfig::paper('D', 4u << (i % 3)));
            keys.push_back("train/" + std::to_string(i));
        }
        const BatchedGroupResult out =
            runBatchedGroup(trace, configs, keys);
        EXPECT_EQ(out.trainCounts.branch, expected.branch) << n;
        EXPECT_EQ(out.trainCounts.address, expected.address) << n;
        EXPECT_EQ(out.trainCounts.value, expected.value) << n;
        EXPECT_EQ(out.trainCounts.cti, expected.cti) << n;
    }
}

// "Legacy driver" is the naive reference engine; the name is kept so
// the test's ID stays stable.
TEST(BatchedEquiv, DriverBatchedMatchesLegacyDriver)
{
    // The driver-level oracle: a grouped prefetch of the full paper
    // matrix and a setBatched(false) prefetch (every cell its own
    // group) both publish cell-for-cell the naive engine's results.
    ExperimentDriver grouped(0, /*test_scale=*/true, /*jobs=*/2);
    ExperimentDriver single(0, /*test_scale=*/true, /*jobs=*/2);
    ASSERT_TRUE(grouped.batched());
    single.setBatched(false);

    const WorkloadSpec &li = findWorkload("li");
    const WorkloadSpec &go = findWorkload("go");
    const std::vector<const WorkloadSpec *> set = {&li, &go};
    const std::vector<unsigned> widths = {4, 16};
    grouped.prefetch(ExperimentDriver::cellsFor(set, "ABCDE", widths));
    single.prefetch(ExperimentDriver::cellsFor(set, "ABCDE", widths));

    for (const WorkloadSpec *spec : set)
        for (const char c : std::string("ABCDE"))
            for (const unsigned w : widths) {
                const std::uint64_t want = digestSchedStats(naiveCell(
                    grouped.trace(*spec), MachineConfig::paper(c, w)));
                EXPECT_EQ(digestSchedStats(grouped.stats(*spec, c, w)),
                          want)
                    << spec->name << "/" << c << "/" << w;
                EXPECT_EQ(digestSchedStats(single.stats(*spec, c, w)),
                          want)
                    << spec->name << "/" << c << "/" << w;
            }
    // Grouping must not inflate the simulated-cell accounting.
    EXPECT_EQ(grouped.simulatedCells(), single.simulatedCells());
}

#ifndef DDSC_NO_FAULT_INJECTION

TEST(BatchedEquiv, MidBatchThrowDoesNotPoisonSiblings)
{
    // Three widths of config A share one front-end pass.  An injected
    // cell-throw lands on one cell's feed part-way through the stream
    // (nth-hit spec: hits rotate cell 4, 8, 16, so the 7th lands on
    // the 4-wide cell's third chunk).  The failed cell must report
    // its error; its siblings must keep consuming the very same
    // batches and finish bit-identical to the naive engine.
    const WorkloadSpec &spec = findWorkload("espresso");
    const VectorTraceSource trace = traceWorkload(spec, spec.testScale);
    const std::vector<MachineConfig> configs = {
        MachineConfig::paper('A', 4), MachineConfig::paper('A', 8),
        MachineConfig::paper('A', 16)};
    const std::vector<std::string> keys = {"A/4", "A/8", "A/16"};

    support::faultArm("cell-throw:7");
    const BatchedGroupResult out =
        runBatchedGroup(trace, configs, keys, /*chunk=*/512);
    support::faultArm("");

    ASSERT_EQ(out.cells.size(), 3u);
    EXPECT_FALSE(out.cells[0].ok);
    EXPECT_NE(out.cells[0].error.find("injected fault"),
              std::string::npos);
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
        ASSERT_TRUE(out.cells[k].ok) << out.cells[k].error;
        EXPECT_EQ(digestSchedStats(out.cells[k].stats),
                  digestSchedStats(naiveCell(trace, configs[k])))
            << keys[k];
    }
}

#endif // DDSC_NO_FAULT_INJECTION

} // anonymous namespace
} // namespace ddsc
