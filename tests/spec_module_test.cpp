/**
 * @file
 * The speculation mechanisms of configs F and G: predictor unit
 * behaviour, the `--list-configs` summary of each letter's front-end
 * steps, engine-equivalence for F/G, the train-once property through
 * the batched pass, and the misspeculation accounting of predicted
 * memory disambiguation.
 *
 * The misspeculation tests are the subsystem's semantic anchor: a
 * crafted trace where the cold collision-history predictor *provably*
 * lets a dependent load issue early pins both the squash counters and
 * the direction of the cost (predicted disambiguation can never beat
 * the paper's perfect disambiguation on that trace).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/config.hh"
#include "core/frontend.hh"
#include "core/sched_stats.hh"
#include "core/scheduler.hh"
#include "sim/batched.hh"
#include "spec/fcm_stride_predictor.hh"
#include "spec/mem_dep_predictor.hh"
#include "test_helpers.hh"
#include "trace/synthetic.hh"
#include "workloads/workloads.hh"

namespace ddsc
{
namespace
{

using test::alu;
using test::load;
using test::store;
using test::traceOf;

// ---------------------------------------------------------------------
// MemDepPredictor unit behaviour.
// ---------------------------------------------------------------------

TEST(MemDepPredictor, ColdTablePredictsIndependent)
{
    spec::MemDepPredictor pred(8, 1);
    EXPECT_FALSE(pred.predictDependent(0x1000));
    EXPECT_EQ(pred.entries(), 256u);
}

TEST(MemDepPredictor, OneCollisionFlipsToDependent)
{
    // +2 on a collision: a single observed dependence crosses the
    // default threshold of 1 — squashes are dear, so the predictor
    // turns conservative immediately.
    spec::MemDepPredictor pred(8, 1);
    pred.update(0x1000, true);
    EXPECT_TRUE(pred.predictDependent(0x1000));
    // Unrelated pcs (different index) stay independent.
    EXPECT_FALSE(pred.predictDependent(0x1004));
}

TEST(MemDepPredictor, IndependenceDecaysSlowly)
{
    // +2 up, -1 down: a saturated (repeatedly colliding) entry
    // survives one clean run but not two (the store-set asymmetry).
    spec::MemDepPredictor pred(8, 1);
    pred.update(0x2000, true);
    pred.update(0x2000, true);      // saturated at 3
    pred.update(0x2000, false);     // 2: still above threshold
    EXPECT_TRUE(pred.predictDependent(0x2000));
    pred.update(0x2000, false);     // 1: gone
    EXPECT_FALSE(pred.predictDependent(0x2000));
}

TEST(MemDepPredictor, ResetForgets)
{
    spec::MemDepPredictor pred(8, 1);
    pred.update(0x3000, true);
    ASSERT_TRUE(pred.predictDependent(0x3000));
    pred.reset();
    EXPECT_FALSE(pred.predictDependent(0x3000));
}

// ---------------------------------------------------------------------
// FcmStrideValuePredictor unit behaviour.
// ---------------------------------------------------------------------

TEST(FcmStrideValuePredictor, ColdTableIsNotConfident)
{
    spec::FcmStrideValuePredictor pred(8, 1, 4);
    EXPECT_FALSE(pred.predict(0x1000).usable);
}

TEST(FcmStrideValuePredictor, LearnsStrideSequences)
{
    spec::FcmStrideValuePredictor pred(8, 1, 4);
    const std::uint64_t pc = 0x1000;
    std::uint32_t v = 100;
    for (int i = 0; i < 8; ++i, v += 12)
        pred.update(pc, v);
    const ValuePrediction p = pred.predict(pc);
    ASSERT_TRUE(p.usable);
    EXPECT_EQ(p.value, v) << "next element of the +12 stride";
}

TEST(FcmStrideValuePredictor, LearnsRepeatingNonStridePattern)
{
    // {7, 3, 9} repeating has no consistent stride; only the
    // context (FCM) side can predict it.  After a warm-up the hybrid
    // must track the pattern essentially perfectly.
    spec::FcmStrideValuePredictor pred(8, 1, 4);
    const std::uint64_t pc = 0x2000;
    const std::uint32_t pattern[3] = {7, 3, 9};
    for (int i = 0; i < 24; ++i)
        pred.update(pc, pattern[i % 3]);
    unsigned hits = 0;
    for (int i = 24; i < 48; ++i) {
        const ValuePrediction p = pred.predict(pc);
        if (p.usable && p.value == pattern[i % 3])
            ++hits;
        pred.update(pc, pattern[i % 3]);
    }
    EXPECT_GE(hits, 22u) << "FCM side should own a period-3 pattern";
}

TEST(FcmStrideValuePredictor, ConfidenceGatesAfterMisses)
{
    // A stream that keeps changing behaviour must not stay confident:
    // after a burst of unpredictable values the predictor should
    // withhold (usable == false) rather than guess.
    spec::FcmStrideValuePredictor pred(8, 1, 4);
    const std::uint64_t pc = 0x3000;
    for (int i = 0; i < 8; ++i)
        pred.update(pc, 50 + 4 * i);            // confident stride
    ASSERT_TRUE(pred.predict(pc).usable);
    const std::uint32_t noise[] = {911, 17, 60000, 5, 12345, 777,
                                   31, 9999};
    for (const std::uint32_t v : noise)
        pred.update(pc, v);
    EXPECT_FALSE(pred.predict(pc).usable);
}

// ---------------------------------------------------------------------
// The --list-configs summary of each letter's speculation steps (the
// suite keeps the name of the module stack those steps replaced).
// ---------------------------------------------------------------------

std::string
describeLetter(char id)
{
    return speculationSummary(MachineConfig::paper(id, 8));
}

TEST(SpeculationStack, ComposesPerConfigLetter)
{
    const std::string a = describeLetter('A');
    EXPECT_NE(a.find("mem-dep(perfect"), std::string::npos) << a;
    EXPECT_EQ(a.find("addr-spec"), std::string::npos) << a;
    EXPECT_EQ(a.find("collapse"), std::string::npos) << a;

    const std::string d = describeLetter('D');
    EXPECT_NE(d.find("collapse"), std::string::npos) << d;
    EXPECT_NE(d.find("mem-dep(perfect"), std::string::npos) << d;
    EXPECT_NE(d.find("addr-spec"), std::string::npos) << d;
    EXPECT_LT(d.find("collapse"), d.find("mem-dep")) << d;
    EXPECT_LT(d.find("mem-dep"), d.find("addr-spec")) << d;

    const std::string f = describeLetter('F');
    EXPECT_NE(f.find("mem-dep(predicted"), std::string::npos) << f;

    const std::string g = describeLetter('G');
    EXPECT_NE(g.find("value-pred(fcm/stride"), std::string::npos) << g;
}

TEST(SpeculationStack, SummaryNotesIdealOracle)
{
    // Config E's ideal address speculation lives in the back-end, not
    // in a front-end step; --list-configs must still say so.
    const std::string e = describeLetter('E');
    EXPECT_NE(e.find("ideal address oracle"), std::string::npos) << e;
    const std::string d = describeLetter('D');
    EXPECT_EQ(d.find("ideal"), std::string::npos) << d;
}

TEST(SpeculationStack, EveryKnownConfigBuildsAndDescribes)
{
    // The summary is built from the configuration alone, and the
    // front-end builds only the predictors the configuration trains:
    // a step is listed exactly when its predictor trains.
    SyntheticTraceConfig tconfig;
    tconfig.instructions = 2000;
    tconfig.seed = 5;
    const VectorTraceSource trace = generateSynthetic(tconfig);
    for (const char id : MachineConfig::knownConfigs()) {
        const MachineConfig cfg = MachineConfig::paper(id, 8);
        const std::string s = speculationSummary(cfg);
        EXPECT_FALSE(s.empty()) << id;

        SpecFrontEnd fe(cfg);
        FrontEndBatch batch;
        VectorTraceView view(trace);
        while (fe.fill(view, batch, 1024) != 0) {
        }
        const FrontEndTrainCounts &trains = fe.trainCounts();
        EXPECT_EQ(trains.address != 0,
                  s.find("addr-spec") != std::string::npos) << id;
        EXPECT_EQ(trains.memdep != 0,
                  s.find("mem-dep(predicted") != std::string::npos)
            << id;
        EXPECT_EQ(trains.value != 0,
                  s.find("value-pred") != std::string::npos) << id;
    }
}

// ---------------------------------------------------------------------
// Cache-identity of the extension configs.
// ---------------------------------------------------------------------

TEST(SpecModuleFingerprint, NewKnobsFeedTheFingerprint)
{
    const MachineConfig d = MachineConfig::paper('D', 8);
    const MachineConfig f = MachineConfig::paper('F', 8);
    const MachineConfig g = MachineConfig::paper('G', 8);
    EXPECT_NE(d.fingerprint(), f.fingerprint());
    EXPECT_NE(d.fingerprint(), g.fingerprint());
    EXPECT_NE(f.fingerprint(), g.fingerprint());

    // D shares front-end work with F or G only if the fingerprints say
    // so: F's dependence predictor and G's value predictor train
    // during the pass, so they must not.
    EXPECT_NE(d.frontEndFingerprint(), f.frontEndFingerprint());
    EXPECT_NE(d.frontEndFingerprint(), g.frontEndFingerprint());
}

// ---------------------------------------------------------------------
// Engine equivalence for the module-backed configs.
// ---------------------------------------------------------------------

void
expectEnginesAgree(const VectorTraceSource &trace,
                   const MachineConfig &config, const std::string &what)
{
    // Placement (production) vs naive reference engine.
    MachineConfig naive_config = config;
    naive_config.naiveEngine = true;

    VectorTraceView fast_view(trace);
    LimitScheduler fast(config);
    const SchedStats fast_stats = fast.run(fast_view);

    VectorTraceView naive_view(trace);
    LimitScheduler naive(naive_config);
    const SchedStats naive_stats = naive.run(naive_view);

    EXPECT_EQ(digestSchedStats(fast_stats),
              digestSchedStats(naive_stats))
        << what << " (run vs naive)";

    // The same engine fed by an external front-end pass, as the
    // driver's groups feed it.
    const BatchedGroupResult out = runBatchedGroup(
        trace, {config}, {what});
    ASSERT_TRUE(out.cells[0].ok) << what << ": " << out.cells[0].error;
    EXPECT_EQ(digestSchedStats(out.cells[0].stats),
              digestSchedStats(naive_stats))
        << what << " (group vs naive)";
}

TEST(SpecModuleEngines, RandomTracesAgreeOnFAndG)
{
    for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
        SyntheticTraceConfig config;
        config.instructions = 20000;
        config.seed = seed;
        const VectorTraceSource trace = generateSynthetic(config);
        for (const char id : {'F', 'G'}) {
            for (const unsigned width : {4u, 16u}) {
                expectEnginesAgree(
                    trace, MachineConfig::paper(id, width),
                    std::string("seed ") + std::to_string(seed) +
                        " config " + id + " width " +
                        std::to_string(width));
            }
        }
    }
}

TEST(SpecModuleEngines, WorkloadTracesAgreeOnFAndG)
{
    const WorkloadSpec &spec = findWorkload("li");
    const VectorTraceSource trace = traceWorkload(spec, spec.testScale);
    for (const char id : {'F', 'G'})
        expectEnginesAgree(trace, MachineConfig::paper(id, 8),
                           std::string("li ") + id);
}

// ---------------------------------------------------------------------
// Train-once through the batched pass.
// ---------------------------------------------------------------------

TEST(SpecModuleTraining, BatchedGroupTrainsOncePerRecord)
{
    SyntheticTraceConfig tconfig;
    tconfig.instructions = 8000;
    tconfig.seed = 21;
    const VectorTraceSource trace = generateSynthetic(tconfig);

    for (const char id : {'F', 'G'}) {
        // Reference: one solo front-end pass over the trace.
        const MachineConfig cfg = MachineConfig::paper(id, 4);
        SpecFrontEnd solo(cfg);
        FrontEndBatch batch;
        VectorTraceView view(trace);
        while (solo.fill(view, batch, 4096) != 0) {
        }
        const FrontEndTrainCounts &expect = solo.trainCounts();

        // Three widths share cfg's front-end fingerprint, so the
        // batched group must run (and train) the pass exactly once.
        std::vector<MachineConfig> configs;
        std::vector<std::string> keys;
        for (const unsigned w : {4u, 8u, 16u}) {
            configs.push_back(MachineConfig::paper(id, w));
            keys.push_back(std::string(1, id) + "/" +
                           std::to_string(w));
        }
        const BatchedGroupResult out =
            runBatchedGroup(trace, configs, keys);
        for (const BatchedCellResult &cell : out.cells)
            ASSERT_TRUE(cell.ok) << cell.error;

        EXPECT_EQ(out.trainCounts.memdep, expect.memdep) << id;
        EXPECT_EQ(out.trainCounts.value, expect.value) << id;
        EXPECT_EQ(out.trainCounts.address, expect.address) << id;
        if (id == 'F') {
            EXPECT_EQ(expect.memdep, out.cells[0].stats.loads)
                << "predicted mem-dep trains on every dynamic load";
        }
        if (id == 'G') {
            EXPECT_EQ(expect.value, out.cells[0].stats.loads)
                << "value predictor trains on every dynamic load";
        }
    }
}

// ---------------------------------------------------------------------
// Misspeculation accounting (the semantic anchor).
// ---------------------------------------------------------------------

/**
 * One iteration of the collision kernel at @p pc_base: a multiply
 * chain produces the store's data, and the very next instruction
 * loads the freshly stored address.  The load's own address operand
 * (r1) is never written, so the only thing keeping it honest is the
 * memory arc — exactly what the predicted mode speculates past.
 */
void
appendCollisionIteration(std::vector<TraceRecord> &recs,
                         std::uint64_t pc_base, std::uint64_t ea,
                         std::uint32_t stored)
{
    recs.push_back(alu(Opcode::MUL, 2, 2, 3, pc_base));
    recs.push_back(store(2, 1, 0, ea, pc_base + 4));
    TraceRecord ld = load(4, 1, 0, ea, pc_base + 8);
    ld.memValue = stored;
    recs.push_back(ld);
    recs.push_back(alu(Opcode::ADD, 5, 5, 4, pc_base + 12));
}

SchedStats
runRecords(const std::vector<TraceRecord> &recs,
           const MachineConfig &config)
{
    VectorTraceSource trace = traceOf(recs);
    LimitScheduler sched(config);
    return sched.run(trace);
}

TEST(MemDepMisspeculation, ColdPredictorSquashesEveryColdLoad)
{
    // Fresh pc per iteration: the collision-history table never warms
    // up, so every load is provably predicted independent, issues
    // before its store, and must be squashed.
    constexpr unsigned kIters = 64;
    std::vector<TraceRecord> recs;
    for (unsigned i = 0; i < kIters; ++i)
        appendCollisionIteration(recs, 0x10000 + 0x40ull * i,
                                 0x8000 + 8ull * i, 100 + i);

    MachineConfig predicted = MachineConfig::paper('A', 4);
    predicted.memDep = MemDepMode::Predicted;
    const MachineConfig perfect = MachineConfig::paper('A', 4);

    const SchedStats p = runRecords(recs, predicted);
    EXPECT_EQ(p.memDepSquashes, kIters)
        << "every cold dependent load must squash exactly once";
    EXPECT_EQ(p.memDepPredictedDeps, 0u)
        << "a cold table never predicts a dependence";

    const SchedStats ideal = runRecords(recs, perfect);
    EXPECT_EQ(ideal.memDepSquashes, 0u);
    EXPECT_EQ(ideal.instructions, p.instructions);
    EXPECT_LE(p.ipc(), ideal.ipc())
        << "predicted disambiguation can never beat perfect here";
    EXPECT_GT(p.cycles, ideal.cycles)
        << "the squash penalty must actually cost cycles";
}

TEST(MemDepMisspeculation, PredictorLearnsAfterFirstViolation)
{
    // Same kernel, same pc every iteration: the first collision
    // trains the predictor (+2 crosses the threshold), so iterations
    // after the first keep their arc and never squash again.
    constexpr unsigned kIters = 16;
    std::vector<TraceRecord> recs;
    for (unsigned i = 0; i < kIters; ++i)
        appendCollisionIteration(recs, 0x10000, 0x8000, 100 + i);

    MachineConfig predicted = MachineConfig::paper('A', 4);
    predicted.memDep = MemDepMode::Predicted;
    const SchedStats p = runRecords(recs, predicted);

    EXPECT_EQ(p.memDepSquashes, 1u)
        << "only the cold first iteration may squash";
    EXPECT_GE(p.memDepPredictedDeps, kIters - 1)
        << "warm iterations are predicted dependent";
    EXPECT_EQ(p.memDepFalseDeps, 0u)
        << "every predicted dependence here is real";
}

TEST(MemDepMisspeculation, FalseDependenceIsCountedNotSquashed)
{
    // Warm the predictor with real collisions at one pc, then reuse
    // that pc for loads with no producing store: while the counter
    // stays above threshold the loads pick up a conservative arc to
    // the youngest store (counted as false dependences), but nothing
    // squashes.  The -1 decay then self-limits the cost: a saturated
    // counter (3) survives exactly two clean runs, so exactly two of
    // the eight loads pay the false arc.
    std::vector<TraceRecord> recs;
    for (unsigned i = 0; i < 4; ++i)
        appendCollisionIteration(recs, 0x10000, 0x8000, 100 + i);
    for (unsigned i = 0; i < 8; ++i) {
        TraceRecord ld = load(6, 1, 0, 0x9000 + 8ull * i, 0x10008);
        ld.memValue = 7;
        recs.push_back(ld);
    }

    MachineConfig predicted = MachineConfig::paper('A', 4);
    predicted.memDep = MemDepMode::Predicted;
    const SchedStats p = runRecords(recs, predicted);

    EXPECT_EQ(p.memDepSquashes, 1u) << "only the first cold collision";
    EXPECT_EQ(p.memDepFalseDeps, 2u)
        << "the decay bounds the false-dependence cost";
}

TEST(MemDepMisspeculation, ConfigFNeverBeatsPerfectDisambiguation)
{
    // The whole-config version of the anchor, on a synthetic trace:
    // F is exactly D with predicted disambiguation, so D's IPC bounds
    // F's from above on any trace (speculating past a store can only
    // cost; it never reveals a value earlier than perfect knowledge).
    SyntheticTraceConfig tconfig;
    tconfig.instructions = 20000;
    tconfig.seed = 31;
    tconfig.storeFraction = 0.2;
    tconfig.loadFraction = 0.3;
    VectorTraceSource trace = generateSynthetic(tconfig);

    VectorTraceView f_view(trace);
    LimitScheduler f_sched(MachineConfig::paper('F', 8));
    const SchedStats f = f_sched.run(f_view);

    VectorTraceView d_view(trace);
    LimitScheduler d_sched(MachineConfig::paper('D', 8));
    const SchedStats d = d_sched.run(d_view);

    EXPECT_GT(f.memDepSquashes + f.memDepPredictedDeps, 0u)
        << "the predictor must actually be exercised";
    EXPECT_LE(f.ipc(), d.ipc());
}

} // anonymous namespace
} // namespace ddsc
