/**
 * @file
 * Tests for the experiment driver and, through it, the paper's
 * qualitative invariants on real (small-scale) workload traces:
 * configuration ordering, load-class partitioning, collapse-distance
 * bounds, and aggregation arithmetic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>

#include "naive_oracle.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"
#include "support/fault.hh"
#include "support/version.hh"

namespace ddsc
{
namespace
{

/** Shared driver over test-scale workload traces to keep tests quick.
 *  (Truncating the full-scale traces instead would capture only the
 *  loadless data-initialization phase of some workloads.) */
ExperimentDriver &
driver()
{
    static ExperimentDriver instance(0, /*test_scale=*/true);
    return instance;
}

TEST(Experiment, TraceLimitIsApplied)
{
    ExperimentDriver limited(1000);
    EXPECT_EQ(limited.trace(findWorkload("espresso")).recordCount(),
              1000u);
}

TEST(Experiment, StatsAreCached)
{
    ExperimentDriver d(5000);
    const SchedStats &first = d.stats(findWorkload("ijpeg"), 'A', 4);
    const SchedStats &second = d.stats(findWorkload("ijpeg"), 'A', 4);
    EXPECT_EQ(&first, &second);
}

TEST(Experiment, EverythingHasSixEntries)
{
    EXPECT_EQ(ExperimentDriver::everything().size(), 6u);
}

// --- statsFor cache-key semantics ------------------------------------

TEST(Experiment, FingerprintSeparatesMachinesNotNames)
{
    MachineConfig a4 = MachineConfig::paper('A', 4);
    MachineConfig b4 = MachineConfig::paper('B', 4);
    MachineConfig d16 = MachineConfig::paper('D', 16);
    EXPECT_NE(a4.fingerprint(), b4.fingerprint());
    EXPECT_NE(b4.fingerprint(), d16.fingerprint());

    // The display name is cosmetic: renaming must not change identity.
    MachineConfig renamed = a4;
    renamed.name = "base-machine";
    EXPECT_EQ(a4.fingerprint(), renamed.fingerprint());

    // Every behavioural knob must feed the fingerprint.
    MachineConfig tweaked = a4;
    tweaked.rules.zeroOpDetection = false;
    EXPECT_NE(a4.fingerprint(), tweaked.fingerprint());
    tweaked = a4;
    tweaked.addrConfidenceThreshold += 1;
    EXPECT_NE(a4.fingerprint(), tweaked.fingerprint());
}

TEST(Experiment, FingerprintFieldCountMatchesVersionedSchema)
{
    // --version and the wire handshake advertise kFingerprintSchema;
    // the store trusts it to mean "same layout".  Adding or removing a
    // MachineConfig knob without bumping the schema would let a new
    // binary silently accept a stale store, so the field count is
    // pinned here (every field appends exactly one '|').
    const std::string fp = MachineConfig::paper('A', 4).fingerprint();
    EXPECT_EQ(static_cast<unsigned>(std::count(fp.begin(), fp.end(),
                                               '|')),
              support::version::kFingerprintFields);
}

TEST(Experiment, StatsForSameKeySameConfigIsACacheHit)
{
    // The same machine names the same cell: the second call is a
    // cache hit, not a second simulation.
    ExperimentDriver d(4000, /*test_scale=*/true);
    const WorkloadSpec &spec = findWorkload("espresso");
    const MachineConfig config = MachineConfig::paper('C', 8);
    const SchedStats &first = d.statsFor(spec, config);
    const SchedStats &second = d.statsFor(spec, config);
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(d.cachedCells(), 1u);
}

TEST(Experiment, StatsForKeyCollisionIsDisambiguated)
{
    // Different machines give distinct cells, so each caller gets the
    // stats of the machine it actually passed.
    ExperimentDriver d(0, /*test_scale=*/true);
    const WorkloadSpec &spec = findWorkload("espresso");
    const SchedStats &as_a =
        d.statsFor(spec, MachineConfig::paper('A', 4));
    const SchedStats &as_d =
        d.statsFor(spec, MachineConfig::paper('D', 16));
    EXPECT_NE(&as_a, &as_d);
    EXPECT_EQ(as_a.cycles, d.stats(spec, 'A', 4).cycles);
    EXPECT_EQ(as_d.cycles, d.stats(spec, 'D', 16).cycles);
}

TEST(Experiment, PrefetchStoresUnderGuardedKey)
{
    // A statsFor() cell never shadows a paper cell: after statsFor()
    // caches one machine, prefetching the paper cell C/8 must still
    // simulate and cache C/8 itself, under its own name.
    ExperimentDriver d(4000, /*test_scale=*/true, 2);
    const WorkloadSpec &spec = findWorkload("espresso");
    d.statsFor(spec, MachineConfig::paper('D', 8));
    EXPECT_EQ(d.cachedCells(), 1u);

    d.prefetch({{&spec, 'C', 8}});
    EXPECT_EQ(d.cachedCells(), 2u);     // simulated, not skipped

    // And the cached cell is really config C: stats() is a cache hit
    // that matches an unpoisoned driver bit for bit.
    const SchedStats &cached = d.stats(spec, 'C', 8);
    EXPECT_EQ(d.cachedCells(), 2u);
    ExperimentDriver fresh(4000, /*test_scale=*/true);
    EXPECT_EQ(cached.cycles, fresh.stats(spec, 'C', 8).cycles);
    EXPECT_EQ(cached.instructions,
              fresh.stats(spec, 'C', 8).instructions);
}

// --- DDSC_TRACE_LIMIT parsing ----------------------------------------

namespace
{

/** Set DDSC_TRACE_LIMIT for one scope, restoring the old value. */
class ScopedTraceLimit
{
  public:
    explicit ScopedTraceLimit(const char *value)
    {
        const char *old = std::getenv("DDSC_TRACE_LIMIT");
        had_ = old != nullptr;
        if (had_)
            saved_ = old;
        if (value)
            ::setenv("DDSC_TRACE_LIMIT", value, 1);
        else
            ::unsetenv("DDSC_TRACE_LIMIT");
    }

    ~ScopedTraceLimit()
    {
        if (had_)
            ::setenv("DDSC_TRACE_LIMIT", saved_.c_str(), 1);
        else
            ::unsetenv("DDSC_TRACE_LIMIT");
    }

  private:
    std::string saved_;
    bool had_;
};

} // anonymous namespace

TEST(Experiment, EnvTraceLimitUnsetIsUnlimited)
{
    ScopedTraceLimit env(nullptr);
    EXPECT_EQ(envTraceLimit(), 0u);
}

TEST(Experiment, EnvTraceLimitParsesPlainNumbers)
{
    ScopedTraceLimit env("250000000");
    EXPECT_EQ(envTraceLimit(), 250000000u);
}

TEST(Experiment, EnvTraceLimitZeroMeansUnlimited)
{
    ScopedTraceLimit env("0");
    EXPECT_EQ(envTraceLimit(), 0u);
}

TEST(Experiment, EnvTraceLimitRejectsMalformedValues)
{
    for (const char *bad : {"", "abc", "12cats", "0x10", " 5", "-3"}) {
        ScopedTraceLimit env(bad);
        EXPECT_EQ(envTraceLimit(), 0u) << "'" << bad << "'";
    }
}

TEST(Experiment, EnvTraceLimitClampsHugeValues)
{
    // One digit beyond 2^64-1: out of range clamps to "unlimited in
    // practice" rather than silently wrapping.
    ScopedTraceLimit env("99999999999999999999");
    EXPECT_EQ(envTraceLimit(),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(Experiment, EnvTraceLimitMaxUint64IsAccepted)
{
    ScopedTraceLimit env("18446744073709551615");
    EXPECT_EQ(envTraceLimit(),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(Experiment, SpeedupOfBaseIsOne)
{
    EXPECT_NEAR(driver().hmeanSpeedup(ExperimentDriver::everything(),
                                      'A', 8), 1.0, 1e-12);
}

TEST(Experiment, HmeanIpcBetweenMinAndMax)
{
    const auto set = ExperimentDriver::everything();
    const double hm = driver().hmeanIpc(set, 'D', 8);
    double lo = 1e9, hi = 0.0;
    for (const WorkloadSpec *spec : set) {
        const double ipc = driver().stats(*spec, 'D', 8).ipc();
        lo = std::min(lo, ipc);
        hi = std::max(hi, ipc);
    }
    EXPECT_GE(hm, lo - 1e-12);
    EXPECT_LE(hm, hi + 1e-12);
}

TEST(Experiment, MappedTraceDirIsBitIdenticalToInMemory)
{
    // A driver spilling its traces to mmap'd v4 files must be
    // indistinguishable from the in-memory driver: same trace digests,
    // same per-cell stats digests.  This is the interchangeability
    // contract --trace-dir relies on.
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "ddsc_experiment_mapped_equiv").string();
    std::filesystem::remove_all(dir);

    ExperimentDriver mapped(4000, /*test_scale=*/true);
    mapped.setTraceDir(dir);
    mapped.setTraceBudgetMb(1);     // force evictions along the way
    ExperimentDriver vector(4000, /*test_scale=*/true);

    const WorkloadSpec &espresso = findWorkload("espresso");
    const WorkloadSpec &li = findWorkload("li");
    for (const WorkloadSpec *spec : {&espresso, &li}) {
        EXPECT_EQ(mapped.traceDigest(*spec), vector.traceDigest(*spec));
        EXPECT_EQ(mapped.trace(*spec).recordCount(),
                  vector.trace(*spec).recordCount());
        for (const char config : {'A', 'D'}) {
            EXPECT_EQ(digestSchedStats(mapped.stats(*spec, config, 4)),
                      digestSchedStats(vector.stats(*spec, config, 4)))
                << spec->name << "/" << config;
        }
    }

    // The spill really happened (counters are live) and the in-memory
    // driver charges nothing.
    const TraceResidencyManager::Counters residency =
        mapped.traceResidency();
    EXPECT_GT(residency.mappedBytes, 0u);
    EXPECT_EQ(residency.budgetBytes, 1u << 20);
    EXPECT_EQ(vector.traceResidency().mappedBytes, 0u);
    std::filesystem::remove_all(dir);
}

TEST(Experiment, MappedTraceDirReusesSpilledFiles)
{
    // A second driver pointed at the same directory must reuse the
    // spilled files (probe matches digest+count) rather than re-spill:
    // the file mtimes stay put and the digests still agree.
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "ddsc_experiment_mapped_reuse").string();
    std::filesystem::remove_all(dir);
    const WorkloadSpec &spec = findWorkload("compress");

    ExperimentDriver first(4000, /*test_scale=*/true);
    first.setTraceDir(dir);
    const std::uint64_t digest = first.traceDigest(spec);

    std::string spilled;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".trc")
            spilled = entry.path().string();
    }
    ASSERT_FALSE(spilled.empty());
    const auto mtime = std::filesystem::last_write_time(spilled);

    ExperimentDriver second(4000, /*test_scale=*/true);
    second.setTraceDir(dir);
    EXPECT_EQ(second.traceDigest(spec), digest);
    EXPECT_EQ(std::filesystem::last_write_time(spilled), mtime);
    std::filesystem::remove_all(dir);
}

TEST(Experiment, SchedulerBranchStatsMatchStandalonePredictor)
{
    // The scheduler trains the combining predictor at fetch (window
    // insertion) in program order, so its accuracy must equal running
    // the predictor standalone over the branch stream -- the
    // consistency between Table 2's bench and the simulator proper.
    const WorkloadSpec &spec = findWorkload("espresso");
    const SchedStats &sched = driver().stats(spec, 'A', 8);

    auto predictor = makePaperPredictor();
    const std::unique_ptr<TraceSource> trace =
        driver().trace(spec).cursor();
    TraceRecord rec;
    std::uint64_t branches = 0, correct = 0;
    while (trace->next(rec)) {
        if (rec.isCondBranch()) {
            ++branches;
            if (predictor->predictAndUpdate(rec.pc, rec.taken))
                ++correct;
        }
    }
    EXPECT_EQ(sched.condBranches, branches);
    EXPECT_EQ(sched.condBranches - sched.mispredicts, correct);
}

// --- the paper's qualitative invariants, per benchmark ---------------

class PaperInvariants : public testing::TestWithParam<const char *>
{
};

TEST_P(PaperInvariants, ConfigurationOrdering)
{
    const WorkloadSpec &spec = findWorkload(GetParam());
    for (const unsigned w : {4u, 16u}) {
        const double a = driver().stats(spec, 'A', w).ipc();
        const double b = driver().stats(spec, 'B', w).ipc();
        const double c = driver().stats(spec, 'C', w).ipc();
        const double d = driver().stats(spec, 'D', w).ipc();
        const double e = driver().stats(spec, 'E', w).ipc();
        // Each mechanism helps, up to greedy-scheduling effects: issue
        // is oldest-ready-first (not optimal), so accelerating
        // non-critical work can steal narrow-width slots from the
        // critical chain (li loses ~3% from collapsing at width 4 this
        // way), and collapse formation depends on window co-residency.
        // Allow 5% per benchmark; aggregate-level monotonicity is
        // asserted strictly below.
        EXPECT_GE(b, a * 0.95) << spec.name << " w" << w;
        EXPECT_GE(c, a * 0.95) << spec.name << " w" << w;
        EXPECT_GE(d, c * 0.95) << spec.name << " w" << w;
        EXPECT_GE(e, d * 0.95) << spec.name << " w" << w;
    }
}

TEST_P(PaperInvariants, IpcDoesNotExceedWidth)
{
    const WorkloadSpec &spec = findWorkload(GetParam());
    for (const char config : {'A', 'D', 'E'}) {
        for (const unsigned w : {4u, 8u}) {
            EXPECT_LE(driver().stats(spec, config, w).ipc(),
                      static_cast<double>(w) + 1e-12)
                << spec.name << config << w;
        }
    }
}

TEST_P(PaperInvariants, WiderMachinesAreNotSlower)
{
    const WorkloadSpec &spec = findWorkload(GetParam());
    for (const char config : {'A', 'D'}) {
        const double w4 = driver().stats(spec, config, 4).ipc();
        const double w16 = driver().stats(spec, config, 16).ipc();
        EXPECT_GE(w16, w4 * 0.99) << spec.name << config;
    }
}

TEST_P(PaperInvariants, LoadClassesPartitionLoads)
{
    const WorkloadSpec &spec = findWorkload(GetParam());
    const SchedStats &stats = driver().stats(spec, 'D', 8);
    std::uint64_t sum = 0;
    for (const std::uint64_t n : stats.loadClasses)
        sum += n;
    EXPECT_EQ(sum, stats.loads);
    EXPECT_GT(stats.loads, 0u);
}

TEST_P(PaperInvariants, CollapseDistancesAreMostlyShort)
{
    // Distances can exceed the window capacity (a stuck producer's
    // younger neighbours issue and are replaced), but the bulk must be
    // short -- the paper's Figure 10 finding.
    const WorkloadSpec &spec = findWorkload(GetParam());
    for (const unsigned w : {4u, 16u}) {
        const SchedStats &stats = driver().stats(spec, 'D', w);
        EXPECT_GT(stats.collapse.distances().cumulativeAt(2 * w), 0.85)
            << spec.name << " w" << w;
    }
}

TEST_P(PaperInvariants, SubstantialFractionCollapses)
{
    // The paper reports 29-47%; our denser integer analogues collapse
    // more, but every benchmark must show a substantial fraction at
    // every width.
    const WorkloadSpec &spec = findWorkload(GetParam());
    for (const unsigned w : {4u, 32u}) {
        EXPECT_GT(driver().stats(spec, 'D', w).pctCollapsed(), 25.0)
            << spec.name << " w" << w;
    }
}

TEST_P(PaperInvariants, CategoriesSumToAllEvents)
{
    const WorkloadSpec &spec = findWorkload(GetParam());
    const CollapseStats &c = driver().stats(spec, 'D', 16).collapse;
    EXPECT_EQ(c.eventsOf(CollapseCategory::ThreeOne) +
              c.eventsOf(CollapseCategory::FourOne) +
              c.eventsOf(CollapseCategory::ZeroOp),
              c.events());
    EXPECT_EQ(c.pairEvents() + c.tripleEvents(), c.events());
}

TEST_P(PaperInvariants, BranchAccuracyIsInACredibleBand)
{
    const WorkloadSpec &spec = findWorkload(GetParam());
    const SchedStats &stats = driver().stats(spec, 'A', 8);
    EXPECT_GT(stats.branchAccuracy(), 70.0) << spec.name;
    EXPECT_LE(stats.branchAccuracy(), 100.0) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PaperInvariants,
                         testing::Values("compress", "espresso",
                                         "eqntott", "li", "go", "ijpeg"));

// --- pointer-chasing contrast (paper section 5.2) ---------------------

TEST(PaperFindings, StridePredictionFailsOnPointerChasing)
{
    // Fraction of loads predicted correctly under D at width 8:
    // pointer-chasing benchmarks must be far below the others.
    const double pc = driver().meanLoadClassPct(
        workloadSubset(true), 'D', 8, LoadClass::PredictedCorrect);
    const double npc = driver().meanLoadClassPct(
        workloadSubset(false), 'D', 8, LoadClass::PredictedCorrect);
    EXPECT_LT(pc, npc);
}

TEST(PaperFindings, RealSpeculationGainsLittleOnPointerChasing)
{
    const double gain_pc =
        driver().hmeanSpeedup(workloadSubset(true), 'B', 8);
    const double gain_npc =
        driver().hmeanSpeedup(workloadSubset(false), 'B', 8);
    EXPECT_LT(gain_pc, gain_npc);
    EXPECT_LT(gain_pc, 1.15);   // "5%-9%" in the paper
}

TEST(PaperFindings, AggregateOrderingHolds)
{
    // Over the full benchmark set the paper's ordering is strict:
    // E >= D >= C >= A and B >= A in harmonic-mean speedup.
    const auto set = ExperimentDriver::everything();
    for (const unsigned w : {4u, 16u}) {
        const double b = driver().hmeanSpeedup(set, 'B', w);
        const double c = driver().hmeanSpeedup(set, 'C', w);
        const double d = driver().hmeanSpeedup(set, 'D', w);
        const double e = driver().hmeanSpeedup(set, 'E', w);
        EXPECT_GE(b, 1.0) << w;
        EXPECT_GT(c, 1.0) << w;
        EXPECT_GE(d, c) << w;
        EXPECT_GE(e, d) << w;
    }
}

TEST(PaperFindings, CollapsingContributesTheMajority)
{
    // Speedup(C) > Speedup(B) on the full set (the paper's headline:
    // d-collapsing is responsible for the majority of the gains).
    const auto set = ExperimentDriver::everything();
    EXPECT_GT(driver().hmeanSpeedup(set, 'C', 8),
              driver().hmeanSpeedup(set, 'B', 8));
}

TEST(PaperFindings, IdealBeatsRealMoreOnPointerChasing)
{
    const double drop_pc =
        driver().hmeanSpeedup(workloadSubset(true), 'E', 16) -
        driver().hmeanSpeedup(workloadSubset(true), 'D', 16);
    const double drop_npc =
        driver().hmeanSpeedup(workloadSubset(false), 'E', 16) -
        driver().hmeanSpeedup(workloadSubset(false), 'D', 16);
    EXPECT_GT(drop_pc, drop_npc);
}

TEST(PaperFindings, LiLoadsDefeatTheStrideTable)
{
    // The cdr chain walks an LCG permutation: under D nearly nothing
    // is predicted correctly.
    const SchedStats &stats =
        driver().stats(findWorkload("li"), 'D', 8);
    EXPECT_LT(stats.loadClassPct(LoadClass::PredictedCorrect), 10.0);
    EXPECT_GT(stats.loadClassPct(LoadClass::NotPredicted), 50.0);
}

TEST(PaperFindings, RegularCodesFeedTheStrideTable)
{
    // espresso's strided cube scans are bread and butter for the
    // two-delta table: ready or predicted-correctly dominates.
    const SchedStats &stats =
        driver().stats(findWorkload("espresso"), 'D', 8);
    const double covered =
        stats.loadClassPct(LoadClass::Ready) +
        stats.loadClassPct(LoadClass::PredictedCorrect);
    EXPECT_GT(covered, 60.0);
}

TEST(PaperFindings, MostCollapseDistancesAreShort)
{
    // "The distance separating the collapsed instructions is nearly
    // always less than 8" -- even at large widths.
    const CollapseStats merged = driver().mergedCollapse(
        ExperimentDriver::everything(), 'D', 32);
    EXPECT_GT(merged.distances().cumulativeAt(7), 0.60);
}

// --- durability: result store + fault containment ---------------------

/** Canonical byte encoding of @p s, minus the trailing wallNanos
 *  field (encoded last; it is the one field allowed to differ between
 *  bit-identical runs). */
std::string
encodedSansWall(const SchedStats &s)
{
    std::string out;
    encodeSchedStats(out, s);
    out.resize(out.size() - 8);
    return out;
}

/** Full encoding, wallNanos included (store round trips preserve it). */
std::string
encoded(const SchedStats &s)
{
    std::string out;
    encodeSchedStats(out, s);
    return out;
}

/** Fresh empty directory under the test temp root. */
std::filesystem::path
scratchStoreDir(const char *leaf)
{
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(Durability, StoreResumeServesBitIdenticalCells)
{
    const auto dir = scratchStoreDir("exp-store-resume");
    const WorkloadSpec &spec = findWorkload("espresso");
    const std::vector<ExperimentCell> cells = {{&spec, 'A', 4},
                                               {&spec, 'C', 8}};

    std::string first_a, first_c;
    {
        ExperimentDriver d(4000, /*test_scale=*/true, 2);
        ResultStore store(dir);
        d.attachStore(&store);
        d.prefetch(cells);
        EXPECT_EQ(d.storeHits(), 0u);
        EXPECT_EQ(store.size(), 2u);
        first_a = encoded(d.stats(spec, 'A', 4));
        first_c = encoded(d.stats(spec, 'C', 8));
    }

    // A fresh driver over the same traces is served both cells from
    // disk, bit for bit (wall time included: it is the stored run's).
    ExperimentDriver d(4000, /*test_scale=*/true, 2);
    ResultStore store(dir);
    EXPECT_EQ(store.loadReport().loaded, 2u);
    EXPECT_EQ(store.loadReport().discarded, 0u);
    // The record's identity, spelled out here rather than by the
    // driver: a paper cell is stored under "<workload>/<letter>/<width>"
    // with the paper machine's fingerprint and the trace digest.  Both
    // halves of this test run the same driver code, so without this
    // check a changed key format would still resume cleanly here while
    // orphaning every existing store on disk.
    EXPECT_NE(store.lookup("espresso/C/8",
                           MachineConfig::paper('C', 8).fingerprint(),
                           d.traceDigest(spec)),
              nullptr);
    d.attachStore(&store);
    d.prefetch(cells);
    EXPECT_EQ(d.storeHits(), 2u);
    EXPECT_EQ(encoded(d.stats(spec, 'A', 4)), first_a);
    EXPECT_EQ(encoded(d.stats(spec, 'C', 8)), first_c);
}

TEST(Durability, StaleStoreEntriesAreResimulated)
{
    // Same key, different trace length => different digest: the store
    // entry must be treated as a miss, not served.
    const auto dir = scratchStoreDir("exp-store-stale");
    const WorkloadSpec &spec = findWorkload("espresso");
    {
        ExperimentDriver d(2000, /*test_scale=*/true, 1);
        ResultStore store(dir);
        d.attachStore(&store);
        d.prefetch({{&spec, 'A', 4}});
        EXPECT_EQ(store.size(), 1u);
    }

    ExperimentDriver d(4000, /*test_scale=*/true, 1);
    ResultStore store(dir);
    d.attachStore(&store);
    d.prefetch({{&spec, 'A', 4}});
    EXPECT_EQ(d.storeHits(), 0u);

    ExperimentDriver clean(4000, /*test_scale=*/true, 1);
    EXPECT_EQ(encodedSansWall(d.stats(spec, 'A', 4)),
              encodedSansWall(clean.stats(spec, 'A', 4)));
}

TEST(Durability, ConcurrentIdenticalPrefetchesCountStoreHitsOnce)
{
    // Two sessions of a warm ddsc-served asking for the same sweep
    // race their prefetch() calls into one driver.  Both may find a
    // missing cell in the store; only the one whose cache insert wins
    // may count the hit, or --info would overstate store traffic.
    const auto dir = scratchStoreDir("exp-store-concurrent-hits");
    const WorkloadSpec &spec = findWorkload("espresso");
    const std::vector<ExperimentCell> cells = {
        {&spec, 'A', 4}, {&spec, 'C', 4}, {&spec, 'D', 4},
        {&spec, 'A', 8}, {&spec, 'C', 8}, {&spec, 'D', 8}};
    {
        ExperimentDriver d(4000, /*test_scale=*/true, 2);
        ResultStore store(dir);
        d.attachStore(&store);
        d.prefetch(cells);
        EXPECT_EQ(store.size(), cells.size());
    }

    ExperimentDriver d(4000, /*test_scale=*/true, 4);
    ResultStore store(dir);
    d.attachStore(&store);
    std::thread racer([&]() { d.prefetch(cells); });
    d.prefetch(cells);
    racer.join();

    EXPECT_EQ(d.storeHits(), cells.size());
    EXPECT_EQ(d.simulatedCells(), 0u);
    EXPECT_EQ(d.cachedCells(), cells.size());
}

#ifndef DDSC_NO_FAULT_INJECTION

/** Disarm the injection framework when the test exits, pass or fail. */
class ScopedFault
{
  public:
    explicit ScopedFault(const char *spec) { support::faultArm(spec); }
    ~ScopedFault() { support::faultArm(""); }
};

TEST(Durability, PoisonedCellIsQuarantinedOthersSurvive)
{
    const auto dir = scratchStoreDir("exp-store-quarantine");
    const WorkloadSpec &spec = findWorkload("espresso");
    ScopedFault fault("cell-throw:espresso/C/8");

    ExperimentDriver d(4000, /*test_scale=*/true, 2);
    ResultStore store(dir);
    d.attachStore(&store);
    d.prefetch({{&spec, 'A', 4}, {&spec, 'C', 8}, {&spec, 'D', 4}});

    const std::vector<CellFailure> report = d.quarantineReport();
    ASSERT_EQ(report.size(), 1u);
    EXPECT_EQ(report[0].key, "espresso/C/8");
    EXPECT_EQ(report[0].attempts, ExperimentDriver::kCellAttempts);
    EXPECT_NE(report[0].message.find("injected fault"),
              std::string::npos);
    EXPECT_THROW(d.stats(spec, 'C', 8), CellQuarantined);
    EXPECT_EQ(store.size(), 2u);    // only the survivors persisted

    // Every surviving cell matches a clean serial driver bit for bit.
    ExperimentDriver clean(4000, /*test_scale=*/true, 1);
    EXPECT_EQ(encodedSansWall(d.stats(spec, 'A', 4)),
              encodedSansWall(clean.stats(spec, 'A', 4)));
    EXPECT_EQ(encodedSansWall(d.stats(spec, 'D', 4)),
              encodedSansWall(clean.stats(spec, 'D', 4)));
}

TEST(Durability, TransientFaultRecoversInvisibly)
{
    const WorkloadSpec &spec = findWorkload("espresso");
    ExperimentDriver clean(4000, /*test_scale=*/true, 1);
    const std::string want =
        encodedSansWall(clean.stats(spec, 'A', 4));

    // The first attempt at the cell throws; the bounded retry must
    // absorb it with no quarantine entry and an identical result.
    ScopedFault fault("cell-throw:1");
    ExperimentDriver d(4000, /*test_scale=*/true, 1);
    d.prefetch({{&spec, 'A', 4}});
    EXPECT_TRUE(d.quarantineReport().empty());
    EXPECT_EQ(encodedSansWall(d.stats(spec, 'A', 4)), want);
}

TEST(Durability, BatchedQuarantineSparesSiblingsOfThePass)
{
    // Three widths of config A form ONE batched group (same front-end
    // fingerprint), so the poisoned 8-wide cell throws while its
    // siblings are part-way through the very same front-end pass.
    // The persistent fault also defeats the one-cell retries, so the
    // cell quarantines — and the siblings must still finish
    // bit-identical to the naive engine.
    const auto dir = scratchStoreDir("exp-store-batched-quarantine");
    const WorkloadSpec &spec = findWorkload("espresso");
    ScopedFault fault("cell-throw:espresso/A/8");

    ExperimentDriver d(4000, /*test_scale=*/true, 2);
    ASSERT_TRUE(d.batched());
    ResultStore store(dir);
    d.attachStore(&store);
    d.prefetch({{&spec, 'A', 4}, {&spec, 'A', 8}, {&spec, 'A', 16}});

    const std::vector<CellFailure> report = d.quarantineReport();
    ASSERT_EQ(report.size(), 1u);
    EXPECT_EQ(report[0].key, "espresso/A/8");
    EXPECT_EQ(report[0].attempts, ExperimentDriver::kCellAttempts);
    EXPECT_THROW(d.stats(spec, 'A', 8), CellQuarantined);
    EXPECT_EQ(store.size(), 2u);    // only the survivors persisted

    for (const unsigned width : {4u, 16u})
        EXPECT_EQ(encodedSansWall(d.stats(spec, 'A', width)),
                  encodedSansWall(test::naiveCell(
                      d.trace(spec), MachineConfig::paper('A', width))))
            << width;
}

TEST(Durability, BatchedResumeAfterPartialSweepIsByteIdentical)
{
    // Kill-and-resume across the batch boundary: a batched sweep dies
    // with one cell of the group poisoned, leaving the survivors
    // checkpointed.  A fresh driver over the same store resumes,
    // re-simulates only the missing cell, and every cell's encoded
    // bytes match the naive engine's.
    const auto dir = scratchStoreDir("exp-store-batched-resume");
    const WorkloadSpec &spec = findWorkload("espresso");
    const std::vector<ExperimentCell> cells = {
        {&spec, 'A', 4}, {&spec, 'A', 8}, {&spec, 'A', 16}};
    {
        ScopedFault fault("cell-throw:espresso/A/8");
        ExperimentDriver d(4000, /*test_scale=*/true, 2);
        ResultStore store(dir);
        d.attachStore(&store);
        d.prefetch(cells);
        EXPECT_EQ(store.size(), 2u);
    }

    ExperimentDriver d(4000, /*test_scale=*/true, 2);
    ResultStore store(dir);
    EXPECT_EQ(store.loadReport().loaded, 2u);
    d.attachStore(&store);
    d.prefetch(cells);
    EXPECT_EQ(d.storeHits(), 2u);
    EXPECT_EQ(d.simulatedCells(), 1u);
    EXPECT_TRUE(d.quarantineReport().empty());
    EXPECT_EQ(store.size(), 3u);

    for (const ExperimentCell &cell : cells)
        EXPECT_EQ(encodedSansWall(d.stats(spec, cell.config,
                                          cell.width)),
                  encodedSansWall(test::naiveCell(
                      d.trace(spec),
                      MachineConfig::paper(cell.config, cell.width))))
            << cell.config << "/" << cell.width;
}

#endif // DDSC_NO_FAULT_INJECTION

} // anonymous namespace
} // namespace ddsc
