/**
 * @file
 * Per-run statistics produced by the limit scheduler.
 */

#ifndef DDSC_CORE_SCHED_STATS_HH
#define DDSC_CORE_SCHED_STATS_HH

#include <array>
#include <cstdint>

#include "addrpred/addrpred.hh"
#include "collapse/collapse_stats.hh"
#include "support/stats.hh"

namespace ddsc
{

/**
 * Everything one simulation run reports.
 */
struct SchedStats
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;

    std::uint64_t condBranches = 0;
    std::uint64_t mispredicts = 0;

    /** Non-conditional CTIs predicted when realCtiPrediction is on
     *  (returns via the RAS, indirect jumps via the target buffer). */
    std::uint64_t ctiPredictions = 0;
    std::uint64_t ctiMispredicts = 0;

    std::uint64_t loads = 0;
    std::array<std::uint64_t, kNumLoadClasses> loadClasses = {};

    /** Producers skipped by node elimination (Figure 1.f extension). */
    std::uint64_t eliminatedInstructions = 0;

    /** Value-prediction extension (Figure 1.d): loads whose *value*
     *  was delivered speculatively / predicted confidently but wrong. */
    std::uint64_t valuePredHits = 0;
    std::uint64_t valuePredWrong = 0;

    /** Memory-dependence speculation (MemDepMode::Predicted; all zero
     *  under the paper's perfect disambiguation).  Predicted = loads
     *  the predictor marked dependent; false = predicted dependent
     *  with no true producer (charged a conservative arc to the
     *  youngest store); squashes = loads that issued past a store they
     *  truly depended on and paid memSquashPenalty. */
    std::uint64_t memDepPredictedDeps = 0;
    std::uint64_t memDepFalseDeps = 0;
    std::uint64_t memDepSquashes = 0;

    CollapseStats collapse;

    /** Instructions issued per cycle (key = count, including zero). */
    Histogram issuedPerCycle;

    /**
     * Host wall-clock nanoseconds spent inside LimitScheduler::run for
     * this cell.  Purely observational: it makes the parallel engine's
     * speedup measurable (sum of cell times vs. elapsed time) and is
     * the one field excluded from serial-vs-parallel bit-identity.
     */
    std::uint64_t wallNanos = 0;

    /** Fraction of cycles with no issue at all. */
    double
    pctIdleCycles() const
    {
        return issuedPerCycle.samples() == 0 ? 0.0
            : percent(static_cast<double>(issuedPerCycle.count(0)),
                      static_cast<double>(issuedPerCycle.samples()));
    }

    /** Instructions per cycle. */
    double
    ipc() const
    {
        return cycles == 0 ? 0.0
            : static_cast<double>(instructions) /
              static_cast<double>(cycles);
    }

    /** Conditional-branch prediction accuracy in percent (Table 2). */
    double
    branchAccuracy() const
    {
        return condBranches == 0 ? 0.0
            : percent(static_cast<double>(condBranches - mispredicts),
                      static_cast<double>(condBranches));
    }

    /** Percentage of dynamic loads in a class (Tables 3 and 4). */
    double
    loadClassPct(LoadClass c) const
    {
        return loads == 0 ? 0.0
            : percent(static_cast<double>(
                          loadClasses[static_cast<unsigned>(c)]),
                      static_cast<double>(loads));
    }

    /** Percentage of instructions eliminated (extension study). */
    double
    pctEliminated() const
    {
        return instructions == 0 ? 0.0
            : percent(static_cast<double>(eliminatedInstructions),
                      static_cast<double>(instructions));
    }

    /** Percentage of instructions collapsed (Figure 8). */
    double
    pctCollapsed() const
    {
        return instructions == 0 ? 0.0
            : percent(static_cast<double>(
                          collapse.collapsedInstructions()),
                      static_cast<double>(instructions));
    }
};

/**
 * FNV-style digest (its seed is not FNV-1a's; see sched_stats.cc)
 * over every deterministic field of @p s — everything except
 * wallNanos, the sole field allowed to differ between runs that
 * simulated identically.  The engine-equivalence oracles (bench_sched
 * cross-checks, batched_equiv_test) compare runs by this value.
 */
std::uint64_t digestSchedStats(const SchedStats &s);

/** Count what one record's annotation flags report (the instruction,
 *  branch and CTI predictions, memory-dependence predictions) into
 *  @p s.  Both back-ends count these identically, whatever their
 *  timing. */
void countAnnotation(SchedStats &s, std::uint16_t flags);

} // namespace ddsc

#endif // DDSC_CORE_SCHED_STATS_HH
