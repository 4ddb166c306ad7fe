/**
 * @file
 * The engine-independent oracle for driver- and group-level tests:
 * one cell simulated on the naive scan engine
 * (MachineConfig::naiveEngine).  It rescans the window every cycle
 * with exact predicates and shares no timing code with the production
 * placement engine, so agreement with it is evidence about the model,
 * not the production engine agreeing with itself.  Its cost is
 * O(window) per cycle: keep it to widths of 64 or less.
 */

#ifndef DDSC_TESTS_NAIVE_ORACLE_HH
#define DDSC_TESTS_NAIVE_ORACLE_HH

#include <memory>

#include "core/config.hh"
#include "core/scheduler.hh"
#include "core/sched_stats.hh"
#include "trace/source.hh"

namespace ddsc::test
{

/** Simulate @p config over a fresh cursor of @p trace on the naive
 *  engine. */
inline SchedStats
naiveCell(const SharedTrace &trace, MachineConfig config)
{
    config.naiveEngine = true;
    const std::unique_ptr<TraceSource> view = trace.cursor();
    LimitScheduler sched(config);
    return sched.run(*view);
}

} // namespace ddsc::test

#endif // DDSC_TESTS_NAIVE_ORACLE_HH
