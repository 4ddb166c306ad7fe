/**
 * @file
 * Workload-trace ownership for the experiment driver.
 *
 * The store materializes each workload's trace exactly once and hands
 * it out as an immutable SharedTrace that any number of cells read
 * through private cursors.  Two concerns shape it:
 *
 *  - Concurrency: each workload has its own std::once_flag, so two
 *    sessions requesting *different* workloads build both VMs in
 *    parallel, while two requests for the *same* workload still share
 *    one build.  (The driver used to hold a single mutex across the
 *    whole VM run, serializing unrelated workloads and blocking
 *    everything else that touched the lock.)  The content digest is
 *    likewise computed exactly once per trace, under its own latch —
 *    racing callers no longer both pay the O(n) pass.
 *
 *  - Memory: with a spill directory configured, a freshly generated
 *    trace is written out as a DDSCTRC v4 file and served back as an
 *    mmap'd MappedTraceSource, so peak RSS is one workload's vector
 *    during generation instead of the whole corpus forever, and the
 *    residency manager can evict cold traces under --trace-budget-mb.
 *    An existing spill file is reused (VM output is deterministic)
 *    only when its header digest matches the fresh generation —
 *    a stale or foreign file is silently rewritten, never served.
 */

#ifndef DDSC_SIM_TRACE_STORE_HH
#define DDSC_SIM_TRACE_STORE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "trace/mapped.hh"
#include "trace/source.hh"
#include "workloads/workloads.hh"

namespace ddsc
{

class TraceStore
{
  public:
    TraceStore() = default;
    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    /** Set truncation and scale policy; call before the first get(). */
    void
    configure(std::uint64_t trace_limit, bool test_scale)
    {
        traceLimit_ = trace_limit;
        testScale_ = test_scale;
    }

    /**
     * Spill freshly generated traces to v4 files under @p dir
     * (created if missing) and serve them mmap'd.  "" restores pure
     * in-memory traces.  Affects only workloads not yet materialized.
     */
    void setSpillDir(const std::string &dir);

    /** Residency budget over the mapped traces (0 = unlimited). */
    void setBudgetBytes(std::uint64_t bytes);

    /** The trace for @p spec, built on first use (see file comment
     *  for the concurrency contract).  Valid for the store's
     *  lifetime. */
    const SharedTrace &get(const WorkloadSpec &spec);

    /** Content digest of get(spec), computed exactly once. */
    std::uint64_t digest(const WorkloadSpec &spec);

    /** Serve @p trace as @p name's trace: fills the slot through the
     *  once-latch get() builds under, so the trace is never truncated,
     *  rescaled or spilled, and its digest is still computed once.
     *  Dies when @p name's trace is already built. */
    void adopt(const std::string &name,
               std::unique_ptr<const SharedTrace> trace);

    /** LRU-touch @p trace before sweeping it (no-op for in-memory
     *  traces). */
    void touch(const SharedTrace &trace) { residency_.touch(trace); }

    TraceResidencyManager::Counters
    residency() const
    {
        return residency_.counters();
    }

  private:
    struct Slot
    {
        std::once_flag build;
        std::once_flag digestOnce;
        std::unique_ptr<const SharedTrace> trace;
        std::uint64_t digest = 0;
    };

    /** Find-or-create the slot for @p name.  The small map lock is
     *  held only for node lookup/insertion — std::map nodes are
     *  stable, so the returned reference outlives the lock and the
     *  expensive work happens under the slot's own once-latch. */
    Slot &slot(const std::string &name);

    std::unique_ptr<const SharedTrace>
    materialize(const WorkloadSpec &spec, Slot &s);

    std::uint64_t traceLimit_ = 0;
    bool testScale_ = false;
    std::string spillDir_;
    TraceResidencyManager residency_;
    mutable std::mutex mapMutex_;
    std::map<std::string, Slot> slots_;
};

} // namespace ddsc

#endif // DDSC_SIM_TRACE_STORE_HH
