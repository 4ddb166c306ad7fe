/**
 * @file
 * The production back-end: program-order placement.
 *
 * The machine issues oldest-first from a window that fills in program
 * order, so no younger instruction can change an older one's issue
 * cycle.  Each record is therefore placed once, in trace order, at the
 * earliest cycle its already-fixed constraints (window entry, barrier,
 * value and collapsed arcs, load classification at t_rest) and a free
 * issue slot allow, which reproduces the cycle-by-cycle schedule of
 * the scan engine (core/scheduler.hh) exactly.  docs/simulator.md
 * derives each constraint.  Node elimination cannot be placed this
 * way (an eliminated producer frees a slot younger records were
 * already placed against), so those cells run on the scan engine.
 */

#ifndef DDSC_CORE_PLACEMENT_HH
#define DDSC_CORE_PLACEMENT_HH

#include <cstdint>
#include <vector>

#include "core/annotation.hh"
#include "core/collapse_step.hh"
#include "core/config.hh"
#include "core/sched_stats.hh"

namespace ddsc
{

/** Program-order placement of annotated records (see the file
 *  comment); LimitScheduler drives it through the batched protocol. */
class PlacementEngine
{
  public:
    explicit PlacementEngine(const MachineConfig &config);

    /** Start a run: every per-run tally and ring is reset. */
    void begin();
    /** Place the next record in program order, batch.records[i]. */
    void place(const FrontEndBatch &batch, std::size_t i);
    /** Account the cycles still in flight and return the run's stats. */
    SchedStats finish();

  private:
    /** What younger records need of a placed record.  A ring slot is
     *  reused only once its occupant can no longer matter (issued
     *  before, and value available by, the new record's entry cycle),
     *  so a tag miss always means "no constraint". */
    struct Placed
    {
        std::uint64_t seq = 0;          ///< tag; 0 = empty
        std::uint64_t issue = 0;
        std::uint64_t value = 0;        ///< dependents may issue from here
        std::uint64_t ready = 0;        ///< collapsed dependents' bound
    };

    /** Advance the frontier for record @p seq; returns its entry cycle. */
    std::uint64_t enterWindow(std::uint64_t seq);
    /** Make record @p seq's ring slot free for a record entering at
     *  @p entry, doubling the ring while its occupant still matters. */
    void claimSlot(std::uint64_t seq, std::uint64_t entry);
    const Placed *
    find(std::uint64_t seq) const
    {
        const Placed &slot = placed_[seq & placedMask_];
        return slot.seq == seq ? &slot : nullptr;
    }

    /** The issue count of @p cycle (>= the frontier), growing the
     *  count ring to reach it. */
    std::uint32_t &issuesAt(std::uint64_t cycle);
    /** First cycle >= @p from with a free issue slot. */
    std::uint64_t freeCycle(std::uint64_t from);

    MachineConfig config_;
    bool classify_;             ///< loads are classified (load spec on)

    std::vector<Placed> placed_;
    /** Collapse bookkeeping, same indexing as placed_ (collapsing
     *  configs only). */
    std::vector<CollapseNode> nodes_;
    std::uint64_t placedMask_ = 0;

    /** Issue counts of cycles [frontier_, frontier_ + size), indexed
     *  by cycle & countMask_.  Cycles behind the frontier are final and
     *  already tallied into cyclesWith_. */
    std::vector<std::uint32_t> counts_;
    std::uint64_t countMask_ = 0;
    std::uint64_t frontier_ = 0;
    std::uint64_t issuedBeforeFrontier_ = 0;
    /** cyclesWith_[k]: finished cycles that issued k instructions (the
     *  issuedPerCycle histogram, filled once at finish()). */
    std::vector<std::uint64_t> cyclesWith_;
    std::uint64_t lastIssue_ = 0;
    bool anyIssue_ = false;

    std::uint64_t nextSeq_ = 1;         ///< 0 reserved for "none"
    SchedStats stats_;
    /** This run's collapse events, drained into stats_ at finish(). */
    CollapseTally tally_;
};

} // namespace ddsc

#endif // DDSC_CORE_PLACEMENT_HH
