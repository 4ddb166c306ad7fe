/**
 * @file
 * The Wall-style window limit scheduler with d-speculation and
 * d-collapsing (the paper's simulation engine).
 *
 * Model (Section 4 of the paper):
 *  - Instructions enter a window of capacity 2 x issueWidth in program
 *    order; the window is refilled each cycle ("kept full").
 *  - Every cycle up to issueWidth instructions whose dependences are
 *    satisfied issue, oldest first; execution takes 1 cycle (loads and
 *    multiplies 2, divides 12).
 *  - Renaming is ideal (only RAW register arcs), memory disambiguation
 *    is perfect (a load depends only on the most recent store that
 *    wrote one of its bytes), and there are no functional-unit limits
 *    other than issue width.
 *  - Conditional branches use the 8 kByte bimodal/gshare combining
 *    predictor; younger instructions cannot issue before or during the
 *    cycle a mispredicted branch issues.  All other control transfers
 *    predict perfectly.
 *  - Load-speculation and collapsing per MachineConfig; see DESIGN.md
 *    section 5 for the precise semantics.
 *
 * Two engines share only the front-end annotations and the collapse
 * step (core/collapse_step.hh): program-order placement
 * (core/placement.hh) is the production engine, and the scan engine
 * below, which steps cycle by cycle and rescans the window with the
 * exact predicates, is the test oracle (MachineConfig::naiveEngine)
 * and runs the node-elimination cells that placement cannot model.
 * docs/simulator.md describes both and the scan engine's rings.
 */

#ifndef DDSC_CORE_SCHEDULER_HH
#define DDSC_CORE_SCHEDULER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "core/collapse_step.hh"
#include "core/config.hh"
#include "core/frontend.hh"
#include "core/placement.hh"
#include "core/sched_stats.hh"
#include "support/cancel.hh"
#include "trace/source.hh"

namespace ddsc
{

/**
 * One simulation engine instance.  Use run() once per trace; the
 * predictors are reset between runs.
 */
class LimitScheduler
{
  public:
    explicit LimitScheduler(const MachineConfig &config);

    /** Simulate @p trace from its current position to the end: a
     *  one-cell batched pass (a private front-end feeding the protocol
     *  below), wall-timed into SchedStats::wallNanos. */
    SchedStats run(TraceSource &trace);

    /**
     * Batched operation: the back-end consumes pre-annotated records
     * from a shared SpecFrontEnd pass.  Protocol:
     *
     *     sched.beginBatched();
     *     while (fe.fill(trace, batch, chunk) != 0)
     *         sched.feedBatched(batch);
     *     SchedStats stats = sched.finishBatched();
     *
     * The placement engine places each record as it arrives; the scan
     * engine (naiveEngine or nodeElimination cells) advances simulated
     * cycles only while the chunk can keep the window full and drains
     * it in finishBatched().  The resulting SchedStats do not depend
     * on the chunk size or on how many back-ends share the pass
     * (wallNanos excepted, which the caller owns in this mode).
     */
    void beginBatched();
    void feedBatched(const FrontEndBatch &batch);
    SchedStats finishBatched();

    /**
     * Cooperative cancellation: both engines poll @p token every
     * kCancelPollRecords records fed, and the scan engine's drain in
     * finishBatched() every kCancelPollRecords cycles, throwing
     * support::CancelledError when it fires.  Partial state is
     * discarded by the next beginBatched(); the null token (default)
     * never cancels.
     */
    void setCancel(support::CancelToken token)
    {
        cancel_ = std::move(token);
        cancelCountdown_ = kCancelPollRecords;
    }

  private:
    /** A dependence arc to an older instruction. */
    struct DepArc
    {
        std::uint64_t producerSeq;
        bool collapsed;     ///< SRC semantics: wait for producer sources
        bool address;       ///< feeds address generation (load-spec)
    };

    /** One in-window dynamic instruction of the scan engine. */
    struct Entry
    {
        TraceRecord rec;
        std::uint64_t seq = 0;
        std::uint64_t fixedReady = 0;   ///< folded fixed constraints
        /** Last mispredicted branch before this instruction (0=none). */
        std::uint64_t barrierSeq = 0;
        DepArc arcs[4];
        unsigned numArcs = 0;
        bool live = false;              ///< slot holds an in-window entry
        bool issued = false;
        bool ready = false;             ///< in the ready set

        /** Value availability once known (issue + latency, or the
         *  speculative completion for predicted-correct loads). */
        std::uint64_t valueTime = 0;
        bool specValueSet = false;      ///< valueTime valid pre-issue

        /** Load-speculation bookkeeping. */
        bool isLoad = false;
        bool loadClassified = false;
        LoadClass loadClass = LoadClass::Ready;
        bool predUsable = false;        ///< table confidence > threshold
        bool predCorrect = false;       ///< predicted addr == actual
        bool vpredUsable = false;       ///< value prediction confident
        bool vpredCorrect = false;      ///< predicted value == actual

        /** MemDepMode::Predicted: the true producing store this load
         *  was speculated past (0 = none).  Not an arc; issueReady()
         *  probes it at issue and squashes on violation. */
        std::uint64_t memSpecSeq = 0;
        /** Squashed: waits on the restored store arc and pays the
         *  squash penalty at its re-issue. */
        bool memSquashed = false;

        CollapseNode collapse;

        /** Node elimination (paper Figure 1.f): a producer absorbed by
         *  consumers whose result no one else reads before it is
         *  overwritten need not execute at all. */
        bool hasValueReader = false;    ///< non-collapsed arc exists
        bool eliminated = false;        ///< never consumes an issue slot
    };

    /** Reset the scan engine's run state, allocating its rings on
     *  first use. */
    void resetScan();

    /** Build a window entry from a record plus its front-end
     *  annotation. */
    void insertAnnotated(const TraceRecord &rec,
                         const InsertAnnotation &ann);
    void addArc(Entry &entry, std::uint64_t producer_seq, bool address);

    bool arcSatisfied(const DepArc &arc, std::uint64_t cycle) const;
    bool barrierSatisfiedNow(const Entry &entry,
                             std::uint64_t cycle) const;
    bool sourcesSatisfied(const Entry &entry, std::uint64_t cycle) const;
    /** Every address (or every non-address) arc holds at @p cycle. */
    bool arcsSatisfied(const Entry &entry, std::uint64_t cycle,
                       bool address) const;

    void classifyLoad(Entry &entry, std::uint64_t cycle);
    void issue(Entry &entry, std::uint64_t cycle);

    /** Memory-dependence violation at issue: squash the load.  Returns
     *  true when it may still issue this cycle (violation-proof value
     *  prediction); false when it was sent back to wait on the
     *  restored store arc. */
    bool divertViolatedLoad(Entry &entry);

    /** The in-window entry with sequence number @p seq, or nullptr
     *  (one ring index plus a tag compare). */
    const Entry *findWindow(std::uint64_t seq) const;
    Entry *
    findWindow(std::uint64_t seq)
    {
        return const_cast<Entry *>(std::as_const(*this).findWindow(seq));
    }

    /** Post-collapse bookkeeping for node elimination: mark producers
     *  that still have a real value reader. */
    void noteValueReaders(const Entry &entry);

    /** Try to eliminate the overwritten previous writer @p old_seq;
     *  @p cc_blocked means its cc result is still live (the front-end
     *  decides this from its writer tables). */
    void maybeEliminate(std::uint64_t old_seq, bool cc_blocked);

    /** Drop an entry from all structures; @p entry must be in window. */
    void removeFromWindow(std::uint64_t seq);

    /** Mark @p entry issue-ready (sets its bit in readyBits_). */
    void markReady(Entry &entry);

    /** Issue stage: scan readyBits_ oldest-first and issue up to
     *  issueWidth ready entries (eliminated entries leave for free
     *  while issue slots remain).  Returns the number issued. */
    unsigned issueReady();

    /** One scan-engine cycle: classify, promote, issue, account. */
    void scanCycle();

    /** Double the window ring until the live span [oldestSeq_,
     *  nextSeq_) fits without slot collisions. */
    void growWindow();

    /** The value time of an issued producer, or 0 when it retired so
     *  long ago that its value is certainly available. */
    std::uint64_t retiredValueTime(std::uint64_t seq) const;

    /** Record an issued producer's value time in the retired ring,
     *  growing the ring rather than overwriting a still-constraining
     *  slot. */
    void recordRetired(std::uint64_t seq, std::uint64_t value_time);
    void growRetired();

    MachineConfig config_;
    /** run()'s private front-end; a shared batched pass bypasses it
     *  (annotations arrive from an external SpecFrontEnd). */
    SpecFrontEnd frontEnd_;

    /** Production engine, or the scan engine below for naiveEngine
     *  and nodeElimination cells. */
    PlacementEngine placement_;
    const bool scan_;
    bool running_ = false;      ///< between beginBatched and finish

    /** The window: a power-of-two ring of slots addressed by
     *  seq & slotMask_, tagged by Entry::seq + Entry::live.  Dense
     *  seqs keep live entries collision-free up to the ring size;
     *  growWindow() handles the rare pathological span. */
    std::vector<Entry> slots_;
    std::uint64_t slotMask_ = 0;
    std::size_t windowCount_ = 0;       ///< live entries
    /** No live entry has a smaller seq (watermark; scans and ring
     *  growth iterate [oldestSeq_, nextSeq_)). */
    std::uint64_t oldestSeq_ = 1;

    /** Issued-but-still-constraining producers: a seq-tagged ring of
     *  value times.  A tag mismatch means "retired long ago, value
     *  available". */
    struct Retired
    {
        std::uint64_t seq = 0;          ///< 0 = empty slot
        std::uint64_t valueTime = 0;
    };
    std::vector<Retired> retired_;
    std::uint64_t retiredMask_ = 0;

    /** Issue-ready entries: one bit per window-ring slot (index
     *  seq & slotMask_).  The issue stage scans words oldest-first;
     *  removeFromWindow clears the bit, so no lazy deletion. */
    std::vector<std::uint64_t> readyBits_;
    std::size_t readyCount_ = 0;
    /** Lower bound on the smallest seq with a set ready bit, so the
     *  issue scan skips the dead prefix below it (a stalled oldest
     *  entry no longer costs O(span) bitmap words per cycle). */
    std::uint64_t readySeqHint_ = 1;

    std::uint64_t lastIssue_ = 0;
    bool anyIssue_ = false;
    std::uint64_t nextSeq_ = 1;         ///< 0 reserved for "none"
    std::uint64_t cycle_ = 0;
    SchedStats stats_;

    /** Cooperative cancellation (setCancel): checked every
     *  kCancelPollRecords fed records / drained cycles, so the
     *  cancellation latency is bounded by one poll chunk.  The
     *  countdown keeps the hot path to a decrement; the token's
     *  atomic (and clock, when a deadline binds) is touched only when
     *  it reaches zero. */
    static constexpr std::uint64_t kCancelPollRecords = 8192;
    support::CancelToken cancel_;
    std::uint64_t cancelCountdown_ = kCancelPollRecords;

    /** Decrement the poll countdown; throws CancelledError when the
     *  token fired. */
    void
    pollCancel()
    {
        if (--cancelCountdown_ != 0)
            return;
        cancelCountdown_ = kCancelPollRecords;
        if (cancel_.valid())
            cancel_.throwIfCancelled();
    }
};

} // namespace ddsc

#endif // DDSC_CORE_SCHEDULER_HH
