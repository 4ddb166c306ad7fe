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
 * Engine: wake-list rather than scan-based.  A failed readiness (or
 * load-classification) evaluation stops at its first unsatisfied
 * constraint and sleeps until that constraint can change: on a
 * timing wheel for the cycle it resolves when that cycle is already
 * known, or on the blocking producer's wakeup list until its issue,
 * speculative value delivery, or source readiness names the cycle.
 * Every wake fires at a true satisfaction time, so readiness and load
 * classification happen at exactly the cycles a full window scan
 * finds, and a blocked 4096-entry window costs nothing per idle
 * cycle.  That scan survives as the naive engine
 * (MachineConfig::naiveEngine), the test oracle.
 *
 * Hot-path layout: sequence numbers are dense (one per inserted
 * instruction, never reused within a run), so every per-instruction
 * structure is a power-of-two ring addressed by seq instead of an
 * associative container:
 *  - the window is a ring of Entry slots (`slots_`); findWindow is one
 *    index + tag compare, and slot reuse replaces list/hash-map
 *    erase traffic (the ring grows when a stalled oldest entry would
 *    be overrun, which the issue rules bound to a small multiple of
 *    the window size);
 *  - issued-but-still-constraining producers live in a seq-tagged ring
 *    of value times (`retired_`); a tag mismatch means the entry was
 *    retired so long ago that its value is certainly available, which
 *    replaces the old periodic prune loop outright;
 *  - perfect memory disambiguation uses 4 KiB pages of per-byte seq
 *    words, invalidated between runs by epoch instead of deallocation,
 *    so a load/store touches one page pointer instead of one hash
 *    probe per byte;
 *  - the re-evaluation queues ("re-evaluate entry E at cycle C") are
 *    timing wheels: events due within the wheel span go to the
 *    bucket of their cycle and each cycle drains exactly one bucket,
 *    so the per-event cost is O(1) instead of a log-depth heap sift;
 *    the rare far-future event (deep long-latency chains) waits in a
 *    small min-heap consulted once per cycle;
 *  - the ready set is a bitmap over the window ring scanned with
 *    countr_zero, which both engines share for the issue stage:
 *    oldest-first selection is a word scan from the oldest live seq,
 *    and set/clear are single bit operations (no lazy deletion).
 * docs/simulator.md ("Hot-path data layout") states the invariants.
 */

#ifndef DDSC_CORE_SCHEDULER_HH
#define DDSC_CORE_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/config.hh"
#include "core/frontend.hh"
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

    /** Simulate @p trace from its current position to the end: the
     *  naive scan engine when config.naiveEngine is set, otherwise a
     *  one-cell batched pass (a private front-end feeding the
     *  protocol below), wall-timed into SchedStats::wallNanos. */
    SchedStats run(TraceSource &trace);

    /**
     * Batched operation: the back-end consumes pre-annotated records
     * from a shared SpecFrontEnd pass instead of driving its own
     * front-end.  Protocol:
     *
     *     sched.beginBatched();
     *     while (fe.fill(trace, batch, chunk) != 0)
     *         sched.feedBatched(batch);
     *     SchedStats stats = sched.finishBatched();
     *
     * feedBatched() advances simulated cycles only while the chunk can
     * keep the window full ("kept full" semantics); the leftover tail
     * waits for the next chunk.  finishBatched() drains the window.
     * The resulting SchedStats do not depend on the chunk size or on
     * how many back-ends share the pass (wallNanos excepted, which
     * the caller owns in this mode).
     */
    void beginBatched();
    void feedBatched(const FrontEndBatch &batch);
    SchedStats finishBatched();

    /**
     * Cooperative cancellation: both engines poll @p token at
     * insertion-chunk granularity (every kCancelPollRecords records
     * fed into the window) and finishBatched()'s drain polls per
     * kCancelPollRecords cycles, throwing support::CancelledError
     * when it fires.  Partial window state is discarded by the next
     * run's resetState(); the null token (default) never cancels.
     */
    void setCancel(support::CancelToken token)
    {
        cancel_ = std::move(token);
        cancelCountdown_ = kCancelPollRecords;
    }

  private:
    /** Reset all run state (predictors keep their construction). */
    void resetState();

    /** The O(window)-per-cycle reference engine (config.naiveEngine):
     *  rescans the window every cycle with the exact predicates below
     *  and never touches the wake-list machinery, so it checks the
     *  production engine independently. */
    SchedStats runNaive(TraceSource &trace);

  private:
    /** A dependence arc to an older instruction. */
    struct DepArc
    {
        std::uint64_t producerSeq;
        bool collapsed;     ///< SRC semantics: wait for producer sources
        bool address;       ///< feeds address generation (load-spec)
    };

    /** One in-window dynamic instruction. */
    struct Entry
    {
        TraceRecord rec;
        std::uint64_t seq = 0;
        std::uint64_t fixedReady = 0;   ///< folded fixed constraints
        /** Last mispredicted branch before this instruction (0=none). */
        std::uint64_t barrierSeq = 0;
        /** Dynamic basic-block id (for the prior-work collapse
         *  restriction ablation). */
        std::uint64_t bbId = 0;
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

        /** Memory-dependence speculation (MemDepMode::Predicted): the
         *  true producing store this load was speculated *past* (0 =
         *  none).  Not an arc — readiness and classification ignore
         *  it; issueReady() probes it when the load reaches issue and
         *  squashes on violation (divertViolatedLoad). */
        std::uint64_t memSpecSeq = 0;
        /** Squashed on a memory-dependence violation: the load was
         *  sent back to wait on the restored store arc and pays the
         *  squash penalty at its eventual re-issue. */
        bool memSquashed = false;

        /** Collapsing bookkeeping.  Absorbed producers' signature
         *  fragments and seqs are copied by value: a producer may
         *  issue and leave the window while this entry still waits,
         *  yet its identity is needed if a later consumer extends the
         *  group (chain triples).  Fragments come precomputed from
         *  the front-end annotation, so group signatures are pure
         *  concatenation here. */
        ExprSize expr;                  ///< effective (compound) size
        std::array<char, kMaxInstructionSignature> sigFrag;
        std::uint8_t sigLen = 0;        ///< own fragment (annotation)
        std::array<char, kMaxInstructionSignature> memberSigs[2];
        std::uint8_t memberSigLens[2] = {0, 0};
        std::uint64_t memberSeqs[2] = {0, 0};
        unsigned numMembers = 0;        ///< producers absorbed (0..2)
        bool inAnyGroup = false;

        /** Node elimination (paper Figure 1.f): a producer absorbed by
         *  consumers whose result no one else reads before it is
         *  overwritten need not execute at all. */
        unsigned absorbedCount = 0;     ///< times absorbed as producer
        bool hasValueReader = false;    ///< non-collapsed arc exists
        bool eliminated = false;        ///< never consumes an issue slot

        /** Wake-list engine wakeup lists (unused by the naive
         *  engine).  An entry blocked on this producer's unknown
         *  future (issue time or source readiness) links itself here;
         *  the chain is seq-encoded tokens (waiterSeq << 1 | kind) so
         *  it survives growWindow()'s entry copies.  Each waiter
         *  stores the continuation for the one chain it sits in, per
         *  kind (promotion vs load classification). */
        std::uint64_t wakeHead = 0;         ///< 0 = no waiters
        std::uint64_t wakeNextPromote = 0;
        std::uint64_t wakeNextClassify = 0;
    };

    void insert(const TraceRecord &rec);
    /** The back-end half of insertion: window entry construction from
     *  a record plus its front-end annotation (shared by insert() and
     *  the batched feed, so both paths are identical by
     *  construction). */
    void insertAnnotated(const TraceRecord &rec,
                         const InsertAnnotation &ann);
    void addArc(Entry &entry, std::uint64_t producer_seq, bool address);
    void tryCollapse(Entry &entry);

    bool arcSatisfied(const DepArc &arc, std::uint64_t cycle) const;
    bool barrierSatisfiedNow(const Entry &entry,
                             std::uint64_t cycle) const;
    bool sourcesSatisfied(const Entry &entry, std::uint64_t cycle) const;
    bool addrArcsSatisfied(const Entry &entry, std::uint64_t cycle) const;
    /** Every constraint but the address arcs holds at @p cycle: the
     *  naive engine's load-classification predicate. */
    bool nonAddrSatisfied(const Entry &entry, std::uint64_t cycle) const;

    void classifyLoad(Entry &entry, std::uint64_t cycle);
    void issue(Entry &entry, std::uint64_t cycle);

    /** Memory-dependence violation at issue: squash the load.  Returns
     *  true when it may still issue this cycle (violation-proof value
     *  prediction); false when it was sent back to wait on the
     *  restored store arc (re-registered with the wake-list engine). */
    bool divertViolatedLoad(Entry &entry);

    /** The in-window entry with sequence number @p seq, or nullptr
     *  (one ring index plus a tag compare). */
    const Entry *findWindow(std::uint64_t seq) const;
    Entry *findWindow(std::uint64_t seq);

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

    /** Shared issue stage: scan readyBits_ oldest-first and issue up
     *  to issueWidth ready entries (eliminated entries leave for free
     *  while issue slots remain).  Returns the number issued. */
    unsigned issueReady(std::uint64_t &last_issue_cycle,
                        bool &any_issue);

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

    // --- batched (wakeup-list) engine ---------------------------------
    //
    // Re-evaluations are scheduled at *exact* constraint-resolution
    // times.  A failed evaluation stops at its first unsatisfied
    // constraint: when that constraint's satisfaction time is already
    // known (fixed readiness, an issued or value-speculated producer,
    // a retired value time) the entry goes back on the wheel for that
    // cycle; otherwise (an unissued producer) it links into the
    // producer's wakeup list and sleeps until markReady / issue /
    // speculative value delivery names the time.  Every entry is thus
    // evaluated O(constraints) times total, and promotion still
    // happens at exactly the cycle the naive engine's full scan finds
    // (each wake fires at a true satisfaction time, and the last one
    // fires at their maximum).

    /** Outcome of a batched-engine evaluation: satisfied, or blocked
     *  until a known cycle (`due`), or blocked on an unissued
     *  in-window producer (`blocker`). */
    struct WakeCheck
    {
        bool ok;
        std::uint64_t due;      ///< exact re-evaluation cycle (0 = n/a)
        std::uint64_t blocker;  ///< producer seq to wait on (0 = n/a)
    };

    WakeCheck wakeCheckArc(const DepArc &arc, std::uint64_t cycle) const;
    WakeCheck wakeCheckAll(const Entry &entry, std::uint64_t cycle) const;
    WakeCheck wakeCheckNonAddr(const Entry &entry,
                               std::uint64_t cycle) const;

    /** Link @p waiter into @p producer_seq's wakeup list. */
    void registerWaiter(std::uint64_t producer_seq, Entry &waiter,
                        bool classify_kind);
    /** Producer resolved at a known future @p due (issue or
     *  speculative value): move all waiters to their wheels. */
    void wakeAt(Entry &producer, std::uint64_t due);
    /** Producer became source-satisfied this cycle (markReady):
     *  promotion waiters re-evaluate now, classification waiters next
     *  cycle (their predicates cannot hold yet). */
    void wakeNow(Entry &producer);

    void insertFromBatch(const FrontEndBatch &batch, std::size_t i);
    void runBatchedCycle();

    MachineConfig config_;
    /** run()'s private front-end (per record for the naive engine,
     *  per chunk for the one-cell batched pass); a shared batched
     *  pass bypasses it (annotations arrive from an external
     *  SpecFrontEnd). */
    SpecFrontEnd frontEnd_;

    /** The window: a power-of-two ring of slots addressed by
     *  seq & slotMask_, tagged by Entry::seq + Entry::live.  Dense
     *  seqs keep live entries collision-free up to the ring size;
     *  growWindow() handles the rare pathological span. */
    std::vector<Entry> slots_;
    std::uint64_t slotMask_ = 0;
    std::size_t windowCount_ = 0;       ///< live entries
    /** No live entry has a smaller seq (watermark; naive scans and
     *  ring growth iterate [oldestSeq_, nextSeq_)). */
    std::uint64_t oldestSeq_ = 1;

    /** Issued-but-still-constraining producers: a seq-tagged ring of
     *  value times.  A tag mismatch means "retired long ago, value
     *  available" — the ring replaces both the unordered_map and the
     *  periodic prune loop. */
    struct Retired
    {
        std::uint64_t seq = 0;          ///< 0 = empty slot
        std::uint64_t valueTime = 0;
    };
    std::vector<Retired> retired_;
    std::uint64_t retiredMask_ = 0;

    /** (due cycle, seq) min-heap for far-future wheel events. */
    using DueHeap = std::priority_queue<
        std::pair<std::uint64_t, std::uint64_t>,
        std::vector<std::pair<std::uint64_t, std::uint64_t>>,
        std::greater<>>;

    /** Timing wheel of (due cycle, seq) re-evaluation events.  cycle_
     *  advances by exactly 1 per engine iteration and every bucket is
     *  drained each cycle, so an event due within kWheelSlots of the
     *  current cycle sits in the bucket of its due cycle and is
     *  popped exactly then; farther events (deep long-latency chains)
     *  wait in `far`, whose top is consulted once per cycle.  Push
     *  is O(1) versus the log-depth sift of a global heap; events are
     *  still lazily invalidated at drain (the entry may have issued
     *  meanwhile). */
    static constexpr std::uint64_t kWheelSlots = 256;
    struct WakeWheel
    {
        std::array<std::vector<std::uint64_t>, kWheelSlots> buckets;
        DueHeap far;

        void
        push(std::uint64_t due, std::uint64_t cycle, std::uint64_t seq)
        {
            if (due - cycle < kWheelSlots)
                buckets[due & (kWheelSlots - 1)].push_back(seq);
            else
                far.push({due, seq});
        }

        void clear();
    };
    WakeWheel pending_;         ///< waiting to become issue-ready
    WakeWheel classifyQueue_;   ///< loads waiting for classification

    /** Issue-ready entries: one bit per window-ring slot (index
     *  seq & slotMask_).  The issue stage scans words oldest-first;
     *  removeFromWindow clears the bit, so no lazy deletion. */
    std::vector<std::uint64_t> readyBits_;
    std::size_t readyCount_ = 0;
    /** Lower bound on the smallest seq with a set ready bit, so the
     *  issue scan skips the dead prefix below it (a stalled oldest
     *  entry no longer costs O(span) bitmap words per cycle). */
    std::uint64_t readySeqHint_ = 1;

    /** Batched (wakeup-list) engine state.  promoteWork_ is the
     *  current cycle's promotion work list: wheel drains seed it and
     *  markReady wakes append to it mid-scan (index iteration), so
     *  same-cycle promotion closures — collapsed consumers of a
     *  just-promoted producer — resolve within the cycle. */
    bool wakeMode_ = false;
    std::vector<std::uint64_t> promoteWork_;
    std::uint64_t batchLastIssue_ = 0;
    bool batchAnyIssue_ = false;

    std::uint64_t nextSeq_ = 1;         ///< 0 reserved for "none"
    std::uint64_t cycle_ = 0;
    SchedStats stats_;

    /** Cooperative cancellation (setCancel): checked every
     *  kCancelPollRecords inserted records / drained cycles, so the
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
