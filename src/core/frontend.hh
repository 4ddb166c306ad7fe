/**
 * @file
 * The speculative front-end of the limit scheduler, decoupled from the
 * window engines so one streaming pass over a trace can feed any
 * number of back-end (config, width) cells.
 *
 * Everything the front-end computes is *pure program order* — it
 * depends only on the trace prefix, never on window contents, issue
 * timing, or width:
 *
 *  - sequence numbering and dynamic basic-block ids;
 *  - conditional-branch prediction (bimodal/gshare) and, optionally,
 *    real CTI prediction (return-address stack + indirect target
 *    buffer), including the running "last mispredicted branch"
 *    barrier;
 *  - ideal-rename producer tracking (last writer per register, last
 *    cc writer) and perfect memory disambiguation (last store per
 *    byte), i.e. the raw RAW dependence seqs of every record;
 *  - the node-elimination overwrite bookkeeping (which older writer a
 *    record's destination overwrites, and whether a live cc value
 *    blocks eliminating it).
 *
 * Everything *speculative about dependences* — the memory arc
 * (perfect or predicted), address-predictor and value-predictor
 * training and their per-load outcome flags, collapse-detection
 * columns — is delegated to an ordered stack of speculation modules
 * (src/spec/): the front-end resolves ground truth, the stack
 * proposes relaxations.  See spec/orchestrator.hh for the stack
 * order, which preserves the historical annotate() operation order
 * exactly.
 *
 * The result is one InsertAnnotation per record.  A width-W back-end
 * combines (record, annotation) with its own window state —
 * arc-vs-resolved decisions, collapsing, load classification, issue
 * timing — to reproduce bit-identical SchedStats to the historical
 * monolithic insert() path; tests/batched_equiv_test.cpp is the
 * oracle.  Crucially each predictor trains exactly once per record no
 * matter how many back-ends consume the pass (trainCounts() lets the
 * test suite pin that property).
 *
 * FrontEndBatch is the structure-of-arrays chunk format the streaming
 * pass emits: parallel arrays indexed by record position, so N
 * back-ends can replay a chunk without re-decoding or re-predicting
 * anything.  Configurations whose front-end knobs agree
 * (MachineConfig::frontEndFingerprint()) can share one pass: the
 * paper matrix needs two passes per workload (A/C/E train no load
 * predictors, B/D train the address predictor) to cover all 25 cells.
 */

#ifndef DDSC_CORE_FRONTEND_HH
#define DDSC_CORE_FRONTEND_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bpred/bpred.hh"
#include "bpred/cti_pred.hh"
#include "collapse/rules.hh"
#include "core/annotation.hh"
#include "core/config.hh"
#include "spec/orchestrator.hh"
#include "trace/record.hh"
#include "trace/source.hh"

namespace ddsc
{

/** Default records per streamed chunk (FrontEndBatch capacity). */
constexpr std::size_t kBatchedChunk = 16384;

/**
 * One structure-of-arrays chunk of annotated records.  Arrays are
 * parallel: records[i] pairs with flags[i], depCount[i],
 * depSeqs[4*i..4*i+3], ...  All vectors keep their capacity across
 * clear() so a streaming pass reuses one chunk buffer.
 */
struct FrontEndBatch
{
    std::vector<TraceRecord> records;
    std::vector<std::uint16_t> flags;
    std::vector<std::uint8_t> depCount;
    std::vector<std::uint8_t> depAddrMask;
    std::vector<std::uint64_t> depSeqs;     ///< 4 per record
    std::vector<std::uint64_t> barrierSeq;
    std::vector<std::uint64_t> bbId;
    std::vector<std::uint64_t> elimOldWriter;
    std::vector<ExprSize> expr;
    std::vector<std::uint64_t> sig;         ///< packed fragment

    std::size_t size() const { return records.size(); }

    void
    clear()
    {
        records.clear();
        flags.clear();
        depCount.clear();
        depAddrMask.clear();
        depSeqs.clear();
        barrierSeq.clear();
        bbId.clear();
        elimOldWriter.clear();
        expr.clear();
        sig.clear();
    }

    /** Reassemble the annotation of record @p i. */
    void
    annotationAt(std::size_t i, InsertAnnotation &out) const
    {
        out.flags = flags[i];
        out.depCount = depCount[i];
        out.depAddrMask = depAddrMask[i];
        // Only the used prefix: consumers never read depSeq past
        // depCount.
        for (unsigned d = 0; d < out.depCount; ++d)
            out.depSeq[d] = depSeqs[4 * i + d];
        out.barrierSeq = barrierSeq[i];
        out.bbId = bbId[i];
        out.elimOldWriter = elimOldWriter[i];
        out.expr = expr[i];
        out.sig = sig[i];
    }
};

/**
 * The streaming speculative front-end.  annotate() consumes records
 * in program order; reset() restarts for a new run.  One instance may
 * feed any number of back-ends — it never sees them.
 */
class SpecFrontEnd
{
  public:
    /** Only the front-end-relevant knobs of @p config matter (see
     *  MachineConfig::frontEndFingerprint()). */
    explicit SpecFrontEnd(const MachineConfig &config);
    ~SpecFrontEnd();    // out-of-line: StorePage is incomplete here

    /** Restart for a new trace (predictors reset, tables cleared). */
    void reset();

    /** Enable or disable the collapse-detection columns (expression
     *  sizes and signature fragments).  The constructor enables them
     *  iff the owning configuration collapses; a shared batched pass
     *  enables them when any consumer in its group does. */
    void setCollapseColumns(bool on) { stack_.setCollapseColumns(on); }

    /** Annotate the next record in program order. */
    void annotate(const TraceRecord &rec, InsertAnnotation &out);

    /** Annotate up to @p max records from @p trace into @p batch
     *  (cleared first).  Returns the number produced; 0 means the
     *  source is exhausted. */
    std::size_t fill(TraceSource &trace, FrontEndBatch &batch,
                     std::size_t max);

    /** Cumulative training activity since the last reset(). */
    const FrontEndTrainCounts &trainCounts() const { return trains_; }

    /** Records annotated since the last reset(). */
    std::uint64_t recordsAnnotated() const { return nextSeq_ - 1; }

    /** The speculation-module stack this front-end composed. */
    const spec::SpeculationStack &stack() const { return stack_; }

  private:
    struct StorePage;
    StorePage *storePage(std::uint64_t base, bool create);

    bool realCti_;              ///< realCtiPrediction

    std::unique_ptr<BranchPredictor> bpred_;
    ReturnAddressStack ras_;
    IndirectTargetBuffer itb_;

    /** Training activity; declared before stack_, whose modules hold
     *  a reference into it. */
    FrontEndTrainCounts trains_;
    /** The ordered speculation-module stack (collapse columns, memory
     *  arc, address/value prediction). */
    spec::SpeculationStack stack_;

    /** Rename state: last writer seq per register (0 = none). */
    std::uint64_t lastRegWriter_[kNumRegs] = {};
    std::uint64_t lastCCWriter_ = 0;
    std::uint64_t lastBarrier_ = 0;     ///< last mispredicted branch
    std::uint64_t lastStoreSeq_ = 0;    ///< youngest store, any address

    /** Perfect disambiguation: last store seq per byte, held in 4 KiB
     *  pages keyed by page base address, epoch-invalidated between
     *  runs (same layout the monolithic scheduler used). */
    static constexpr std::uint64_t kStorePageBytes = 4096;
    std::unordered_map<std::uint64_t,
                       std::unique_ptr<StorePage>> storePages_;
    std::uint64_t storeEpoch_ = 0;
    StorePage *storePageCache_ = nullptr;
    std::uint64_t storePageCacheBase_ = 1;  ///< 1 = nothing cached

    std::uint64_t nextSeq_ = 1;         ///< 0 reserved for "none"
    std::uint64_t nextBbId_ = 0;
};

} // namespace ddsc

#endif // DDSC_CORE_FRONTEND_HH
