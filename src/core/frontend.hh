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
 *    blocks eliminating it);
 *  - the four speculation mechanisms, called directly in a fixed
 *    order: the collapse-detection columns (expression size and
 *    signature fragment, read from CollapseColumnTable), then each
 *    load's memory arc (perfect disambiguation, or config F's
 *    predicted one), then address prediction (two-delta by default),
 *    then last-value or FCM/stride value prediction.  Only the
 *    predictors the configuration trains are built.
 *
 * fill() writes each record's annotation straight into the columns of
 * a FrontEndBatch (core/annotation.hh), the structure-of-arrays chunk
 * format the streaming pass emits, so N back-ends can replay a chunk
 * without re-decoding or re-predicting anything.  A width-W back-end
 * combines record i's columns with its own window state —
 * arc-vs-resolved decisions, collapsing, load classification, issue
 * timing — to reproduce bit-identical SchedStats to the historical
 * monolithic insert() path; tests/batched_equiv_test.cpp is the
 * oracle.  Crucially each predictor trains exactly once per record no
 * matter how many back-ends consume the pass (trainCounts() lets the
 * test suite pin that property).
 *
 * Configurations whose front-end knobs agree
 * (MachineConfig::frontEndFingerprint()) can share one pass: the
 * paper matrix needs two passes per workload (A/C/E train no load
 * predictors, B/D train the address predictor) to cover all 25 cells.
 */

#ifndef DDSC_CORE_FRONTEND_HH
#define DDSC_CORE_FRONTEND_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "addrpred/addrpred.hh"
#include "bpred/bpred.hh"
#include "bpred/cti_pred.hh"
#include "core/annotation.hh"
#include "core/config.hh"
#include "spec/fcm_stride_predictor.hh"
#include "spec/mem_dep_predictor.hh"
#include "trace/record.hh"
#include "trace/source.hh"
#include "vpred/vpred.hh"

namespace ddsc
{

/**
 * The streaming speculative front-end.  fill() consumes records in
 * program order; reset() restarts for a new run.  One instance may
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
    void setCollapseColumns(bool on) { collapseColumns_ = on; }

    /** Annotate up to @p max records from @p trace into @p batch,
     *  replacing its contents.  Returns the number produced; 0 means
     *  the source is exhausted. */
    std::size_t fill(TraceSource &trace, FrontEndBatch &batch,
                     std::size_t max);

    /** Cumulative training activity since the last reset(). */
    const FrontEndTrainCounts &trainCounts() const { return trains_; }

    /** Records annotated since the last reset(). */
    std::uint64_t recordsAnnotated() const { return nextSeq_ - 1; }

  private:
    struct StorePage;
    StorePage *storePage(std::uint64_t base, bool create);

    /** The dependence columns of the record being annotated. */
    struct Deps;
    /** Annotate batch.records[i], the next record in program order,
     *  into element i of @p batch's columns. */
    void annotate(FrontEndBatch &batch, std::size_t i);

    /** The most recent store that wrote one of @p rec's bytes (0 =
     *  none): perfect disambiguation. */
    std::uint64_t lastStoreTo(const TraceRecord &rec);
    /** The load's memory arc and, in config F, its predicted-
     *  dependence flags (trains the dependence predictor). */
    void addMemoryArc(const TraceRecord &rec, std::uint64_t seq,
                      std::uint16_t &flags, Deps &deps);

    bool realCti_;              ///< realCtiPrediction
    bool collapseColumns_;      ///< annotate expr and sig
    const CollapseColumnTable &collapseTable_;

    std::unique_ptr<BranchPredictor> bpred_;
    ReturnAddressStack ras_;
    IndirectTargetBuffer itb_;

    /** The load predictors, each built only when the configuration
     *  trains it (null otherwise). */
    std::unique_ptr<AddressPredictor> addrPred_;            ///< loadSpec Real
    std::unique_ptr<spec::MemDepPredictor> memDepPred_;     ///< config F
    std::unique_ptr<LoadValuePredictor> lastValuePred_;
    std::unique_ptr<spec::FcmStrideValuePredictor> fcmStridePred_;

    FrontEndTrainCounts trains_;

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

/**
 * The speculation steps @p config's front-end runs, in order, as one
 * line for `--list-configs` ("collapse(...) -> mem-dep(...) ->
 * addr-spec(...)"), built from the configuration alone.
 */
std::string speculationSummary(const MachineConfig &config);

} // namespace ddsc

#endif // DDSC_CORE_FRONTEND_HH
