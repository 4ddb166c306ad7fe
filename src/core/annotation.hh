/**
 * @file
 * Width-independent per-record annotations shared between the
 * speculative front-end (core/frontend.hh) and the window back-ends
 * (core/scheduler.hh, core/placement.hh).
 *
 * Everything in here is *pure program order*: an annotation depends
 * only on the trace prefix, never on window contents, issue timing, or
 * width, so one front-end pass can feed any number of back-end cells.
 * An annotation has one representation: record i's fields at index i
 * of a FrontEndBatch's columns.
 */

#ifndef DDSC_CORE_ANNOTATION_HH
#define DDSC_CORE_ANNOTATION_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "collapse/rules.hh"
#include "trace/record.hh"

namespace ddsc
{

/** Bits of the per-record flags column (FrontEndBatch::flags). */
namespace ann
{

/// This record is a conditional branch (counts toward condBranches).
constexpr std::uint16_t kFlagCondBranch = 1u << 0;
/// The branch predictor got it wrong (counts toward mispredicts).
constexpr std::uint16_t kFlagMispredict = 1u << 1;
/// A real-CTI prediction was made (counts toward ctiPredictions).
constexpr std::uint16_t kFlagCtiPrediction = 1u << 2;
/// ...and it was wrong (counts toward ctiMispredicts).
constexpr std::uint16_t kFlagCtiMispredict = 1u << 3;
/// Address-predictor confidence exceeded the threshold.
constexpr std::uint16_t kFlagPredUsable = 1u << 4;
/// ...and the predicted address was right.
constexpr std::uint16_t kFlagPredCorrect = 1u << 5;
/// Value-predictor confidence held.
constexpr std::uint16_t kFlagVpredUsable = 1u << 6;
/// ...and the predicted value was right.
constexpr std::uint16_t kFlagVpredCorrect = 1u << 7;
/// elimOldWriter still holds the live cc value: not eliminable.
constexpr std::uint16_t kFlagElimCcBlocked = 1u << 8;
/// This load really depends on an earlier store (perfect
/// disambiguation found one); when set, the memory arc is the *last*
/// of the record's deps.
constexpr std::uint16_t kFlagMemDepActual = 1u << 9;
/// The memory-dependence predictor predicted "dependent".
constexpr std::uint16_t kFlagMemDepPredicted = 1u << 10;
/// Predicted dependent with no actual dependence: the last dep is a
/// conservative arc to the most recent store.
constexpr std::uint16_t kFlagMemDepFalse = 1u << 11;

} // namespace ann

/** Default records per streamed chunk (FrontEndBatch capacity). */
constexpr std::size_t kBatchedChunk = 16384;

/**
 * One structure-of-arrays chunk of annotated records: element i of
 * every column belongs to records[i] (depSeqs holds four slots per
 * record).  SpecFrontEnd::fill() sizes the columns on a batch's first
 * fill (and grows them only for a larger chunk), writes record i's
 * fields by index, and keeps the columns across fills, so a streaming
 * pass reuses one chunk buffer; size() is the number of records the
 * last fill wrote, and the columns may be longer.
 */
struct FrontEndBatch
{
    std::vector<TraceRecord> records;
    std::vector<std::uint16_t> flags;       ///< ann::kFlag* bits
    std::vector<std::uint8_t> depCount;
    /** Bit d set: depSeqs[4i + d] feeds the address. */
    std::vector<std::uint8_t> depAddrMask;
    /** RAW producer seqs in canonical arc order (data, address, cc,
     *  memory), zeros dropped: record i's are depSeqs[4i] up to
     *  depSeqs[4i + depCount[i]); the slots past them are stale. */
    std::vector<std::uint64_t> depSeqs;
    /** Last mispredicted branch older than the record (0 = none). */
    std::vector<std::uint64_t> barrierSeq;
    /** Dynamic basic-block id. */
    std::vector<std::uint64_t> bbId;
    /** Previous writer of the record's destination register (0 =
     *  none): the node-elimination candidate it overwrites. */
    std::vector<std::uint64_t> elimOldWriter;
    /** Collapse-rule detection, written only when the front-end has
     *  collapse columns enabled (any consumer collapses): the record's
     *  compound-expression size and its packed signature fragment
     *  (packInstructionSignature).  Both are pure functions of the
     *  record, so one front-end pass serves every collapsing
     *  back-end. */
    std::vector<ExprSize> expr;
    std::vector<std::uint64_t> sig;

    std::size_t size() const { return size_; }

  private:
    friend class SpecFrontEnd;

    /** Grow every column to hold at least @p n records. */
    void
    sizeColumns(std::size_t n)
    {
        if (records.size() >= n)
            return;
        records.resize(n);
        flags.resize(n);
        depCount.resize(n);
        depAddrMask.resize(n);
        depSeqs.resize(4 * n);
        barrierSeq.resize(n);
        bbId.resize(n);
        elimOldWriter.resize(n);
        expr.resize(n);
        sig.resize(n);
    }

    std::size_t size_ = 0;
};

/** How many times each predictor structure was trained (the
 *  train-exactly-once-per-record property test reads these). */
struct FrontEndTrainCounts
{
    std::uint64_t branch = 0;   ///< CombiningPredictor updates
    std::uint64_t address = 0;  ///< AddressPredictor updates
    std::uint64_t value = 0;    ///< LoadValuePredictor updates
    std::uint64_t cti = 0;      ///< RAS/ITB operations
    std::uint64_t memdep = 0;   ///< memory-dependence predictor updates
};

} // namespace ddsc

#endif // DDSC_CORE_ANNOTATION_HH
