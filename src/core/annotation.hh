/**
 * @file
 * Width-independent per-record annotations shared between the
 * speculative front-end (core/frontend.hh) and the window back-ends
 * (core/scheduler.hh, core/placement.hh).
 *
 * Everything in here is *pure program order*: an annotation depends
 * only on the trace prefix, never on window contents, issue timing, or
 * width, so one front-end pass can feed any number of back-end cells.
 */

#ifndef DDSC_CORE_ANNOTATION_HH
#define DDSC_CORE_ANNOTATION_HH

#include <cstdint>

#include "collapse/rules.hh"
#include "support/logging.hh"

namespace ddsc
{

/** Width-independent annotation of one dynamic instruction. */
struct InsertAnnotation
{
    /** Flag bits (see kFlag* below). */
    std::uint16_t flags = 0;
    /** RAW producer seqs in canonical arc order (data, address, cc,
     *  memory); zeros already dropped.  kFlagDepAddr marks address
     *  arcs. */
    std::uint8_t depCount = 0;
    std::uint8_t depAddrMask = 0;   ///< bit i: deps[i] feeds the address
    std::uint64_t depSeq[4] = {0, 0, 0, 0};
    /** Last mispredicted branch older than this record (0 = none). */
    std::uint64_t barrierSeq = 0;
    /** Dynamic basic-block id. */
    std::uint64_t bbId = 0;
    /** Previous writer of this record's destination register (0 =
     *  none); the node-elimination candidate this record overwrites. */
    std::uint64_t elimOldWriter = 0;

    /** Collapse-rule detection, computed only when the front-end has
     *  collapse columns enabled (any consumer collapses): the
     *  record's compound-expression size and its paper signature
     *  fragment, packed into one word (packInstructionSignature).
     *  Both are pure functions of the record, so one front-end pass
     *  serves every collapsing back-end. */
    ExprSize expr;
    std::uint64_t sig = 0;

    /// This record is a conditional branch (counts toward condBranches).
    static constexpr std::uint16_t kFlagCondBranch = 1u << 0;
    /// The branch predictor got it wrong (counts toward mispredicts).
    static constexpr std::uint16_t kFlagMispredict = 1u << 1;
    /// A real-CTI prediction was made (counts toward ctiPredictions).
    static constexpr std::uint16_t kFlagCtiPrediction = 1u << 2;
    /// ...and it was wrong (counts toward ctiMispredicts).
    static constexpr std::uint16_t kFlagCtiMispredict = 1u << 3;
    /// Address-predictor confidence exceeded the threshold.
    static constexpr std::uint16_t kFlagPredUsable = 1u << 4;
    /// ...and the predicted address was right.
    static constexpr std::uint16_t kFlagPredCorrect = 1u << 5;
    /// Value-predictor confidence held.
    static constexpr std::uint16_t kFlagVpredUsable = 1u << 6;
    /// ...and the predicted value was right.
    static constexpr std::uint16_t kFlagVpredCorrect = 1u << 7;
    /// elimOldWriter still holds the live cc value: not eliminable.
    static constexpr std::uint16_t kFlagElimCcBlocked = 1u << 8;
    /// This load really depends on an earlier store (perfect
    /// disambiguation found one); when set, the memory arc is the
    /// *last* entry of depSeq.
    static constexpr std::uint16_t kFlagMemDepActual = 1u << 9;
    /// The memory-dependence predictor predicted "dependent".
    static constexpr std::uint16_t kFlagMemDepPredicted = 1u << 10;
    /// Predicted dependent with no actual dependence: the last entry
    /// of depSeq is a conservative arc to the most recent store.
    static constexpr std::uint16_t kFlagMemDepFalse = 1u << 11;

    /** Append a RAW producer arc in canonical order (no-op for seq 0,
     *  matching the back-end's treatment of "no producer"). */
    void
    addDep(std::uint64_t producer_seq, bool address)
    {
        if (producer_seq == 0)
            return;
        ddsc_assert(depCount < 4, "annotation dep overflow");
        if (address)
            depAddrMask |= static_cast<std::uint8_t>(1u << depCount);
        depSeq[depCount++] = producer_seq;
    }
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
