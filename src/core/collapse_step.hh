/**
 * @file
 * The d-collapsing step run when a consumer enters the window, shared
 * by both back-end engines.  Which arcs collapse depends only on the
 * rules and on which producers are still in the window, never on issue
 * timing, so the engines differ only in how they answer "still in the
 * window" (a window-ring lookup for the scan engine, issue cycle >=
 * entry cycle for placement).
 */

#ifndef DDSC_CORE_COLLAPSE_STEP_HH
#define DDSC_CORE_COLLAPSE_STEP_HH

#include <array>
#include <cstdint>
#include <cstring>

#include "collapse/collapse_stats.hh"
#include "collapse/rules.hh"
#include "trace/record.hh"

namespace ddsc
{

/**
 * Per-record collapsing bookkeeping.  Absorbed producers' signature
 * fragments and seqs are copied by value: a producer may issue while
 * its consumer still waits, yet its identity is needed if a later
 * consumer extends the group (chain triples).  Fragments come
 * precomputed from the front-end annotation, so group signatures are
 * pure concatenation.
 */
struct CollapseNode
{
    std::uint64_t seq = 0;
    /** Dynamic basic-block id (prior-work restriction ablation). */
    std::uint64_t bbId = 0;
    ExprSize expr;                      ///< effective (compound) size
    std::array<char, kMaxInstructionSignature> sigFrag;
    std::uint8_t sigLen = 0;            ///< own fragment (annotation)
    bool eligible = false;              ///< ALU-executable producer
    bool inAnyGroup = false;
    std::uint8_t numMembers = 0;        ///< producers absorbed (0..2)
    /** Times absorbed as a producer (node elimination reads it). */
    unsigned absorbedCount = 0;
    std::array<char, kMaxInstructionSignature> memberSigs[2];
    std::uint8_t memberSigLens[2] = {0, 0};
    std::uint64_t memberSeqs[2] = {0, 0};

    /** Start record @p s's node from its annotation columns. */
    void
    reset(std::uint64_t s, const TraceRecord &rec, std::uint64_t bb,
          const ExprSize &size, const char *sig, std::uint8_t sig_len)
    {
        seq = s;
        bbId = bb;
        expr = size;
        std::memcpy(sigFrag.data(), sig, kMaxInstructionSignature);
        sigLen = sig_len;
        eligible = CollapseRules::producerEligible(rec);
        inAnyGroup = false;
        numMembers = 0;
        absorbedCount = 0;
    }
};

/**
 * Collapse @p consumer's arcs at its window entry.  Arc i feeds the
 * address when bit i of @p address_mask is set; @p producers[i] is
 * the arc's producer node while that producer is still unissued in
 * the window, nullptr otherwise.  Updates both sides' group
 * bookkeeping, records the event in @p stats, and returns the mask of
 * collapsed arcs (whose constraint becomes the producer's readiness
 * instead of its value).
 */
unsigned collapseArcs(const CollapseRules &rules, const TraceRecord &rec,
                      CollapseNode &consumer,
                      CollapseNode *const *producers,
                      std::uint8_t address_mask, unsigned num_arcs,
                      CollapseStats &stats);

} // namespace ddsc

#endif // DDSC_CORE_COLLAPSE_STEP_HH
