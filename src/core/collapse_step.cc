#include "collapse_step.hh"

#include <bit>
#include <utility>

namespace ddsc
{

unsigned
collapseArcs(const CollapseRules &rules, const TraceRecord &rec,
             CollapseNode &consumer, CollapseNode *const *producers,
             std::uint8_t address_mask, unsigned num_arcs,
             CollapseStats &stats)
{
    const OpClass cls = rec.cls();

    // Gather the collapsible candidate arcs of this consumer.  An arc
    // is a candidate when it is a register (or cc) RAW arc to a
    // producer that is still unissued in the window, the producer is
    // ALU-executable, and the arc kind is absorbable by this consumer.
    struct Candidate
    {
        CollapseNode *producer;
        unsigned arcMask;       // consumer slots fed by this producer
        std::uint64_t distance;
    };
    Candidate candidates[2];
    unsigned num_candidates = 0;

    for (unsigned i = 0; i < num_arcs; ++i) {
        CollapseNode *producer = producers[i];
        if (producer == nullptr || !producer->eligible)
            continue;
        // In this ISA only conditional branches read the cc, and their
        // sole candidate arc is the cc arc (barrier producers are
        // branches, filtered above by producer eligibility).
        const bool is_cc = cls == OpClass::Branch;
        if (!CollapseRules::consumerEligible(
                rec, (address_mask >> i) & 1, is_cc))
            continue;

        // Prior-work restriction ablations (section 2 of the paper:
        // earlier proposals collapsed "only consecutive instructions
        // within a single basic block").
        if (rules.maxCollapseDistance != 0 &&
            consumer.seq - producer->seq > rules.maxCollapseDistance)
            continue;
        if (rules.sameBasicBlockOnly && producer->bbId != consumer.bbId)
            continue;

        // Group with an existing candidate for the same producer
        // (e.g. Rc = Rb + Rb).
        bool merged = false;
        for (unsigned c = 0; c < num_candidates; ++c) {
            if (candidates[c].producer == producer) {
                candidates[c].arcMask |= 1u << i;
                merged = true;
                break;
            }
        }
        if (merged)
            continue;
        if (num_candidates == 2)
            continue;       // at most two distinct producers matter
        candidates[num_candidates++] = {producer, 1u << i,
                                        consumer.seq - producer->seq};
    }

    if (num_candidates == 0)
        return 0;

    // Greedily absorb candidates while the compound expression stays
    // within the 4-1 device and the group within 3 instructions.
    unsigned collapsed = 0;
    CollapseCategory category = CollapseCategory::ThreeOne;
    std::uint64_t new_distances[2];
    unsigned num_new = 0;

    for (unsigned c = 0; c < num_candidates; ++c) {
        Candidate &cand = candidates[c];
        CollapseNode *producer = cand.producer;
        const unsigned group = consumer.expr.instructions +
            producer->expr.instructions;
        if (group > rules.maxInstructions)
            continue;
        const ExprSize combined = ExprSize::substitute(
            consumer.expr, producer->expr,
            static_cast<unsigned>(std::popcount(cand.arcMask)));
        CollapseCategory judged;
        if (!rules.judge(combined, judged))
            continue;

        // Commit this collapse.
        consumer.expr = combined;
        category = judged;
        collapsed |= cand.arcMask;
        new_distances[num_new++] = cand.distance;

        // Track group membership for the signature: the producer's own
        // absorbed members plus the producer itself.
        for (unsigned m = 0; m < producer->numMembers &&
                 consumer.numMembers < 2; ++m) {
            consumer.memberSigs[consumer.numMembers] =
                producer->memberSigs[m];
            consumer.memberSigLens[consumer.numMembers] =
                producer->memberSigLens[m];
            consumer.memberSeqs[consumer.numMembers] =
                producer->memberSeqs[m];
            ++consumer.numMembers;
        }
        if (consumer.numMembers < 2) {
            consumer.memberSigs[consumer.numMembers] = producer->sigFrag;
            consumer.memberSigLens[consumer.numMembers] =
                producer->sigLen;
            consumer.memberSeqs[consumer.numMembers] = producer->seq;
            ++consumer.numMembers;
        }

        ++producer->absorbedCount;
        if (!producer->inAnyGroup) {
            producer->inAnyGroup = true;
            stats.noteCollapsedInstruction();
        }
    }

    if (collapsed == 0)
        return 0;

    if (!consumer.inAnyGroup) {
        consumer.inAnyGroup = true;
        stats.noteCollapsedInstruction();
    }

    // Record the event: members oldest-first, then this consumer.
    // Two producers of a tree triple may have been absorbed in either
    // order, so sort by sequence number.
    if (consumer.numMembers == 2 &&
        consumer.memberSeqs[0] > consumer.memberSeqs[1]) {
        std::swap(consumer.memberSeqs[0], consumer.memberSeqs[1]);
        std::swap(consumer.memberSigs[0], consumer.memberSigs[1]);
        std::swap(consumer.memberSigLens[0], consumer.memberSigLens[1]);
    }
    CollapseEvent event;
    event.category = category;
    event.groupSize = consumer.numMembers + 1u;
    char sig[kMaxGroupSignature];
    char *p = sig;
    for (unsigned m = 0; m < consumer.numMembers; ++m) {
        std::memcpy(p, consumer.memberSigs[m].data(),
                    consumer.memberSigLens[m]);
        p += consumer.memberSigLens[m];
        *p++ = '-';
    }
    std::memcpy(p, consumer.sigFrag.data(), consumer.sigLen);
    p += consumer.sigLen;
    event.signature =
        std::string_view(sig, static_cast<std::size_t>(p - sig));
    event.distanceCount = num_new;
    for (unsigned i = 0; i < num_new; ++i)
        event.distances[i] = new_distances[i];
    stats.record(event);
    return collapsed;
}

} // namespace ddsc
