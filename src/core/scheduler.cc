#include "scheduler.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

#include "support/logging.hh"

namespace ddsc
{

namespace
{

std::uint64_t
ringSize(std::uint64_t wanted)
{
    return std::bit_ceil(std::max<std::uint64_t>(wanted, 64));
}

} // anonymous namespace

LimitScheduler::LimitScheduler(const MachineConfig &config)
    : config_(config), frontEnd_(config)
{
    ddsc_assert(config.issueWidth >= 1, "issue width must be positive");
    ddsc_assert(config.windowSize >= config.issueWidth,
                "window smaller than issue width");
    // Live entries never exceed windowSize, but the live *span* can:
    // younger generations churn past a stalled oldest entry.  Start
    // with headroom and let growWindow() handle the pathological case.
    slots_.resize(ringSize(8 * config.windowSize));
    slotMask_ = slots_.size() - 1;
    readyBits_.resize(slots_.size() / 64);
    // Retired producers constrain consumers for at most the maximum
    // latency after issue; size for that churn plus the window span.
    retired_.resize(ringSize(4 * config.windowSize));
    retiredMask_ = retired_.size() - 1;
}

const LimitScheduler::Entry *
LimitScheduler::findWindow(std::uint64_t seq) const
{
    const Entry &slot = slots_[seq & slotMask_];
    return slot.live && slot.seq == seq ? &slot : nullptr;
}

LimitScheduler::Entry *
LimitScheduler::findWindow(std::uint64_t seq)
{
    Entry &slot = slots_[seq & slotMask_];
    return slot.live && slot.seq == seq ? &slot : nullptr;
}

void
LimitScheduler::growWindow()
{
    // Pick the first doubling that fits the whole live span: seqs in
    // [oldestSeq_, nextSeq_) are distinct mod size once size >= span.
    const std::uint64_t span = nextSeq_ - oldestSeq_;
    std::uint64_t size = (slotMask_ + 1) * 2;
    while (size < span)
        size *= 2;
    std::vector<Entry> grown(size);
    std::vector<std::uint64_t> grown_bits(size / 64);
    const std::uint64_t mask = size - 1;
    for (std::uint64_t seq = oldestSeq_; seq < nextSeq_; ++seq) {
        if (const Entry *entry = findWindow(seq)) {
            grown[seq & mask] = *entry;
            if (entry->ready && !entry->issued)
                grown_bits[(seq & mask) >> 6] |=
                    std::uint64_t{1} << (seq & 63);
        }
    }
    slots_ = std::move(grown);
    readyBits_ = std::move(grown_bits);
    slotMask_ = mask;
}

std::uint64_t
LimitScheduler::retiredValueTime(std::uint64_t seq) const
{
    const Retired &slot = retired_[seq & retiredMask_];
    return slot.seq == seq ? slot.valueTime : 0;
}

void
LimitScheduler::recordRetired(std::uint64_t seq, std::uint64_t value_time)
{
    Retired *slot = &retired_[seq & retiredMask_];
    if (slot->seq != 0 && slot->seq != seq && slot->valueTime > cycle_) {
        // The occupant can still constrain a consumer: overwriting it
        // would turn "wait until valueTime" into "value available".
        growRetired();
        slot = &retired_[seq & retiredMask_];
    }
    *slot = {seq, value_time};
}

void
LimitScheduler::growRetired()
{
    std::uint64_t size = (retiredMask_ + 1) * 2;
    for (;;) {
        std::vector<Retired> grown(size);
        const std::uint64_t mask = size - 1;
        bool collision = false;
        for (const Retired &slot : retired_) {
            if (slot.seq == 0 || slot.valueTime <= cycle_)
                continue;       // resolved: dropping it is the same
            Retired &dst = grown[slot.seq & mask];
            if (dst.seq != 0) {
                collision = true;
                break;
            }
            dst = slot;
        }
        if (!collision) {
            retired_ = std::move(grown);
            retiredMask_ = mask;
            return;
        }
        size *= 2;
    }
}

void
LimitScheduler::WakeWheel::clear()
{
    for (std::vector<std::uint64_t> &bucket : buckets)
        bucket.clear();     // keeps capacity for the next run
    far = DueHeap();
}

// --- exact satisfaction checks ----------------------------------------

bool
LimitScheduler::arcSatisfied(const DepArc &arc, std::uint64_t cycle) const
{
    if (const Entry *producer = findWindow(arc.producerSeq)) {
        if (producer->issued) {
            if (arc.collapsed)
                return true;
            return cycle >= producer->valueTime;
        }
        if (arc.collapsed) {
            // Collapsed arc: the compound operation needs only the
            // producer's own sources, not its result.
            return sourcesSatisfied(*producer, cycle);
        }
        // Value arc to an unissued producer: available only if a
        // correctly-speculated load already delivered its data.
        return producer->specValueSet && cycle >= producer->valueTime;
    }
    // Producer issued and left the window.
    if (arc.collapsed)
        return true;
    const std::uint64_t value_time = retiredValueTime(arc.producerSeq);
    return value_time == 0 || cycle >= value_time;
}

bool
LimitScheduler::barrierSatisfiedNow(const Entry &entry,
                                    std::uint64_t cycle) const
{
    if (entry.barrierSeq == 0)
        return true;
    if (const Entry *branch = findWindow(entry.barrierSeq))
        return branch->issued && cycle >= branch->valueTime;
    const std::uint64_t value_time = retiredValueTime(entry.barrierSeq);
    return value_time == 0 || cycle >= value_time;
}

bool
LimitScheduler::sourcesSatisfied(const Entry &entry,
                                 std::uint64_t cycle) const
{
    if (entry.ready || entry.issued)
        return true;        // readiness is monotone
    if (cycle < entry.fixedReady)
        return false;
    if (!barrierSatisfiedNow(entry, cycle))
        return false;
    for (unsigned i = 0; i < entry.numArcs; ++i) {
        if (!arcSatisfied(entry.arcs[i], cycle))
            return false;
    }
    return true;
}

bool
LimitScheduler::addrArcsSatisfied(const Entry &entry,
                                  std::uint64_t cycle) const
{
    for (unsigned i = 0; i < entry.numArcs; ++i) {
        if (entry.arcs[i].address && !arcSatisfied(entry.arcs[i], cycle))
            return false;
    }
    return true;
}

bool
LimitScheduler::nonAddrSatisfied(const Entry &entry,
                                 std::uint64_t cycle) const
{
    if (cycle < entry.fixedReady || !barrierSatisfiedNow(entry, cycle))
        return false;
    for (unsigned i = 0; i < entry.numArcs; ++i) {
        if (!entry.arcs[i].address && !arcSatisfied(entry.arcs[i], cycle))
            return false;
    }
    return true;
}

// --- window construction ------------------------------------------------

void
LimitScheduler::addArc(Entry &entry, std::uint64_t producer_seq,
                       bool address)
{
    if (producer_seq == 0)
        return;
    if (findWindow(producer_seq) != nullptr) {
        ddsc_assert(entry.numArcs < 4, "arc overflow");
        entry.arcs[entry.numArcs++] = {producer_seq, false, address};
        return;
    }
    const std::uint64_t value_time = retiredValueTime(producer_seq);
    if (value_time == 0)
        return;     // long retired; no constraint
    if (address) {
        // Keep address constraints as arcs even when resolved, so the
        // ready/not-ready load classification can separate them from
        // the other constraints.
        ddsc_assert(entry.numArcs < 4, "arc overflow");
        entry.arcs[entry.numArcs++] = {producer_seq, false, true};
    } else {
        entry.fixedReady = std::max(entry.fixedReady, value_time);
    }
}

void
LimitScheduler::insert(const TraceRecord &rec)
{
    // The naive engine's per-record insert: the private front-end
    // computes the program-order annotation, the shared back-end half
    // builds the window entry from it.  The wake-list engine calls
    // insertAnnotated() with the same annotations from a batched
    // SpecFrontEnd pass, so both engines build identical windows.
    InsertAnnotation ann;
    frontEnd_.annotate(rec, ann);
    insertAnnotated(rec, ann);
}

void
LimitScheduler::insertAnnotated(const TraceRecord &rec,
                                const InsertAnnotation &ann)
{
    // Every record of every engine path funnels through here, so one
    // poll point bounds the cancellation latency for all of them.
    pollCancel();
    const std::uint64_t seq = nextSeq_++;
    Entry *slot = &slots_[seq & slotMask_];
    if (slot->live) {
        growWindow();
        slot = &slots_[seq & slotMask_];
    }
    // Reconstruct the slot in place rather than `*slot = Entry{}`:
    // only fields a previous tenant can leave behind need clearing
    // (arcs, member records, and wake links are guarded by their
    // counts/heads), so slot reuse writes ~50 bytes instead of the
    // whole ~330-byte Entry.  Every other field is assigned below.
    Entry &entry = *slot;
    entry.numArcs = 0;
    entry.issued = false;
    entry.ready = false;
    entry.valueTime = 0;
    entry.specValueSet = false;
    entry.loadClassified = false;
    entry.loadClass = LoadClass::Ready;
    entry.numMembers = 0;
    entry.inAnyGroup = false;
    entry.absorbedCount = 0;
    entry.hasValueReader = false;
    entry.eliminated = false;
    entry.wakeHead = 0;
    entry.wakeNextPromote = 0;
    entry.wakeNextClassify = 0;
    entry.memSpecSeq = 0;
    entry.memSquashed = false;
    entry.rec = rec;
    entry.seq = seq;
    entry.live = true;
    ++windowCount_;
    entry.fixedReady = cycle_;      // issuable from the insertion cycle
    entry.expr = ann.expr;          // front-end collapse columns
    entry.sigFrag = ann.sig;
    entry.sigLen = ann.sigLen;
    entry.isLoad = rec.isLoad();
    entry.bbId = ann.bbId;

    ++stats_.instructions;

    // --- control outcomes (predicted by the front-end) ---------------
    if (ann.flags & InsertAnnotation::kFlagCondBranch) {
        ++stats_.condBranches;
        if (ann.flags & InsertAnnotation::kFlagMispredict)
            ++stats_.mispredicts;
    }
    if (ann.flags & InsertAnnotation::kFlagCtiPrediction) {
        ++stats_.ctiPredictions;
        if (ann.flags & InsertAnnotation::kFlagCtiMispredict)
            ++stats_.ctiMispredicts;
    }

    // Younger instructions cannot issue before or during the cycle a
    // mispredicted branch issues.
    entry.barrierSeq = ann.barrierSeq;

    // --- RAW arcs (register, cc, memory — annotated in order) --------
    unsigned num_deps = ann.depCount;
    if (config_.memDep == MemDepMode::Predicted &&
        (ann.flags & InsertAnnotation::kFlagMemDepActual) &&
        !(ann.flags & InsertAnnotation::kFlagMemDepPredicted)) {
        // Speculated independent: the true producing store (always the
        // last annotated dep) travels out-of-band instead of as an
        // arc, so readiness and classification ignore it; the issue
        // stage detects the violation, restores the arc, and charges
        // the squash at the re-issue (divertViolatedLoad).
        entry.memSpecSeq = ann.depSeq[num_deps - 1];
        --num_deps;
    }
    if (ann.flags & InsertAnnotation::kFlagMemDepPredicted)
        ++stats_.memDepPredictedDeps;
    if (ann.flags & InsertAnnotation::kFlagMemDepFalse)
        ++stats_.memDepFalseDeps;
    for (unsigned i = 0; i < num_deps; ++i)
        addArc(entry, ann.depSeq[i], (ann.depAddrMask >> i) & 1);

    // --- d-collapsing --------------------------------------------------
    if (config_.collapsing)
        tryCollapse(entry);

    // --- load-speculation outcomes (tables trained up front) ---------
    entry.predUsable = ann.flags & InsertAnnotation::kFlagPredUsable;
    entry.predCorrect = ann.flags & InsertAnnotation::kFlagPredCorrect;
    entry.vpredUsable = ann.flags & InsertAnnotation::kFlagVpredUsable;
    entry.vpredCorrect = ann.flags & InsertAnnotation::kFlagVpredCorrect;

    // --- node elimination bookkeeping ---------------------------------
    if (config_.nodeElimination) {
        noteValueReaders(entry);
        maybeEliminate(
            ann.elimOldWriter,
            ann.flags & InsertAnnotation::kFlagElimCcBlocked);
    }

    const bool classify = config_.loadSpec != LoadSpecMode::None ||
        config_.loadValuePrediction;
    if (wakeMode_) {
        // Seed the wake-list engine with the entry's first evaluation;
        // the naive engine rescans the window every cycle instead, so
        // queueing for it would only accumulate.
        pending_.push(entry.fixedReady, cycle_, entry.seq);
        if (entry.isLoad && classify)
            classifyQueue_.push(entry.fixedReady, cycle_, entry.seq);
    }
    if (entry.isLoad && !classify)
        ++stats_.loads;
}

void
LimitScheduler::tryCollapse(Entry &entry)
{
    const TraceRecord &rec = entry.rec;
    const OpClass cls = rec.cls();

    // Gather the collapsible candidate arcs of this consumer.  An arc
    // is a candidate when it is a register (or cc) RAW arc to a
    // producer that is still unissued in the window, the producer is
    // ALU-executable, and the arc kind is absorbable by this consumer.
    struct Candidate
    {
        Entry *producer;
        unsigned slots;         // consumer slots fed by this producer
        unsigned arcIndices[2];
        std::uint64_t distance;
    };
    Candidate candidates[2];
    unsigned num_candidates = 0;

    for (unsigned i = 0; i < entry.numArcs; ++i) {
        DepArc &arc = entry.arcs[i];
        if (arc.collapsed)
            continue;
        Entry *producer = findWindow(arc.producerSeq);
        if (producer == nullptr)
            continue;                       // already issued
        if (producer->issued)
            continue;
        if (!CollapseRules::producerEligible(producer->rec))
            continue;
        // In this ISA only conditional branches read the cc, and their
        // sole candidate arc is the cc arc (barrier producers are
        // branches, filtered above by producer eligibility).
        const bool is_cc = cls == OpClass::Branch;
        if (!CollapseRules::consumerEligible(rec, arc.address, is_cc))
            continue;

        // Prior-work restriction ablations (section 2 of the paper:
        // earlier proposals collapsed "only consecutive instructions
        // within a single basic block").
        if (config_.rules.maxCollapseDistance != 0 &&
            entry.seq - producer->seq > config_.rules.maxCollapseDistance)
            continue;
        if (config_.rules.sameBasicBlockOnly &&
            producer->bbId != entry.bbId)
            continue;

        // Group with an existing candidate for the same producer
        // (e.g. Rc = Rb + Rb).
        bool merged = false;
        for (unsigned c = 0; c < num_candidates; ++c) {
            if (candidates[c].producer == producer) {
                candidates[c].arcIndices[candidates[c].slots] = i;
                ++candidates[c].slots;
                merged = true;
                break;
            }
        }
        if (merged)
            continue;
        if (num_candidates == 2)
            continue;       // at most two distinct producers matter
        candidates[num_candidates++] = {producer, 1, {i, 0},
                                        entry.seq - producer->seq};
    }

    if (num_candidates == 0)
        return;

    // Greedily absorb candidates while the compound expression stays
    // within the 4-1 device and the group within 3 instructions.
    bool any = false;
    CollapseCategory category = CollapseCategory::ThreeOne;
    std::uint64_t new_distances[2];
    unsigned num_new = 0;

    for (unsigned c = 0; c < num_candidates; ++c) {
        Candidate &cand = candidates[c];
        Entry *producer = cand.producer;
        const unsigned group = entry.expr.instructions +
            producer->expr.instructions;
        if (group > config_.rules.maxInstructions)
            continue;
        const ExprSize combined = ExprSize::substitute(
            entry.expr, producer->expr, cand.slots);
        CollapseCategory judged;
        if (!config_.rules.judge(combined, judged))
            continue;

        // Commit this collapse.
        entry.expr = combined;
        category = judged;
        any = true;
        for (unsigned s = 0; s < cand.slots; ++s)
            entry.arcs[cand.arcIndices[s]].collapsed = true;
        new_distances[num_new++] = cand.distance;

        // Track group membership for the signature: the producer's own
        // absorbed members plus the producer itself.
        for (unsigned m = 0; m < producer->numMembers &&
                 entry.numMembers < 2; ++m) {
            entry.memberSigs[entry.numMembers] = producer->memberSigs[m];
            entry.memberSigLens[entry.numMembers] =
                producer->memberSigLens[m];
            entry.memberSeqs[entry.numMembers] = producer->memberSeqs[m];
            ++entry.numMembers;
        }
        if (entry.numMembers < 2) {
            entry.memberSigs[entry.numMembers] = producer->sigFrag;
            entry.memberSigLens[entry.numMembers] = producer->sigLen;
            entry.memberSeqs[entry.numMembers] = producer->seq;
            ++entry.numMembers;
        }

        ++producer->absorbedCount;
        if (!producer->inAnyGroup) {
            producer->inAnyGroup = true;
            stats_.collapse.noteCollapsedInstruction();
        }
    }

    if (!any)
        return;

    if (!entry.inAnyGroup) {
        entry.inAnyGroup = true;
        stats_.collapse.noteCollapsedInstruction();
    }

    // Record the event: members oldest-first, then this consumer.
    // Two producers of a tree triple may have been absorbed in either
    // order, so sort by sequence number.
    if (entry.numMembers == 2 &&
        entry.memberSeqs[0] > entry.memberSeqs[1]) {
        std::swap(entry.memberSeqs[0], entry.memberSeqs[1]);
        std::swap(entry.memberSigs[0], entry.memberSigs[1]);
        std::swap(entry.memberSigLens[0], entry.memberSigLens[1]);
    }
    CollapseEvent event;
    event.category = category;
    event.groupSize = entry.numMembers + 1;
    char sig[kMaxGroupSignature];
    char *p = sig;
    for (unsigned m = 0; m < entry.numMembers; ++m) {
        std::memcpy(p, entry.memberSigs[m].data(),
                    entry.memberSigLens[m]);
        p += entry.memberSigLens[m];
        *p++ = '-';
    }
    std::memcpy(p, entry.sigFrag.data(), entry.sigLen);
    p += entry.sigLen;
    event.signature =
        std::string_view(sig, static_cast<std::size_t>(p - sig));
    event.distanceCount = num_new;
    for (unsigned i = 0; i < num_new; ++i)
        event.distances[i] = new_distances[i];
    stats_.collapse.record(event);
}

void
LimitScheduler::removeFromWindow(std::uint64_t seq)
{
    Entry *entry = findWindow(seq);
    ddsc_assert(entry != nullptr, "removing unknown entry");
    // Waiters are drained before an entry can leave: at markReady for
    // collapsed arcs, at issue / speculative delivery for value arcs
    // and barriers; eliminated entries can have no value readers.
    ddsc_assert(!wakeMode_ || entry->wakeHead == 0,
                "removing entry with waiters");
    entry->live = false;
    --windowCount_;
    std::uint64_t &word = readyBits_[(seq & slotMask_) >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (seq & 63);
    if (word & bit) {
        word &= ~bit;
        --readyCount_;
    }
    while (oldestSeq_ < nextSeq_ && findWindow(oldestSeq_) == nullptr)
        ++oldestSeq_;
}

void
LimitScheduler::markReady(Entry &entry)
{
    entry.ready = true;
    readyBits_[(entry.seq & slotMask_) >> 6] |=
        std::uint64_t{1} << (entry.seq & 63);
    ++readyCount_;
    readySeqHint_ = std::min(readySeqHint_, entry.seq);
    // Batched engine: source readiness is a wake event for collapsed
    // consumers (their arcs depend on this entry's sources, not its
    // value) and for any other waiter that must now re-derive its
    // schedule.
    if (wakeMode_ && entry.wakeHead != 0)
        wakeNow(entry);
}

unsigned
LimitScheduler::issueReady(std::uint64_t &last_issue_cycle,
                           bool &any_issue)
{
    // Oldest ready first: walk the bitmap from the oldest live seq.
    // Ready bits below oldestSeq_ cannot exist (removeFromWindow
    // clears them) and seqs are dense, so 64-aligned seq blocks map to
    // whole ring words.  Eliminated entries leave for free, but only
    // while issue slots remain this cycle (matching the historical
    // pop-loop condition).
    // readySeqHint_ lower-bounds every set bit, so the scan skips the
    // (often long, at wide windows) dead prefix between a stalled
    // oldest entry and the young ready ones in O(1) instead of
    // O(span/64) words per cycle.  Every bit at a seq the scan passes
    // is consumed (issued or eliminated), which keeps the hint exact
    // on exit; markReady() lowers it again as entries wake.
    unsigned issued = 0;
    for (std::uint64_t base =
             std::max(oldestSeq_, readySeqHint_) & ~std::uint64_t{63};
         base < nextSeq_ && readyCount_ != 0; base += 64) {
        std::uint64_t word = readyBits_[(base & slotMask_) >> 6];
        // Positions below oldestSeq_ can alias the ready bits of seqs
        // one ring generation younger when the live span approaches
        // the ring size; mask them off (the aliased seqs are
        // rediscovered at their own word).  Issuing the oldest entry
        // can move oldestSeq_ past whole words mid-scan, and a shift
        // by 64 or more is undefined: skip such words outright.
        if (base < oldestSeq_) {
            if (oldestSeq_ - base >= 64)
                continue;
            word &= ~std::uint64_t{0} << (oldestSeq_ - base);
        }
        while (word != 0) {
            if (issued == config_.issueWidth) {
                readySeqHint_ =
                    base + static_cast<unsigned>(std::countr_zero(word));
                return issued;
            }
            const std::uint64_t seq =
                base + static_cast<unsigned>(std::countr_zero(word));
            word &= word - 1;
            Entry &entry = slots_[seq & slotMask_];
            if (entry.eliminated) {
                removeFromWindow(seq);
                continue;
            }
            if (entry.memSpecSeq != 0 &&
                !arcSatisfied(DepArc{entry.memSpecSeq, false, false},
                              cycle_) &&
                !divertViolatedLoad(entry))
                continue;   // squashed: waits for the restored arc
            issue(entry, cycle_);
            last_issue_cycle = cycle_;
            any_issue = true;
            ++issued;
            removeFromWindow(seq);
        }
    }
    readySeqHint_ = readyCount_ == 0 ? nextSeq_ : oldestSeq_;
    return issued;
}

void
LimitScheduler::noteValueReaders(const Entry &entry)
{
    // Any arc that survived collapsing is a real use of the producer's
    // result; such producers must execute.
    for (unsigned i = 0; i < entry.numArcs; ++i) {
        if (entry.arcs[i].collapsed)
            continue;
        if (Entry *producer = findWindow(entry.arcs[i].producerSeq))
            producer->hasValueReader = true;
    }
}

void
LimitScheduler::maybeEliminate(std::uint64_t old_seq, bool cc_blocked)
{
    if (old_seq == 0)
        return;
    Entry *old_entry = findWindow(old_seq);
    if (old_entry == nullptr)
        return;             // already issued
    if (old_entry->issued || old_entry->eliminated)
        return;
    // Eliminable: absorbed by at least one consumer, no surviving
    // value reader, and (for cc writers) the cc already overwritten.
    if (old_entry->absorbedCount == 0 || old_entry->hasValueReader)
        return;
    if (cc_blocked)
        return;             // a future branch may still read the cc
    old_entry->eliminated = true;
    ++stats_.eliminatedInstructions;
}

// --- dynamic behaviour ----------------------------------------------------

void
LimitScheduler::classifyLoad(Entry &entry, std::uint64_t cycle)
{
    // First cycle at which all non-address constraints hold.
    entry.loadClassified = true;
    const bool addr_ready = addrArcsSatisfied(entry, cycle);
    if (addr_ready) {
        entry.loadClass = LoadClass::Ready;
    } else if (config_.loadSpec == LoadSpecMode::Ideal ||
               (entry.predUsable && entry.predCorrect)) {
        entry.loadClass = LoadClass::PredictedCorrect;
        // Data flows to dependents from the speculative access.
        entry.valueTime = cycle + opLatency(entry.rec.op);
        entry.specValueSet = true;
    } else if (entry.predUsable) {
        entry.loadClass = LoadClass::PredictedIncorrect;
    } else {
        entry.loadClass = LoadClass::NotPredicted;
    }

    // Predicted-independent load whose true producing store has not
    // delivered yet: the speculative access would read memory before
    // the store writes it, so its data cannot stand — suppress the
    // delivery (dependents wait for the load's own issue, where the
    // violation is detected and charged).  A correct *value*
    // prediction below is exempt: the predicted value verifies against
    // post-store memory, so it is architecturally final regardless of
    // store timing.
    if (entry.specValueSet && entry.memSpecSeq != 0 &&
        !arcSatisfied(DepArc{entry.memSpecSeq, false, false}, cycle))
        entry.specValueSet = false;

    // Value-prediction extension: a confident correct value prediction
    // beats even a correct address prediction -- dependents get the
    // value one cycle after the load's other constraints hold, without
    // the memory access.  Wrong predictions fall back to normal
    // timing (the verifying access supplies the real value).
    if (config_.loadValuePrediction && entry.vpredUsable) {
        if (entry.vpredCorrect) {
            const std::uint64_t vp_time = cycle + 1;
            if (!entry.specValueSet || vp_time < entry.valueTime) {
                entry.valueTime = vp_time;
                entry.specValueSet = true;
            }
            ++stats_.valuePredHits;
        } else {
            ++stats_.valuePredWrong;
        }
    }

    ++stats_.loads;
    ++stats_.loadClasses[static_cast<unsigned>(entry.loadClass)];

    // Batched engine: a speculative value delivery fixes the arrival
    // cycle for value-arc waiters just like an issue would.
    if (wakeMode_ && entry.specValueSet && entry.wakeHead != 0)
        wakeAt(entry, entry.valueTime);
}

bool
LimitScheduler::divertViolatedLoad(Entry &entry)
{
    // Memory-dependence violation: this load was speculated
    // independent and reached issue before the store it truly depends
    // on could have delivered its value.
    ++stats_.memDepSquashes;
    const std::uint64_t store_seq = entry.memSpecSeq;
    entry.memSpecSeq = 0;       // one squash per load
    if (entry.vpredUsable && entry.vpredCorrect && entry.specValueSet) {
        // A verified value prediction already supplied the
        // architecturally final value — the trace records post-store
        // memory — so the violation costs nothing: the re-execution
        // is off the critical path.
        return true;
    }
    // Squash and re-issue: the correct value cannot exist before the
    // store produces it, so the load goes back to waiting on the
    // restored dependence and issues again once that arc is satisfied,
    // paying the squash penalty on top of its access latency then.
    entry.specValueSet = false;
    entry.memSquashed = true;
    addArc(entry, store_seq, /*address=*/false);
    entry.ready = false;
    readyBits_[(entry.seq & slotMask_) >> 6] &=
        ~(std::uint64_t{1} << (entry.seq & 63));
    --readyCount_;
    // Re-register with the wake-list machinery (the naive engine
    // rescans every unready entry each cycle; nothing to do).
    if (wakeMode_) {
        const WakeCheck c = wakeCheckAll(entry, cycle_);
        ddsc_assert(!c.ok, "violated load immediately re-ready");
        if (c.blocker != 0)
            registerWaiter(c.blocker, entry, /*classify_kind=*/false);
        else
            pending_.push(c.due, cycle_, entry.seq);
    }
    return false;
}

void
LimitScheduler::issue(Entry &entry, std::uint64_t cycle)
{
    entry.issued = true;
    if (!entry.specValueSet) {
        // A load re-issuing after a memory-dependence squash pays the
        // modeled squash/refetch penalty on top of its latency.
        const std::uint64_t penalty =
            entry.memSquashed ? config_.memSquashPenalty : 0;
        entry.valueTime = cycle + opLatency(entry.rec.op) + penalty;
    }
    recordRetired(entry.seq, entry.valueTime);
    // Batched engine: the value's exact arrival cycle is now known;
    // waiters re-evaluate then.  (No collapsed-arc waiter can remain:
    // those drained when this entry was marked ready.)
    if (wakeMode_ && entry.wakeHead != 0)
        wakeAt(entry, entry.valueTime);
}

void
LimitScheduler::resetState()
{
    frontEnd_.reset();
    for (Entry &slot : slots_)
        slot.live = false;
    windowCount_ = 0;
    oldestSeq_ = 1;
    for (Retired &slot : retired_)
        slot = Retired{};
    pending_.clear();
    classifyQueue_.clear();
    std::fill(readyBits_.begin(), readyBits_.end(), std::uint64_t{0});
    readyCount_ = 0;
    readySeqHint_ = 1;
    wakeMode_ = false;
    promoteWork_.clear();
    batchLastIssue_ = 0;
    batchAnyIssue_ = false;
    nextSeq_ = 1;
    cycle_ = 0;
    stats_ = SchedStats{};
}

SchedStats
LimitScheduler::runNaive(TraceSource &trace)
{
    resetState();

    TraceRecord rec;
    bool exhausted = false;
    while (windowCount_ < config_.windowSize) {
        if (!trace.next(rec)) {
            exhausted = true;
            break;
        }
        insert(rec);
    }

    std::uint64_t last_issue_cycle = 0;
    bool any_issue = false;
    // Loads queue for classification whenever any load speculation is
    // on -- address prediction or value prediction (matching insert()).
    const bool classify_loads =
        config_.loadSpec != LoadSpecMode::None ||
        config_.loadValuePrediction;
    while (windowCount_ > 0) {
        // Classification: exact first cycle the non-address
        // constraints hold, found by brute-force scan in seq order.
        if (classify_loads) {
            for (std::uint64_t seq = oldestSeq_; seq < nextSeq_; ++seq) {
                Entry *entry = findWindow(seq);
                if (!entry || !entry->isLoad || entry->loadClassified)
                    continue;
                if (nonAddrSatisfied(*entry, cycle_))
                    classifyLoad(*entry, cycle_);
            }
        }

        // Promotion: full scan in seq order.
        for (std::uint64_t seq = oldestSeq_; seq < nextSeq_; ++seq) {
            Entry *entry = findWindow(seq);
            if (!entry)
                continue;
            if (!entry->ready && sourcesSatisfied(*entry, cycle_))
                markReady(*entry);
        }

        // Issue: oldest ready first.  Eliminated entries leave for
        // free once their sources are satisfied.
        const unsigned issued = issueReady(last_issue_cycle, any_issue);

        stats_.issuedPerCycle.add(issued);
        ++cycle_;
        while (!exhausted && windowCount_ < config_.windowSize) {
            if (!trace.next(rec)) {
                exhausted = true;
                break;
            }
            insert(rec);
        }

        if (issued == 0 && cycle_ > last_issue_cycle + 64) {
            ddsc_panic("naive scheduler deadlock at cycle %llu",
                       static_cast<unsigned long long>(cycle_));
        }
    }

    // A run in which nothing ever issues (e.g. an empty trace)
    // occupies zero cycles; "last issue + 1" only counts real issues.
    stats_.cycles = any_issue ? last_issue_cycle + 1 : 0;
    return stats_;
}

SchedStats
LimitScheduler::run(TraceSource &trace)
{
    const auto start = std::chrono::steady_clock::now();
    SchedStats stats;
    if (config_.naiveEngine) {
        stats = runNaive(trace);
    } else {
        // A one-cell batched pass: the private front-end annotates the
        // trace chunk by chunk and feeds only this back-end.
        // beginBatched() resets frontEnd_ with the rest of the state.
        FrontEndBatch batch;
        beginBatched();
        while (frontEnd_.fill(trace, batch, kBatchedChunk) != 0)
            feedBatched(batch);
        stats = finishBatched();
    }
    stats.wallNanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start).count());
    return stats;
}

// --- batched (wakeup-list) engine ----------------------------------------

LimitScheduler::WakeCheck
LimitScheduler::wakeCheckArc(const DepArc &arc, std::uint64_t cycle) const
{
    if (const Entry *producer = findWindow(arc.producerSeq)) {
        if (arc.collapsed) {
            if (producer->issued ||
                sourcesSatisfied(*producer, cycle))
                return {true, 0, 0};
            // Satisfied exactly when the producer becomes source-
            // satisfied, i.e. at its markReady cycle.
            return {false, 0, arc.producerSeq};
        }
        if (producer->issued || producer->specValueSet) {
            if (cycle >= producer->valueTime)
                return {true, 0, 0};
            return {false, producer->valueTime, 0};
        }
        // Value arc to an unissued producer: the arrival cycle becomes
        // known at the producer's issue (or speculative delivery).
        return {false, 0, arc.producerSeq};
    }
    // Producer issued and left the window.
    if (arc.collapsed)
        return {true, 0, 0};
    const std::uint64_t value_time = retiredValueTime(arc.producerSeq);
    if (value_time == 0 || cycle >= value_time)
        return {true, 0, 0};
    return {false, value_time, 0};
}

LimitScheduler::WakeCheck
LimitScheduler::wakeCheckAll(const Entry &entry,
                             std::uint64_t cycle) const
{
    if (cycle < entry.fixedReady)
        return {false, entry.fixedReady, 0};
    if (entry.barrierSeq != 0) {
        if (const Entry *branch = findWindow(entry.barrierSeq)) {
            if (!branch->issued)
                return {false, 0, entry.barrierSeq};
            if (cycle < branch->valueTime)
                return {false, branch->valueTime, 0};
        } else {
            const std::uint64_t t = retiredValueTime(entry.barrierSeq);
            if (t != 0 && cycle < t)
                return {false, t, 0};
        }
    }
    for (unsigned i = 0; i < entry.numArcs; ++i) {
        const WakeCheck c = wakeCheckArc(entry.arcs[i], cycle);
        if (!c.ok)
            return c;
    }
    return {true, 0, 0};
}

LimitScheduler::WakeCheck
LimitScheduler::wakeCheckNonAddr(const Entry &entry,
                                 std::uint64_t cycle) const
{
    if (cycle < entry.fixedReady)
        return {false, entry.fixedReady, 0};
    if (entry.barrierSeq != 0) {
        if (const Entry *branch = findWindow(entry.barrierSeq)) {
            if (!branch->issued)
                return {false, 0, entry.barrierSeq};
            if (cycle < branch->valueTime)
                return {false, branch->valueTime, 0};
        } else {
            const std::uint64_t t = retiredValueTime(entry.barrierSeq);
            if (t != 0 && cycle < t)
                return {false, t, 0};
        }
    }
    for (unsigned i = 0; i < entry.numArcs; ++i) {
        if (entry.arcs[i].address)
            continue;
        const WakeCheck c = wakeCheckArc(entry.arcs[i], cycle);
        if (!c.ok)
            return c;
    }
    return {true, 0, 0};
}

void
LimitScheduler::registerWaiter(std::uint64_t producer_seq, Entry &waiter,
                               bool classify_kind)
{
    Entry *producer = findWindow(producer_seq);
    ddsc_assert(producer != nullptr && !producer->issued,
                "waiter registered on a resolved producer");
    const std::uint64_t token =
        (waiter.seq << 1) | (classify_kind ? 1 : 0);
    if (classify_kind)
        waiter.wakeNextClassify = producer->wakeHead;
    else
        waiter.wakeNextPromote = producer->wakeHead;
    producer->wakeHead = token;
}

void
LimitScheduler::wakeAt(Entry &producer, std::uint64_t due)
{
    std::uint64_t token = producer.wakeHead;
    producer.wakeHead = 0;
    while (token != 0) {
        const std::uint64_t seq = token >> 1;
        const bool classify_kind = token & 1;
        Entry *waiter = findWindow(seq);
        ddsc_assert(waiter != nullptr, "waiter left while registered");
        if (classify_kind) {
            token = waiter->wakeNextClassify;
            waiter->wakeNextClassify = 0;
            classifyQueue_.push(due, cycle_, seq);
        } else {
            token = waiter->wakeNextPromote;
            waiter->wakeNextPromote = 0;
            pending_.push(due, cycle_, seq);
        }
    }
}

void
LimitScheduler::wakeNow(Entry &producer)
{
    std::uint64_t token = producer.wakeHead;
    producer.wakeHead = 0;
    while (token != 0) {
        const std::uint64_t seq = token >> 1;
        const bool classify_kind = token & 1;
        Entry *waiter = findWindow(seq);
        ddsc_assert(waiter != nullptr, "waiter left while registered");
        if (classify_kind) {
            token = waiter->wakeNextClassify;
            waiter->wakeNextClassify = 0;
            // A classification predicate blocked on this producer's
            // value or barrier cannot hold merely because the producer
            // became ready; the earliest it can flip is next cycle
            // (and the producer's issue will name the exact time).
            classifyQueue_.push(cycle_ + 1, cycle_, seq);
        } else {
            token = waiter->wakeNextPromote;
            waiter->wakeNextPromote = 0;
            // Collapsed consumers of this producer may be promotable
            // this very cycle: append to the in-flight promotion scan.
            promoteWork_.push_back(seq);
        }
    }
}

void
LimitScheduler::insertFromBatch(const FrontEndBatch &batch,
                                std::size_t i)
{
    InsertAnnotation ann;
    batch.annotationAt(i, ann);
    insertAnnotated(batch.records[i], ann);
}

void
LimitScheduler::runBatchedCycle()
{
    // Phase structure mirrors runNaive(): classification, promotion,
    // issue, account the cycle.  Instead of rescanning the window, a
    // failed evaluation reschedules itself at the exact cycle or wake
    // event that can change its outcome.

    // 1. Load classification at the exact first cycle the non-address
    //    constraints hold.
    const auto classifyOne = [&](std::uint64_t seq) {
        Entry *entry = findWindow(seq);
        if (entry == nullptr || entry->loadClassified)
            return;
        const WakeCheck c = wakeCheckNonAddr(*entry, cycle_);
        if (c.ok)
            classifyLoad(*entry, cycle_);
        else if (c.blocker != 0)
            registerWaiter(c.blocker, *entry, /*classify_kind=*/true);
        else
            classifyQueue_.push(c.due, cycle_, seq);
    };
    while (!classifyQueue_.far.empty() &&
           classifyQueue_.far.top().first <= cycle_) {
        const std::uint64_t seq = classifyQueue_.far.top().second;
        classifyQueue_.far.pop();
        classifyOne(seq);
    }
    auto &classify_due =
        classifyQueue_.buckets[cycle_ & (kWheelSlots - 1)];
    for (std::size_t i = 0; i < classify_due.size(); ++i)
        classifyOne(classify_due[i]);
    classify_due.clear();

    // 2. Promotion: seed the work list from the wheel, then scan by
    //    index — markReady wakes append same-cycle work (collapsed
    //    consumers) to the tail.
    promoteWork_.clear();
    while (!pending_.far.empty() && pending_.far.top().first <= cycle_) {
        promoteWork_.push_back(pending_.far.top().second);
        pending_.far.pop();
    }
    auto &pending_due = pending_.buckets[cycle_ & (kWheelSlots - 1)];
    promoteWork_.insert(promoteWork_.end(), pending_due.begin(),
                        pending_due.end());
    pending_due.clear();
    for (std::size_t i = 0; i < promoteWork_.size(); ++i) {
        const std::uint64_t seq = promoteWork_[i];
        Entry *entry = findWindow(seq);
        if (entry == nullptr || entry->ready || entry->issued)
            continue;
        const WakeCheck c = wakeCheckAll(*entry, cycle_);
        if (c.ok)
            markReady(*entry);
        else if (c.blocker != 0)
            registerWaiter(c.blocker, *entry, /*classify_kind=*/false);
        else
            pending_.push(c.due, cycle_, seq);
    }

    // 3. Issue up to issueWidth ready entries, oldest first.
    const unsigned issued = issueReady(batchLastIssue_, batchAnyIssue_);

    stats_.issuedPerCycle.add(issued);
    ++cycle_;

    if (issued == 0 && cycle_ > batchLastIssue_ + 64) {
        // Every latency is <= 12 cycles and all constraints resolve
        // within a bounded time of the last issue, so a long stretch
        // with no issue from a non-empty window is a dependence cycle
        // or a lost wake: an internal bug.
        ddsc_panic("batched scheduler deadlock at cycle %llu",
                   static_cast<unsigned long long>(cycle_));
    }
}

void
LimitScheduler::beginBatched()
{
    ddsc_assert(!config_.naiveEngine,
                "batched feeding drives the wakeup engine; the naive "
                "reference engine has no batched mode");
    resetState();
    wakeMode_ = true;
}

void
LimitScheduler::feedBatched(const FrontEndBatch &batch)
{
    ddsc_assert(wakeMode_, "feedBatched outside begin/finishBatched");
    std::size_t pos = 0;
    while (windowCount_ < config_.windowSize && pos < batch.size())
        insertFromBatch(batch, pos++);
    if (windowCount_ < config_.windowSize)
        return;     // chunk too small to fill the window; need more
    for (;;) {
        runBatchedCycle();
        // Refill ("kept full"); once this chunk can no longer top the
        // window up, stop advancing cycles and wait for the next chunk
        // (or finishBatched(), which drains without refill).
        while (windowCount_ < config_.windowSize && pos < batch.size())
            insertFromBatch(batch, pos++);
        if (windowCount_ < config_.windowSize)
            return;
    }
}

SchedStats
LimitScheduler::finishBatched()
{
    ddsc_assert(wakeMode_, "finishBatched without beginBatched");
    while (windowCount_ > 0) {
        // The drain inserts nothing, so it carries its own poll.
        pollCancel();
        runBatchedCycle();
    }
    // A run in which nothing ever issues (e.g. an empty trace)
    // occupies zero cycles; "last issue + 1" only counts real issues.
    stats_.cycles = batchAnyIssue_ ? batchLastIssue_ + 1 : 0;
    wakeMode_ = false;
    return stats_;
}

} // namespace ddsc
