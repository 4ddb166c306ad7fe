#include "scheduler.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "support/logging.hh"

namespace ddsc
{

LimitScheduler::LimitScheduler(const MachineConfig &config)
    : config_(config), placement_(config),
      scan_(config.naiveEngine || config.nodeElimination)
{
    ddsc_assert(config.issueWidth >= 1, "issue width must be positive");
    ddsc_assert(config.windowSize >= config.issueWidth,
                "window smaller than issue width");
}

const LimitScheduler::Entry *
LimitScheduler::findWindow(std::uint64_t seq) const
{
    const Entry &slot = slots_[seq & slotMask_];
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
LimitScheduler::arcsSatisfied(const Entry &entry, std::uint64_t cycle,
                              bool address) const
{
    for (unsigned i = 0; i < entry.numArcs; ++i) {
        if (entry.arcs[i].address == address &&
            !arcSatisfied(entry.arcs[i], cycle))
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
LimitScheduler::insertAnnotated(const FrontEndBatch &batch, std::size_t i)
{
    pollCancel();
    const TraceRecord &rec = batch.records[i];
    const std::uint16_t flags = batch.flags[i];
    const std::uint64_t seq = nextSeq_++;
    Entry *slot = &slots_[seq & slotMask_];
    if (slot->live) {
        growWindow();
        slot = &slots_[seq & slotMask_];
    }
    // Reconstruct the slot in place rather than `*slot = Entry{}`:
    // only fields a previous tenant can leave behind need clearing
    // (arcs and member records are guarded by their counts), so slot
    // reuse writes a fraction of the Entry.  Every other field is
    // assigned below.
    Entry &entry = *slot;
    entry.numArcs = 0;
    entry.issued = false;
    entry.ready = false;
    entry.valueTime = 0;
    entry.specValueSet = false;
    entry.loadClassified = false;
    entry.loadClass = LoadClass::Ready;
    entry.hasValueReader = false;
    entry.eliminated = false;
    entry.memSpecSeq = 0;
    entry.memSquashed = false;
    entry.rec = rec;
    entry.seq = seq;
    entry.live = true;
    ++windowCount_;
    entry.fixedReady = cycle_;      // issuable from the insertion cycle
    entry.collapse.reset(seq, rec, batch.bbId[i], batch.expr[i],
                         batch.sig[i]);
    entry.isLoad = rec.isLoad();
    countAnnotation(stats_, flags);

    // Younger instructions cannot issue before or during the cycle a
    // mispredicted branch issues.
    entry.barrierSeq = batch.barrierSeq[i];

    // --- RAW arcs (register, cc, memory — annotated in order) --------
    const std::uint64_t *deps = &batch.depSeqs[4 * i];
    const std::uint8_t address_mask = batch.depAddrMask[i];
    unsigned num_deps = batch.depCount[i];
    if (config_.memDep == MemDepMode::Predicted &&
        (flags & ann::kFlagMemDepActual) &&
        !(flags & ann::kFlagMemDepPredicted)) {
        // Speculated independent: the true producing store (always the
        // last annotated dep) travels out-of-band instead of as an
        // arc, so readiness and classification ignore it; the issue
        // stage detects the violation, restores the arc, and charges
        // the squash at the re-issue (divertViolatedLoad).
        entry.memSpecSeq = deps[num_deps - 1];
        --num_deps;
    }
    for (unsigned d = 0; d < num_deps; ++d)
        addArc(entry, deps[d], (address_mask >> d) & 1);

    // --- d-collapsing --------------------------------------------------
    if (config_.collapsing) {
        CollapseNode *producers[4];
        std::uint8_t arc_address_mask = 0;
        for (unsigned a = 0; a < entry.numArcs; ++a) {
            Entry *producer = findWindow(entry.arcs[a].producerSeq);
            producers[a] = producer ? &producer->collapse : nullptr;
            arc_address_mask |= static_cast<std::uint8_t>(
                entry.arcs[a].address << a);
        }
        const unsigned collapsed =
            collapseArcs(config_.rules, rec, entry.collapse, producers,
                         arc_address_mask, entry.numArcs, tally_);
        for (unsigned a = 0; a < entry.numArcs; ++a)
            entry.arcs[a].collapsed = (collapsed >> a) & 1;
    }

    // --- load-speculation outcomes (tables trained up front) ---------
    entry.predUsable = flags & ann::kFlagPredUsable;
    entry.predCorrect = flags & ann::kFlagPredCorrect;
    entry.vpredUsable = flags & ann::kFlagVpredUsable;
    entry.vpredCorrect = flags & ann::kFlagVpredCorrect;

    // --- node elimination bookkeeping ---------------------------------
    if (config_.nodeElimination) {
        noteValueReaders(entry);
        maybeEliminate(batch.elimOldWriter[i],
                       flags & ann::kFlagElimCcBlocked);
    }

    if (entry.isLoad && config_.loadSpec == LoadSpecMode::None &&
        !config_.loadValuePrediction)
        ++stats_.loads;     // otherwise counted at classification
}

void
LimitScheduler::removeFromWindow(std::uint64_t seq)
{
    Entry *entry = findWindow(seq);
    ddsc_assert(entry != nullptr, "removing unknown entry");
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
}

unsigned
LimitScheduler::issueReady()
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
    // on exit; markReady() lowers it again as entries become ready.
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
            lastIssue_ = cycle_;
            anyIssue_ = true;
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
    if (old_entry->collapse.absorbedCount == 0 ||
        old_entry->hasValueReader)
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
    const bool addr_ready = arcsSatisfied(entry, cycle, true);
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
            entry.memSquashed ? kMemSquashPenalty : 0;
        entry.valueTime = cycle + opLatency(entry.rec.op) + penalty;
    }
    recordRetired(entry.seq, entry.valueTime);
}

void
LimitScheduler::resetScan()
{
    if (slots_.empty()) {
        // Live entries never exceed windowSize, but the live *span*
        // can: younger generations churn past a stalled oldest entry.
        // Start with headroom and let growWindow() handle the
        // pathological case.  Retired producers constrain consumers
        // for at most the maximum latency after issue; size for that
        // churn plus the window span.
        const std::uint64_t window = std::bit_ceil(
            std::max<std::uint64_t>(config_.windowSize, 16));
        slots_.resize(8 * window);
        slotMask_ = slots_.size() - 1;
        readyBits_.resize(slots_.size() / 64);
        retired_.resize(4 * window);
        retiredMask_ = retired_.size() - 1;
    }
    for (Entry &slot : slots_)
        slot.live = false;
    windowCount_ = 0;
    oldestSeq_ = 1;
    for (Retired &slot : retired_)
        slot = Retired{};
    std::fill(readyBits_.begin(), readyBits_.end(), std::uint64_t{0});
    readyCount_ = 0;
    readySeqHint_ = 1;
    lastIssue_ = 0;
    anyIssue_ = false;
    nextSeq_ = 1;
    cycle_ = 0;
    stats_ = SchedStats{};
    cyclesWith_.assign(config_.issueWidth + 1, 0);
    tally_.clear();
}

void
LimitScheduler::scanCycle()
{
    // Classification: exact first cycle every non-address constraint
    // holds, found by brute-force scan in seq order.  Loads classify
    // whenever any load speculation is on -- address prediction or
    // value prediction (matching insertAnnotated()).
    if (config_.loadSpec != LoadSpecMode::None ||
        config_.loadValuePrediction) {
        for (std::uint64_t seq = oldestSeq_; seq < nextSeq_; ++seq) {
            Entry *entry = findWindow(seq);
            if (entry && entry->isLoad && !entry->loadClassified &&
                cycle_ >= entry->fixedReady &&
                barrierSatisfiedNow(*entry, cycle_) &&
                arcsSatisfied(*entry, cycle_, false))
                classifyLoad(*entry, cycle_);
        }
    }

    // Promotion: full scan in seq order, so a collapsed consumer sees
    // its producer's readiness from the same cycle.
    for (std::uint64_t seq = oldestSeq_; seq < nextSeq_; ++seq) {
        Entry *entry = findWindow(seq);
        if (entry && !entry->ready && sourcesSatisfied(*entry, cycle_))
            markReady(*entry);
    }

    // Issue: oldest ready first.  Eliminated entries leave for free
    // once their sources are satisfied.
    const unsigned issued = issueReady();
    ++cyclesWith_[issued];
    ++cycle_;
    if (issued == 0 && cycle_ > lastIssue_ + 64) {
        // Every latency is <= 12 cycles and all constraints resolve
        // within a bounded time of the last issue, so a long stretch
        // with no issue from a non-empty window is a dependence cycle:
        // an internal bug.
        ddsc_panic("scan scheduler deadlock at cycle %llu",
                   static_cast<unsigned long long>(cycle_));
    }
}

SchedStats
LimitScheduler::run(TraceSource &trace)
{
    // A one-cell batched pass: a front-end built for this run
    // annotates the trace chunk by chunk and feeds only this back-end.
    const auto start = std::chrono::steady_clock::now();
    SpecFrontEnd front_end(config_);
    FrontEndBatch batch;
    beginBatched();
    while (front_end.fill(trace, batch, kBatchedChunk) != 0)
        feedBatched(batch);
    SchedStats stats = finishBatched();
    stats.wallNanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start).count());
    return stats;
}

void
LimitScheduler::beginBatched()
{
    if (scan_)
        resetScan();
    else
        placement_.begin();
    running_ = true;
}

void
LimitScheduler::feedBatched(const FrontEndBatch &batch)
{
    ddsc_assert(running_, "feedBatched outside begin/finishBatched");
    if (!scan_) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
            pollCancel();
            placement_.place(batch, i);
        }
        return;
    }
    std::size_t pos = 0;
    for (;;) {
        // Refill ("kept full"); once this chunk can no longer top the
        // window up, stop advancing cycles and wait for the next chunk
        // (or finishBatched(), which drains without refill).
        while (windowCount_ < config_.windowSize && pos < batch.size())
            insertAnnotated(batch, pos++);
        if (windowCount_ < config_.windowSize)
            return;
        scanCycle();
    }
}

SchedStats
LimitScheduler::finishBatched()
{
    ddsc_assert(running_, "finishBatched without beginBatched");
    running_ = false;
    if (!scan_)
        return placement_.finish();
    while (windowCount_ > 0) {
        // The drain inserts nothing, so it carries its own poll.
        pollCancel();
        scanCycle();
    }
    for (std::size_t k = 0; k < cyclesWith_.size(); ++k) {
        if (cyclesWith_[k] != 0)
            stats_.issuedPerCycle.add(k, cyclesWith_[k]);
    }
    tally_.drainInto(stats_.collapse);
    // A run in which nothing ever issues (e.g. an empty trace)
    // occupies zero cycles; "last issue + 1" only counts real issues.
    stats_.cycles = anyIssue_ ? lastIssue_ + 1 : 0;
    return stats_;
}

} // namespace ddsc
