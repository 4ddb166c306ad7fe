#include "placement.hh"

#include <algorithm>
#include <bit>

namespace ddsc
{

PlacementEngine::PlacementEngine(const MachineConfig &config)
    : config_(config),
      classify_(config.loadSpec != LoadSpecMode::None ||
                config.loadValuePrediction)
{
}

void
PlacementEngine::begin()
{
    // Both rings start at 4 x the window and double on demand.
    const std::uint64_t size = std::bit_ceil(
        std::max<std::uint64_t>(4 * config_.windowSize, 64));
    placed_.assign(size, Placed{});
    placedMask_ = size - 1;
    if (config_.collapsing)
        nodes_.assign(size, CollapseNode{});
    counts_.assign(size, 0);
    countMask_ = size - 1;
    frontier_ = 0;
    issuedBeforeFrontier_ = 0;
    cyclesWith_.assign(config_.issueWidth + 1, 0);
    lastIssue_ = 0;
    anyIssue_ = false;
    nextSeq_ = 1;
    stats_ = SchedStats{};
    tally_.clear();
}

std::uint64_t
PlacementEngine::enterWindow(std::uint64_t seq)
{
    // Record seq needs seq - W older records issued before it fits;
    // every cycle the frontier passes is final (younger records issue
    // at or after their own entry, which is past it).
    const std::uint64_t need =
        seq > config_.windowSize ? seq - config_.windowSize : 0;
    while (issuedBeforeFrontier_ < need) {
        std::uint32_t &n = counts_[frontier_ & countMask_];
        issuedBeforeFrontier_ += n;
        ++cyclesWith_[n];
        n = 0;
        ++frontier_;
    }
    return frontier_;
}

void
PlacementEngine::claimSlot(std::uint64_t seq, std::uint64_t entry)
{
    const Placed &occupant = placed_[seq & placedMask_];
    if (occupant.seq == 0 ||
        (occupant.issue < entry && occupant.value <= entry))
        return;
    // The occupant may still constrain or be absorbed by a younger
    // record.  The ring holds only seqs in [seq - size, seq), which are
    // distinct modulo twice the size, and seq's new slot is empty.
    const std::uint64_t size = 2 * placed_.size();
    std::vector<Placed> grown(size);
    std::vector<CollapseNode> grown_nodes(nodes_.empty() ? 0 : size);
    for (std::size_t i = 0; i < placed_.size(); ++i) {
        const std::uint64_t s = placed_[i].seq;
        if (s == 0)
            continue;
        grown[s & (size - 1)] = placed_[i];
        if (!nodes_.empty())
            grown_nodes[s & (size - 1)] = nodes_[i];
    }
    placed_ = std::move(grown);
    nodes_ = std::move(grown_nodes);
    placedMask_ = size - 1;
}

std::uint32_t &
PlacementEngine::issuesAt(std::uint64_t cycle)
{
    if (cycle - frontier_ > countMask_) {
        std::uint64_t size = 2 * counts_.size();
        while (cycle - frontier_ >= size)
            size *= 2;
        std::vector<std::uint32_t> grown(size, 0);
        for (std::uint64_t c = frontier_; c < frontier_ + counts_.size();
             ++c)
            grown[c & (size - 1)] = counts_[c & countMask_];
        counts_ = std::move(grown);
        countMask_ = size - 1;
    }
    return counts_[cycle & countMask_];
}

std::uint64_t
PlacementEngine::freeCycle(std::uint64_t from)
{
    while (issuesAt(from) >= config_.issueWidth)
        ++from;
    return from;
}

void
PlacementEngine::place(const FrontEndBatch &batch, std::size_t i)
{
    const TraceRecord &rec = batch.records[i];
    const std::uint16_t flags = batch.flags[i];
    const std::uint64_t seq = nextSeq_++;
    countAnnotation(stats_, flags);

    const std::uint64_t entry = enterWindow(seq);
    claimSlot(seq, entry);

    // RAW producers in canonical arc order.  A predicted-independent
    // load's true store (always the last dep) is no arc: it only
    // decides the squash at issue.
    const std::uint64_t *deps = &batch.depSeqs[4 * i];
    unsigned num_deps = batch.depCount[i];
    std::uint64_t store_value = 0;
    if (config_.memDep == MemDepMode::Predicted &&
        (flags & ann::kFlagMemDepActual) &&
        !(flags & ann::kFlagMemDepPredicted)) {
        --num_deps;
        if (const Placed *store = find(deps[num_deps]))
            store_value = store->value;
    }

    const Placed *producers[4];
    for (unsigned d = 0; d < num_deps; ++d)
        producers[d] = find(deps[d]);

    const std::uint8_t address_mask = batch.depAddrMask[i];
    unsigned collapsed = 0;
    if (config_.collapsing) {
        CollapseNode &node = nodes_[seq & placedMask_];
        node.reset(seq, rec, batch.bbId[i], batch.expr[i], batch.sig[i]);
        CollapseNode *candidates[4];
        for (unsigned d = 0; d < num_deps; ++d)
            candidates[d] = producers[d] && producers[d]->issue >= entry
                ? &nodes_[deps[d] & placedMask_] : nullptr;
        collapsed = collapseArcs(config_.rules, rec, node, candidates,
                                 address_mask, num_deps, tally_);
    }

    // Every constraint is a time older records already fixed.
    std::uint64_t t_rest = entry;
    std::uint64_t t_addr = 0;
    if (const std::uint64_t barrier = batch.barrierSeq[i]) {
        if (const Placed *branch = find(barrier))
            t_rest = std::max(t_rest, branch->value);
    }
    for (unsigned d = 0; d < num_deps; ++d) {
        if (producers[d] == nullptr)
            continue;
        const std::uint64_t t = (collapsed >> d) & 1
            ? producers[d]->ready : producers[d]->value;
        std::uint64_t &bound = (address_mask >> d) & 1 ? t_addr : t_rest;
        bound = std::max(bound, t);
    }

    const unsigned latency = opLatency(rec.op);
    std::uint64_t value = 0;
    bool spec_value = false;
    if (rec.isLoad()) {
        if (classify_) {
            // Classified at t_rest, the first cycle every non-address
            // constraint holds.
            LoadClass load_class;
            if (t_addr <= t_rest) {
                load_class = LoadClass::Ready;
            } else if (config_.loadSpec == LoadSpecMode::Ideal ||
                       ((flags & ann::kFlagPredUsable) &&
                        (flags & ann::kFlagPredCorrect))) {
                load_class = LoadClass::PredictedCorrect;
                value = t_rest + latency;
                // A speculative access that reads memory before the
                // store it was speculated past writes it cannot stand.
                spec_value = store_value <= t_rest;
            } else if (flags & ann::kFlagPredUsable) {
                load_class = LoadClass::PredictedIncorrect;
            } else {
                load_class = LoadClass::NotPredicted;
            }
            // A correct value prediction verifies against post-store
            // memory, so it stands regardless of store timing.
            if (config_.loadValuePrediction &&
                (flags & ann::kFlagVpredUsable)) {
                if (flags & ann::kFlagVpredCorrect) {
                    if (!spec_value || t_rest + 1 < value) {
                        value = t_rest + 1;
                        spec_value = true;
                    }
                    ++stats_.valuePredHits;
                } else {
                    ++stats_.valuePredWrong;
                }
            }
            ++stats_.loadClasses[static_cast<unsigned>(load_class)];
        }
        ++stats_.loads;
    }

    const std::uint64_t ready = std::max(t_rest, t_addr);
    std::uint64_t issue = freeCycle(ready);
    std::uint64_t penalty = 0;
    if (store_value > issue) {
        // Memory-dependence violation.  Only a verified value
        // prediction can have left a speculative value standing here
        // (the classification above dropped an address-speculative
        // one); it lets the load issue anyway.  Otherwise the load
        // gives up the slot and waits for the store.
        ++stats_.memDepSquashes;
        if (!spec_value) {
            issue = freeCycle(store_value);
            penalty = kMemSquashPenalty;
        }
    }
    ++issuesAt(issue);
    if (!spec_value)
        value = issue + latency + penalty;
    lastIssue_ = std::max(lastIssue_, issue);
    anyIssue_ = true;
    placed_[seq & placedMask_] = {seq, issue, value, ready};
}

SchedStats
PlacementEngine::finish()
{
    if (anyIssue_) {
        for (std::uint64_t c = frontier_; c <= lastIssue_; ++c) {
            std::uint32_t &n = counts_[c & countMask_];
            ++cyclesWith_[n];
            n = 0;
        }
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
