#include "sched_stats.hh"

#include "core/annotation.hh"

namespace ddsc
{

namespace
{

/** FNV-1a's xor-multiply step over the bytes of one 64-bit value. */
std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

} // anonymous namespace

std::uint64_t
digestSchedStats(const SchedStats &s)
{
    // Not FNV-1a's offset basis (14695981039346656037); never
    // "correct" it: every pinned digest (BENCH_sched.json's 168) uses it.
    std::uint64_t h = 1469598103934665603ull;
    h = fold(h, s.instructions);
    h = fold(h, s.cycles);
    h = fold(h, s.condBranches);
    h = fold(h, s.mispredicts);
    h = fold(h, s.ctiPredictions);
    h = fold(h, s.ctiMispredicts);
    h = fold(h, s.loads);
    for (const std::uint64_t n : s.loadClasses)
        h = fold(h, n);
    h = fold(h, s.eliminatedInstructions);
    h = fold(h, s.valuePredHits);
    h = fold(h, s.valuePredWrong);
    // Folded only when active so digests of configs that cannot
    // exercise memory-dependence speculation (the paper's A-E) stay
    // comparable across tool versions that predate the counters.
    if ((s.memDepPredictedDeps | s.memDepFalseDeps |
         s.memDepSquashes) != 0) {
        h = fold(h, s.memDepPredictedDeps);
        h = fold(h, s.memDepFalseDeps);
        h = fold(h, s.memDepSquashes);
    }
    h = fold(h, s.collapse.events());
    h = fold(h, s.collapse.pairEvents());
    h = fold(h, s.collapse.tripleEvents());
    h = fold(h, s.collapse.collapsedInstructions());
    for (unsigned c = 0; c < kNumCollapseCategories; ++c)
        h = fold(h,
                 s.collapse.eventsOf(static_cast<CollapseCategory>(c)));
    for (const auto &[key, count] : s.collapse.distances().raw()) {
        h = fold(h, key);
        h = fold(h, count);
    }
    for (const auto &[key, count] : s.issuedPerCycle.raw()) {
        h = fold(h, key);
        h = fold(h, count);
    }
    return h;
}

void
countAnnotation(SchedStats &s, std::uint16_t flags)
{
    ++s.instructions;
    if (flags & ann::kFlagCondBranch) {
        ++s.condBranches;
        if (flags & ann::kFlagMispredict)
            ++s.mispredicts;
    }
    if (flags & ann::kFlagCtiPrediction) {
        ++s.ctiPredictions;
        if (flags & ann::kFlagCtiMispredict)
            ++s.ctiMispredicts;
    }
    if (flags & ann::kFlagMemDepPredicted)
        ++s.memDepPredictedDeps;
    if (flags & ann::kFlagMemDepFalse)
        ++s.memDepFalseDeps;
}

} // namespace ddsc
