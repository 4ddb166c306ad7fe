/**
 * @file
 * Accounting for collapse events: the inputs to Figures 8-10 and
 * Tables 5-6 of the paper.
 */

#ifndef DDSC_COLLAPSE_COLLAPSE_STATS_HH
#define DDSC_COLLAPSE_COLLAPSE_STATS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "collapse/rules.hh"
#include "support/stats.hh"

namespace ddsc
{

/**
 * One recorded collapse event: a consumer fused with 1 or 2 producers.
 */
struct CollapseEvent
{
    CollapseCategory category;
    unsigned groupSize;                     ///< 2 or 3 instructions
    /** e.g. "arri-brc"; borrowed bytes, valid only for the record()
     *  call (the simulator builds it in a stack buffer). */
    std::string_view signature;
    std::array<std::uint64_t, 2> distances; ///< per collapsed arc
    unsigned distanceCount;                 ///< valid entries above
};

/** Signature frequency table; the transparent comparator lets the hot
 *  path count a string_view without materializing a std::string. */
using SignatureMap = std::map<std::string, std::uint64_t, std::less<>>;

/**
 * Aggregated collapse statistics for one simulation run.
 */
class CollapseStats
{
  public:
    /** Record one event. */
    void record(const CollapseEvent &event);

    /** Note that an instruction became a member of >= 1 group. */
    void noteCollapsedInstruction() { ++collapsedInstructions_; }

    /** Set the Figure 8 count outright: the one collapse field a
     *  fleet per-cell summary carries (decodeCellSummary in
     *  sim/matrix_query.hh), so every other field stays zero. */
    void
    setCollapsedInstructions(std::uint64_t n)
    {
        collapsedInstructions_ = n;
    }

    /** Total events. */
    std::uint64_t events() const { return events_; }

    /** Events of one category. */
    std::uint64_t
    eventsOf(CollapseCategory c) const
    {
        return byCategory_[static_cast<unsigned>(c)];
    }

    /** Percentage contribution of a category (Figure 9). */
    double pctOf(CollapseCategory c) const;

    /** Unique instructions participating in any group (Figure 8). */
    std::uint64_t collapsedInstructions() const
    {
        return collapsedInstructions_;
    }

    /** Distance distribution between collapsed instructions (Fig 10). */
    const Histogram &distances() const { return distances_; }

    /** Pair-signature frequency table (Table 5 input). */
    const SignatureMap &pairSignatures() const { return pairSignatures_; }

    /** Triple-signature frequency table (Table 6 input). */
    const SignatureMap &tripleSignatures() const
    {
        return tripleSignatures_;
    }

    /** Total pair events (Table 5 denominator). */
    std::uint64_t pairEvents() const { return pairEvents_; }

    /** Total triple events (Table 6 denominator). */
    std::uint64_t tripleEvents() const { return tripleEvents_; }

    /** Merge another run's statistics (cross-benchmark aggregation). */
    void merge(const CollapseStats &other);

    /**
     * Top-N signatures of the requested group size by frequency, as
     * (signature, percent-of-size-class) pairs.
     */
    std::vector<std::pair<std::string, double>>
    topSignatures(unsigned group_size, std::size_t n) const;

    /** Append a canonical byte encoding (persistent result cache). */
    void encode(std::string &out) const;

    /** Rebuild from an encoding; false (and *this reset) on truncated
     *  or inconsistent bytes. */
    bool decode(support::wire::Reader &in);

  private:
    friend class CollapseTally;     // drainInto() adds a run at once

    std::uint64_t events_ = 0;
    std::uint64_t pairEvents_ = 0;
    std::uint64_t tripleEvents_ = 0;
    std::uint64_t collapsedInstructions_ = 0;
    std::array<std::uint64_t, kNumCollapseCategories> byCategory_ = {};
    Histogram distances_;
    SignatureMap pairSignatures_;
    SignatureMap tripleSignatures_;
};

/**
 * One run's collapse events as the simulator counts them: no
 * allocation and no string work per event.  A group is keyed by its
 * members' packed fragments (packInstructionSignature), oldest first
 * and the consumer last, which spell CollapseEvent::signature;
 * distances go into a dense array indexed by distance, which the
 * engines bound by their ring sizes.  drainInto() adds the run to a
 * CollapseStats once, equal to what record() would have built from
 * the same events.
 */
class CollapseTally
{
  public:
    /** Slots of each signature table before its first growth. */
    static constexpr std::size_t kInitialSlots = 64;
    /** Distance bins before the first growth. */
    static constexpr std::size_t kInitialDistances = 64;

    /** Forget every count, keeping the storage. */
    void clear();

    /** Note that an instruction became a member of >= 1 group. */
    void noteCollapsedInstruction() { ++collapsedInstructions_; }

    /** One collapsed arc between records @p distance apart. */
    void
    addDistance(std::uint64_t distance)
    {
        if (distance >= distances_.size())
            growDistances(distance);
        ++distances_[distance];
    }

    /** A pair: producer fragment @p m0 absorbed by @p consumer. */
    void
    addPair(CollapseCategory category, std::uint64_t m0,
            std::uint64_t consumer)
    {
        ++byCategory_[static_cast<unsigned>(category)];
        pairs_.bump(m0, consumer, 0);
    }

    /** A triple: members @p m0, @p m1 (oldest first), then @p consumer. */
    void
    addTriple(CollapseCategory category, std::uint64_t m0,
              std::uint64_t m1, std::uint64_t consumer)
    {
        ++byCategory_[static_cast<unsigned>(category)];
        triples_.bump(m0, m1, consumer);
    }

    /** Add this run's counts to @p stats, then clear(). */
    void drainInto(CollapseStats &stats);

  private:
    /** Event counts keyed by up to three packed fragments: open
     *  addressing with linear probing, at most half full.  A zero
     *  count marks a free slot. */
    class SignatureTable
    {
      public:
        SignatureTable() : slots_(kInitialSlots) {}

        void
        bump(std::uint64_t a, std::uint64_t b, std::uint64_t c)
        {
            for (std::size_t i = home(a, b, c);;
                 i = (i + 1) & (slots_.size() - 1)) {
                Slot &slot = slots_[i];
                if (slot.count == 0) {
                    insert(i, a, b, c);
                    return;
                }
                if (slot.key[0] == a && slot.key[1] == b &&
                    slot.key[2] == c) {
                    ++slot.count;
                    return;
                }
            }
        }

        void clear();

        /** Call @p f(key, count) for every counted key. */
        template <class F>
        void
        forEach(F &&f) const
        {
            for (const Slot &slot : slots_) {
                if (slot.count != 0)
                    f(slot.key, slot.count);
            }
        }

      private:
        struct Slot
        {
            std::uint64_t key[3];
            std::uint64_t count = 0;
        };

        std::size_t
        home(std::uint64_t a, std::uint64_t b, std::uint64_t c) const
        {
            // Fibonacci hashing: the top bits of the product depend on
            // every bit of the folded key.
            constexpr std::uint64_t k = 0x9E3779B97F4A7C15ull;
            const std::uint64_t h = (((a * k) ^ b) * k ^ c) * k;
            return static_cast<std::size_t>(h >> shift_);
        }

        /** Fill free slot @p i with a new key, growing first when the
         *  table would pass half full. */
        void insert(std::size_t i, std::uint64_t a, std::uint64_t b,
                    std::uint64_t c);

        std::vector<Slot> slots_;
        std::size_t used_ = 0;
        unsigned shift_ = 64 - std::countr_zero(kInitialSlots);
    };

    void growDistances(std::uint64_t distance);

    std::uint64_t collapsedInstructions_ = 0;
    std::array<std::uint64_t, kNumCollapseCategories> byCategory_ = {};
    std::vector<std::uint64_t> distances_;
    SignatureTable pairs_;
    SignatureTable triples_;
};

} // namespace ddsc

#endif // DDSC_COLLAPSE_COLLAPSE_STATS_HH
