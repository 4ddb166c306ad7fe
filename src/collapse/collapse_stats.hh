/**
 * @file
 * Accounting for collapse events: the inputs to Figures 8-10 and
 * Tables 5-6 of the paper.
 */

#ifndef DDSC_COLLAPSE_COLLAPSE_STATS_HH
#define DDSC_COLLAPSE_COLLAPSE_STATS_HH

#include <array>
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
    std::uint64_t events_ = 0;
    std::uint64_t pairEvents_ = 0;
    std::uint64_t tripleEvents_ = 0;
    std::uint64_t collapsedInstructions_ = 0;
    std::array<std::uint64_t, kNumCollapseCategories> byCategory_ = {};
    Histogram distances_;
    SignatureMap pairSignatures_;
    SignatureMap tripleSignatures_;
};

} // namespace ddsc

#endif // DDSC_COLLAPSE_COLLAPSE_STATS_HH
