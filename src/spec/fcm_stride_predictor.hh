/**
 * @file
 * The context-based FCM/stride hybrid load-value predictor of config
 * G.
 *
 * A per-pc first level tracks the last value, the current stride, and
 * a hashed history of recent values; a shared second-level table
 * keyed by that history predicts context-correlated (non-stride)
 * value sequences.  Each side carries its own confidence, and the
 * hybrid uses whichever confident component is stronger — the
 * standard FCM/stride tournament after Sazeides & Smith, the natural
 * "how far can value prediction go" companion to the paper's
 * address-stride study.
 *
 * SpecFrontEnd trains it on every load and sets only the
 * kFlagVpredUsable/kFlagVpredCorrect outcome flags; the back-end's
 * value-prediction timing is the same as for the last-value predictor
 * (src/vpred/).
 */

#ifndef DDSC_SPEC_FCM_STRIDE_PREDICTOR_HH
#define DDSC_SPEC_FCM_STRIDE_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/sat_counter.hh"
#include "vpred/vpred.hh"

namespace ddsc::spec
{

/**
 * Context(FCM)/stride hybrid load-value predictor.
 */
class FcmStrideValuePredictor
{
  public:
    /**
     * @param index_bits log2 first-level (per-pc) entries.
     * @param confidence_threshold use a component only when its
     *        counter > this.
     * @param history_length values folded into the FCM context hash.
     */
    explicit FcmStrideValuePredictor(unsigned index_bits = 12,
                                     unsigned confidence_threshold = 1,
                                     unsigned history_length = 4);

    /** Look up a prediction for the load at @p pc. */
    ValuePrediction predict(std::uint64_t pc) const;

    /** Train with the actually loaded value (every dynamic load). */
    void update(std::uint64_t pc, std::uint32_t actual);

    /** Clear all state. */
    void reset();

    /** First-level entry count (for reporting). */
    std::size_t entries() const { return table_.size(); }

  private:
    struct Entry
    {
        std::uint32_t lastValue = 0;
        std::int32_t stride = 0;
        std::uint32_t history = 0;      ///< hashed value context
        SatCounter strideConf{2, 0};
        bool valid = false;
    };

    struct ContextEntry
    {
        std::uint32_t value = 0;
        SatCounter confidence{2, 0};
    };

    std::size_t indexOf(std::uint64_t pc) const;
    std::size_t contextOf(const Entry &e) const;
    static std::uint32_t foldHistory(std::uint32_t history,
                                     std::uint32_t value);

    unsigned threshold_;
    unsigned historyLength_;
    std::vector<Entry> table_;
    std::vector<ContextEntry> contexts_;
};

} // namespace ddsc::spec

#endif // DDSC_SPEC_FCM_STRIDE_PREDICTOR_HH
