/**
 * @file
 * The memory-dependence predictor of config F.
 *
 * The paper assumes *perfect* memory disambiguation: a load waits for
 * exactly the most recent store that wrote one of its bytes, nothing
 * else.  Config F replaces that with a store-set-style
 * collision-history predictor, indexed by load pc, that guesses
 * whether the load depends on a recent store.  SpecFrontEnd trains it
 * and turns its guess into the load's memory arc and flags; the
 * back-end squashes a load that issued past a store it truly needed.
 *
 * The counter moves up by 2 and down by 1, biasing toward predicting
 * dependences — a squash costs far more than a false dependence, the
 * same asymmetry store-set predictors encode.
 */

#ifndef DDSC_SPEC_MEM_DEP_PREDICTOR_HH
#define DDSC_SPEC_MEM_DEP_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/sat_counter.hh"

namespace ddsc::spec
{

/**
 * Direct-mapped collision-history table: one saturating confidence
 * counter per load pc, predicting "this load collides with a recent
 * store".
 */
class MemDepPredictor
{
  public:
    /**
     * @param index_bits log2 of the entry count.
     * @param confidence_threshold predict dependent when counter >
     *        this.
     */
    explicit MemDepPredictor(unsigned index_bits = 12,
                             unsigned confidence_threshold = 1);

    /** Would this load collide with a recent store? */
    bool predictDependent(std::uint64_t pc) const;

    /** Train with the perfect-disambiguation outcome (every load). */
    void update(std::uint64_t pc, bool dependent);

    /** Clear all state. */
    void reset();

    /** Entry count (for reporting). */
    std::size_t entries() const { return table_.size(); }

  private:
    std::size_t indexOf(std::uint64_t pc) const;

    unsigned threshold_;
    std::vector<SatCounter> table_;
};

} // namespace ddsc::spec

#endif // DDSC_SPEC_MEM_DEP_PREDICTOR_HH
