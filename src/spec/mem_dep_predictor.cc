#include "mem_dep_predictor.hh"

#include "support/logging.hh"

namespace ddsc::spec
{

MemDepPredictor::MemDepPredictor(unsigned index_bits,
                                 unsigned confidence_threshold)
    : threshold_(confidence_threshold)
{
    ddsc_assert(index_bits >= 1 && index_bits <= 24,
                "unreasonable predictor size 2^%u", index_bits);
    table_.assign(std::size_t{1} << index_bits, SatCounter{2, 0});
}

std::size_t
MemDepPredictor::indexOf(std::uint64_t pc) const
{
    // Instructions are word aligned; drop the two dead bits.
    return (pc >> 2) & (table_.size() - 1);
}

bool
MemDepPredictor::predictDependent(std::uint64_t pc) const
{
    return table_[indexOf(pc)].value() > threshold_;
}

void
MemDepPredictor::update(std::uint64_t pc, bool dependent)
{
    SatCounter &counter = table_[indexOf(pc)];
    if (dependent)
        counter.increment(2);   // learn collisions fast: squashes are
    else                        // much dearer than false dependences
        counter.decrement(1);
}

void
MemDepPredictor::reset()
{
    for (SatCounter &counter : table_)
        counter = SatCounter{2, 0};
}

} // namespace ddsc::spec
