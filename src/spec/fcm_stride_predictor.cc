#include "fcm_stride_predictor.hh"

#include "support/logging.hh"

namespace ddsc::spec
{

FcmStrideValuePredictor::FcmStrideValuePredictor(
    unsigned index_bits, unsigned confidence_threshold,
    unsigned history_length)
    : threshold_(confidence_threshold), historyLength_(history_length)
{
    ddsc_assert(index_bits >= 1 && index_bits <= 24,
                "unreasonable predictor size 2^%u", index_bits);
    ddsc_assert(history_length >= 1 && history_length <= 16,
                "unreasonable FCM history length %u", history_length);
    table_.assign(std::size_t{1} << index_bits, Entry{});
    // The shared context table is 4x the first level: contexts from
    // different pcs intentionally share (constructive aliasing), but a
    // too-small table would thrash.
    contexts_.assign(std::size_t{4} << index_bits, ContextEntry{});
}

std::size_t
FcmStrideValuePredictor::indexOf(std::uint64_t pc) const
{
    return (pc >> 2) & (table_.size() - 1);
}

std::uint32_t
FcmStrideValuePredictor::foldHistory(std::uint32_t history,
                                     std::uint32_t value)
{
    // Rotate-and-xor folding (Sazeides & Smith's hashed FCM): old
    // values age out of the context after historyLength_ shifts.
    return (history << 5 | history >> 27) ^ value * 2654435761u;
}

std::size_t
FcmStrideValuePredictor::contextOf(const Entry &e) const
{
    // Mix the pc-agnostic history with nothing else: sharing contexts
    // across static loads is what lets one load train another's
    // repeating sequence.
    std::uint32_t h = e.history;
    h ^= h >> 15;
    return h & (contexts_.size() - 1);
}

ValuePrediction
FcmStrideValuePredictor::predict(std::uint64_t pc) const
{
    const Entry &e = table_[indexOf(pc)];
    if (!e.valid)
        return {};
    const ContextEntry &ctx = contexts_[contextOf(e)];
    const bool fcm_usable = ctx.confidence.value() > threshold_;
    const bool stride_usable = e.strideConf.value() > threshold_;
    // Tournament: prefer the context prediction when it is at least as
    // confident -- it subsumes strides it has seen, and only it can
    // catch non-stride repetition.
    if (fcm_usable &&
        (!stride_usable ||
         ctx.confidence.value() >= e.strideConf.value()))
        return {true, ctx.value};
    if (stride_usable)
        return {true, e.lastValue + static_cast<std::uint32_t>(e.stride)};
    return {};
}

void
FcmStrideValuePredictor::update(std::uint64_t pc, std::uint32_t actual)
{
    Entry &e = table_[indexOf(pc)];
    if (!e.valid) {
        e.lastValue = actual;
        e.stride = 0;
        e.history = foldHistory(0, actual);
        e.strideConf = SatCounter{2, 0};
        e.valid = true;
        return;
    }

    // Second level first, keyed by the *pre-update* context.
    ContextEntry &ctx = contexts_[contextOf(e)];
    if (ctx.value == actual) {
        ctx.confidence.increment(1);
    } else {
        ctx.confidence.decrement(2);
        if (ctx.confidence.value() == 0)
            ctx.value = actual;
    }

    // Stride side: two-delta-style confirmation.
    const std::int32_t delta = static_cast<std::int32_t>(
        actual - e.lastValue);
    if (delta == e.stride)
        e.strideConf.increment(1);
    else
        e.strideConf.decrement(2);
    e.stride = delta;
    e.lastValue = actual;

    // Age the context: keep only the last historyLength_ values by
    // re-folding from scratch is O(n); instead rely on the rotate
    // width (32 / 5 shifts ~ 6 values) and mask the tail by folding
    // the new value in.
    e.history = foldHistory(e.history, actual);
    if (historyLength_ < 6) {
        // Short histories: clear high bits so old values age out
        // faster than the rotate period alone would allow.
        e.history &= (1u << (5 * historyLength_ + 2)) - 1;
    }
}

void
FcmStrideValuePredictor::reset()
{
    for (Entry &e : table_)
        e = Entry{};
    for (ContextEntry &c : contexts_)
        c = ContextEntry{};
}

} // namespace ddsc::spec
