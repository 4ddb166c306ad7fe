#include "collapse_stats.hh"

#include <algorithm>

#include "support/logging.hh"

namespace ddsc
{

namespace
{

/** Add @p count to @p sig without building a std::string unless it
 *  is new. */
void
bump(SignatureMap &map, std::string_view sig, std::uint64_t count = 1)
{
    const auto it = map.lower_bound(sig);
    if (it != map.end() && it->first == sig)
        it->second += count;
    else
        map.emplace_hint(it, std::string(sig), count);
}

/** Spell the group of packed fragments @p frags as record() keys it:
 *  fragments oldest first, joined by '-'. */
std::string_view
spell(const std::uint64_t *frags, unsigned count,
      std::array<char, kMaxGroupSignature> &buf)
{
    char *p = buf.data();
    for (unsigned i = 0; i < count; ++i) {
        if (i > 0)
            *p++ = '-';
        p += appendPackedSignature(frags[i], p);
    }
    return {buf.data(), static_cast<std::size_t>(p - buf.data())};
}

} // anonymous namespace

void
CollapseStats::record(const CollapseEvent &event)
{
    ++events_;
    ++byCategory_[static_cast<unsigned>(event.category)];
    for (unsigned i = 0; i < event.distanceCount; ++i)
        distances_.add(event.distances[i]);
    if (event.groupSize == 2) {
        ++pairEvents_;
        bump(pairSignatures_, event.signature);
    } else {
        ddsc_assert(event.groupSize == 3, "group size %u", event.groupSize);
        ++tripleEvents_;
        bump(tripleSignatures_, event.signature);
    }
}

double
CollapseStats::pctOf(CollapseCategory c) const
{
    return percent(static_cast<double>(eventsOf(c)),
                   static_cast<double>(events_));
}

void
CollapseStats::merge(const CollapseStats &other)
{
    events_ += other.events_;
    pairEvents_ += other.pairEvents_;
    tripleEvents_ += other.tripleEvents_;
    collapsedInstructions_ += other.collapsedInstructions_;
    for (unsigned i = 0; i < kNumCollapseCategories; ++i)
        byCategory_[i] += other.byCategory_[i];
    distances_.merge(other.distances_);
    for (const auto &[sig, count] : other.pairSignatures_)
        pairSignatures_[sig] += count;
    for (const auto &[sig, count] : other.tripleSignatures_)
        tripleSignatures_[sig] += count;
}

void
CollapseStats::encode(std::string &out) const
{
    using support::wire::putString;
    using support::wire::putU64;
    putU64(out, events_);
    putU64(out, pairEvents_);
    putU64(out, tripleEvents_);
    putU64(out, collapsedInstructions_);
    for (unsigned i = 0; i < kNumCollapseCategories; ++i)
        putU64(out, byCategory_[i]);
    distances_.encode(out);
    putU64(out, static_cast<std::uint64_t>(pairSignatures_.size()));
    for (const auto &[sig, count] : pairSignatures_) {
        putString(out, sig);
        putU64(out, count);
    }
    putU64(out, static_cast<std::uint64_t>(tripleSignatures_.size()));
    for (const auto &[sig, count] : tripleSignatures_) {
        putString(out, sig);
        putU64(out, count);
    }
}

bool
CollapseStats::decode(support::wire::Reader &in)
{
    *this = CollapseStats();
    events_ = in.u64();
    pairEvents_ = in.u64();
    tripleEvents_ = in.u64();
    collapsedInstructions_ = in.u64();
    for (unsigned i = 0; i < kNumCollapseCategories; ++i)
        byCategory_[i] = in.u64();
    if (!distances_.decode(in)) {
        *this = CollapseStats();
        return false;
    }
    const std::uint64_t pairs = in.u64();
    for (std::uint64_t i = 0; i < pairs && in.ok(); ++i) {
        std::string sig = in.str();
        pairSignatures_[std::move(sig)] = in.u64();
    }
    const std::uint64_t triples = in.u64();
    for (std::uint64_t i = 0; i < triples && in.ok(); ++i) {
        std::string sig = in.str();
        tripleSignatures_[std::move(sig)] = in.u64();
    }
    if (!in.ok()) {
        *this = CollapseStats();
        return false;
    }
    return true;
}

void
CollapseTally::clear()
{
    collapsedInstructions_ = 0;
    byCategory_ = {};
    std::fill(distances_.begin(), distances_.end(), std::uint64_t{0});
    pairs_.clear();
    triples_.clear();
}

void
CollapseTally::growDistances(std::uint64_t distance)
{
    distances_.resize(std::max<std::uint64_t>(
        {kInitialDistances, 2 * distances_.size(), distance + 1}));
}

void
CollapseTally::drainInto(CollapseStats &stats)
{
    stats.collapsedInstructions_ += collapsedInstructions_;
    for (unsigned i = 0; i < kNumCollapseCategories; ++i)
        stats.byCategory_[i] += byCategory_[i];
    for (std::size_t d = 0; d < distances_.size(); ++d) {
        if (distances_[d] != 0)
            stats.distances_.add(d, distances_[d]);
    }
    std::array<char, kMaxGroupSignature> buf;
    pairs_.forEach([&](const std::uint64_t *key, std::uint64_t count) {
        bump(stats.pairSignatures_, spell(key, 2, buf), count);
        stats.pairEvents_ += count;
        stats.events_ += count;
    });
    triples_.forEach([&](const std::uint64_t *key, std::uint64_t count) {
        bump(stats.tripleSignatures_, spell(key, 3, buf), count);
        stats.tripleEvents_ += count;
        stats.events_ += count;
    });
    clear();
}

void
CollapseTally::SignatureTable::clear()
{
    for (Slot &slot : slots_)
        slot.count = 0;
    used_ = 0;
}

void
CollapseTally::SignatureTable::insert(std::size_t i, std::uint64_t a,
                                      std::uint64_t b, std::uint64_t c)
{
    if (2 * (used_ + 1) > slots_.size()) {
        std::vector<Slot> old(2 * slots_.size());
        old.swap(slots_);
        --shift_;
        for (const Slot &slot : old) {
            if (slot.count == 0)
                continue;
            std::size_t j = home(slot.key[0], slot.key[1], slot.key[2]);
            while (slots_[j].count != 0)
                j = (j + 1) & (slots_.size() - 1);
            slots_[j] = slot;
        }
        i = home(a, b, c);
        while (slots_[i].count != 0)
            i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = {{a, b, c}, 1};
    ++used_;
}

std::vector<std::pair<std::string, double>>
CollapseStats::topSignatures(unsigned group_size, std::size_t n) const
{
    const auto &table = group_size == 2 ? pairSignatures_
                                        : tripleSignatures_;
    const auto total = group_size == 2 ? pairEvents_ : tripleEvents_;
    std::vector<std::pair<std::string, std::uint64_t>> entries(
        table.begin(), table.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    if (entries.size() > n)
        entries.resize(n);
    std::vector<std::pair<std::string, double>> out;
    out.reserve(entries.size());
    for (const auto &[sig, count] : entries) {
        out.emplace_back(sig, percent(static_cast<double>(count),
                                      static_cast<double>(total)));
    }
    return out;
}

} // namespace ddsc
