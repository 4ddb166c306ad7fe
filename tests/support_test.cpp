/**
 * @file
 * Unit tests for the support library: saturating counters, statistics
 * helpers, the deterministic RNG, table formatting, and the CRC-32.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "support/portfile.hh"
#include "support/random.hh"
#include "support/sat_counter.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "support/wire.hh"

namespace ddsc
{
namespace
{

TEST(SatCounter, StartsAtInitialValue)
{
    SatCounter ctr(2, 1);
    EXPECT_EQ(ctr.value(), 1u);
    EXPECT_EQ(ctr.max(), 3u);
}

TEST(SatCounter, SaturatesAtMax)
{
    SatCounter ctr(2, 3);
    ctr.increment();
    EXPECT_EQ(ctr.value(), 3u);
}

TEST(SatCounter, SaturatesAtZero)
{
    SatCounter ctr(2, 0);
    ctr.decrement();
    EXPECT_EQ(ctr.value(), 0u);
}

TEST(SatCounter, AsymmetricSteps)
{
    // The address-prediction confidence rule: +1 correct, -2 wrong.
    SatCounter ctr(2, 0);
    ctr.increment(1);
    ctr.increment(1);
    ctr.increment(1);
    EXPECT_EQ(ctr.value(), 3u);
    ctr.decrement(2);
    EXPECT_EQ(ctr.value(), 1u);
    ctr.decrement(2);
    EXPECT_EQ(ctr.value(), 0u);
}

TEST(SatCounter, TakenThreshold)
{
    SatCounter ctr(2, 0);
    EXPECT_FALSE(ctr.taken());
    ctr.set(1);
    EXPECT_FALSE(ctr.taken());
    ctr.set(2);
    EXPECT_TRUE(ctr.taken());
    ctr.set(3);
    EXPECT_TRUE(ctr.taken());
}

TEST(SatCounter, WidthOne)
{
    SatCounter ctr(1, 0);
    EXPECT_EQ(ctr.max(), 1u);
    ctr.increment();
    EXPECT_TRUE(ctr.taken());
}

TEST(Stats, HarmonicMeanMatchesHandComputation)
{
    const double values[] = {1.0, 2.0, 4.0};
    // 3 / (1 + 0.5 + 0.25) = 3 / 1.75
    EXPECT_NEAR(harmonicMean(values), 3.0 / 1.75, 1e-12);
}

TEST(Stats, HarmonicMeanOfEqualValuesIsThatValue)
{
    const double values[] = {2.5, 2.5, 2.5, 2.5};
    EXPECT_NEAR(harmonicMean(values), 2.5, 1e-12);
}

TEST(Stats, HarmonicMeanEmptyIsZero)
{
    EXPECT_EQ(harmonicMean({}), 0.0);
}

TEST(Stats, HarmonicMeanIsAtMostArithmetic)
{
    const double values[] = {0.5, 3.0, 7.0, 2.2};
    EXPECT_LE(harmonicMean(values), arithmeticMean(values));
}

TEST(Stats, PercentHandlesZeroWhole)
{
    EXPECT_EQ(percent(5, 0), 0.0);
    EXPECT_NEAR(percent(1, 4), 25.0, 1e-12);
}

TEST(Histogram, CountsAndSamples)
{
    Histogram h;
    h.add(1);
    h.add(1);
    h.add(7, 3);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(7), 3u);
    EXPECT_EQ(h.count(2), 0u);
    EXPECT_EQ(h.maxKey(), 7u);
}

TEST(Histogram, CumulativeFractions)
{
    Histogram h;
    h.add(1, 2);
    h.add(4, 2);
    EXPECT_NEAR(h.cumulativeAt(0), 0.0, 1e-12);
    EXPECT_NEAR(h.cumulativeAt(1), 0.5, 1e-12);
    EXPECT_NEAR(h.cumulativeAt(3), 0.5, 1e-12);
    EXPECT_NEAR(h.cumulativeAt(4), 1.0, 1e-12);
}

TEST(Histogram, Mean)
{
    Histogram h;
    h.add(2, 1);
    h.add(4, 1);
    EXPECT_NEAR(h.mean(), 3.0, 1e-12);
}

TEST(Histogram, BucketFractions)
{
    Histogram h;
    h.add(1, 5);    // bucket [1,2)
    h.add(3, 3);    // bucket [2,8)
    h.add(9, 2);    // bucket [8,inf)
    const std::uint64_t edges[] = {1, 2, 8};
    const auto fractions = h.bucketFractions(edges);
    ASSERT_EQ(fractions.size(), 3u);
    EXPECT_NEAR(fractions[0], 0.5, 1e-12);
    EXPECT_NEAR(fractions[1], 0.3, 1e-12);
    EXPECT_NEAR(fractions[2], 0.2, 1e-12);
}

TEST(Histogram, Merge)
{
    Histogram a, b;
    a.add(1, 2);
    b.add(1, 1);
    b.add(5, 4);
    a.merge(b);
    EXPECT_EQ(a.samples(), 7u);
    EXPECT_EQ(a.count(1), 3u);
    EXPECT_EQ(a.count(5), 4u);
}

/** The textbook bit-at-a-time CRC-32 (reflected 0xEDB88320). */
std::uint32_t
bytewiseCrc32(const std::uint8_t *p, std::size_t n, std::uint32_t seed)
{
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < n; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return ~crc;
}

TEST(Wire, Crc32MatchesBytewiseReference)
{
    using support::wire::crc32;
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);

    // Every length through two 128-byte strides, at every alignment.
    Rng rng(32);
    std::vector<std::uint8_t> buf(8 + 257);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 257; ++len) {
            ASSERT_EQ(crc32(buf.data() + offset, len),
                      bytewiseCrc32(buf.data() + offset, len, 0))
                << "offset " << offset << " length " << len;
        }
    }

    // Chaining through a seed equals one call over the concatenation,
    // wherever the split falls.
    const std::uint32_t whole = crc32(buf.data(), buf.size());
    for (std::size_t split = 0; split <= buf.size(); ++split) {
        const std::uint32_t head = crc32(buf.data(), split);
        ASSERT_EQ(crc32(buf.data() + split, buf.size() - split, head),
                  whole) << "split " << split;
    }
    EXPECT_EQ(crc32(buf.data(), 100, 0x12345678u),
              bytewiseCrc32(buf.data(), 100, 0x12345678u));
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceRoughlyUnbiased)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"long-name", "2.50"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    // Every line has the same length (trailing pad included).
    std::size_t first_len = out.find('\n');
    std::size_t pos = first_len + 1;
    while (pos < out.size()) {
        const std::size_t next = out.find('\n', pos);
        EXPECT_EQ(next - pos, first_len);
        pos = next + 1;
    }
}

TEST(TextTable, NumFormatsDigits)
{
    EXPECT_EQ(TextTable::num(1.234, 2), "1.23");
    EXPECT_EQ(TextTable::num(1.0, 0), "1");
}

TEST(PortFile, ReadToleratesMissingEmptyAndMalformed)
{
    const std::string path =
        "/tmp/ddsc-portfile-test-" + std::to_string(::getpid());
    std::remove(path.c_str());
    EXPECT_EQ(support::readPortFile(path), 0);        // missing

    for (const char *bytes : {"", "banana\n", "0\n", "70000\n"}) {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(bytes, f);
        std::fclose(f);
        EXPECT_EQ(support::readPortFile(path), 0) << bytes;
    }

    ASSERT_TRUE(support::writeOneLineAtomic(path, 7411));
    EXPECT_EQ(support::readPortFile(path), 7411);

    support::removeRuntimeFile(path);
    EXPECT_EQ(support::readPortFile(path), 0);
    support::removeRuntimeFile(path);   // idempotent on missing
}

TEST(PortFile, ConcurrentPollNeverSeesTornOrEmptyLine)
{
    // Regression for the original fopen("w")/fprintf port-file write:
    // the in-place truncate let a concurrent poller read an *empty*
    // file between open and write, which parses as port 0 and — in a
    // retry loop riding a supervised restart — as a spurious dead
    // generation.  With the atomic temp+rename write, a poller
    // hammering the file while every generation rewrites it must only
    // ever see a complete old line or a complete new line.
    const std::string path =
        "/tmp/ddsc-portfile-race-" + std::to_string(::getpid());
    ASSERT_TRUE(support::writeOneLineAtomic(path, 1024));

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> bad{0};
    std::thread poller([&]() {
        while (!done.load()) {
            const std::uint16_t port = support::readPortFile(path);
            ++reads;
            if (port < 1024)
                ++bad;      // 0 = torn/empty/missing observed
        }
    });

    // "Generations": rewrite the file a few thousand times with
    // distinct valid ports while the poller hammers it.
    for (unsigned generation = 0; generation < 4000; ++generation) {
        ASSERT_TRUE(
            support::writeOneLineAtomic(path,
                                        1024 + (generation % 60000)));
    }
    done.store(true);
    poller.join();

    EXPECT_GT(reads.load(), 0u);
    EXPECT_EQ(bad.load(), 0u);
    support::removeRuntimeFile(path);
}

} // anonymous namespace
} // namespace ddsc
