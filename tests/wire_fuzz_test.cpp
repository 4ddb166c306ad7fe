/**
 * @file
 * Fuzz-style pinning of the wire::Reader contract: decoding hostile
 * bytes never throws, never reads out of bounds, and never succeeds
 * on a strict prefix of a valid encoding.
 *
 * The three codecs that cross trust boundaries (the result store file
 * and the DDSN wire protocol) are exercised: SchedStats (the full
 * record), CollapseStats (nested maps with string keys), and
 * Histogram (length-prefixed bins).  For each one:
 *
 *  - every strict prefix of a valid encoding must decode to false;
 *  - corrupting any length-prefix byte to claim a huge count must
 *    decode to false without allocating the claimed length;
 *  - flipping every single byte (any position, any value class) must
 *    never throw — a flipped payload byte may still decode, but it
 *    must do so without UB.
 */

#include <gtest/gtest.h>

#include <string>

#include "collapse/collapse_stats.hh"
#include "core/sched_stats.hh"
#include "net/protocol.hh"
#include "sim/matrix_query.hh"
#include "sim/result_store.hh"
#include "support/stats.hh"
#include "support/wire.hh"

namespace ddsc
{
namespace
{

Histogram
sampleHistogram()
{
    Histogram h;
    h.add(1, 3);
    h.add(4, 7);
    h.add(2048, 1);
    return h;
}

CollapseStats
sampleCollapse()
{
    CollapseStats stats;
    CollapseEvent pair;
    pair.category = CollapseCategory::ThreeOne;
    pair.groupSize = 2;
    pair.signature = "arri-brc";
    pair.distances = {1, 0};
    pair.distanceCount = 1;
    stats.record(pair);

    CollapseEvent triple;
    triple.category = CollapseCategory::FourOne;
    triple.groupSize = 3;
    triple.signature = "arri-arri-brc";
    triple.distances = {2, 5};
    triple.distanceCount = 2;
    stats.record(triple);
    stats.noteCollapsedInstruction();
    return stats;
}

SchedStats
sampleSchedStats()
{
    SchedStats stats;
    stats.instructions = 123456;
    stats.cycles = 4321;
    stats.condBranches = 999;
    stats.mispredicts = 42;
    stats.ctiPredictions = 1000;
    stats.ctiMispredicts = 57;
    stats.loads = 300;
    for (unsigned i = 0; i < kNumLoadClasses; ++i)
        stats.loadClasses[i] = 10 + i;
    stats.eliminatedInstructions = 17;
    stats.valuePredHits = 80;
    stats.valuePredWrong = 20;
    stats.collapse = sampleCollapse();
    stats.collapse.setCollapsedInstructions(77);
    stats.issuedPerCycle = sampleHistogram();
    stats.wallNanos = 987654321;
    return stats;
}

/** Decode one encoding of type T via @p decode; used generically for
 *  all three codecs. */
template <typename Decoder>
void
expectEveryPrefixFails(const std::string &encoded, Decoder decode)
{
    for (std::size_t len = 0; len < encoded.size(); ++len) {
        support::wire::Reader reader(
            std::string_view(encoded).substr(0, len));
        EXPECT_FALSE(decode(reader)) << "prefix of " << len
                                     << " of " << encoded.size()
                                     << " bytes decoded";
        EXPECT_FALSE(reader.ok()) << "prefix " << len;
    }
}

template <typename Decoder>
void
expectNoByteFlipThrows(const std::string &encoded, Decoder decode)
{
    // Three value classes per position: huge (length-bomb), zero, and
    // a bit flip.  Each must decode or fail cleanly, never throw or
    // overread (the Reader is bounds-checked; ASan/TSan CI would
    // flag an escape).
    for (std::size_t pos = 0; pos < encoded.size(); ++pos) {
        for (const unsigned char value :
             {static_cast<unsigned char>(0xff),
              static_cast<unsigned char>(0x00),
              static_cast<unsigned char>(
                  static_cast<unsigned char>(encoded[pos]) ^ 0x40u)}) {
            std::string corrupt = encoded;
            corrupt[pos] = static_cast<char>(value);
            support::wire::Reader reader(corrupt);
            EXPECT_NO_THROW((void)decode(reader))
                << "byte " << pos << " set to "
                << static_cast<unsigned>(value);
        }
    }
}

TEST(WireFuzz, HistogramPrefixTruncationAlwaysFails)
{
    std::string encoded;
    sampleHistogram().encode(encoded);
    expectEveryPrefixFails(encoded, [](support::wire::Reader &in) {
        Histogram h;
        return h.decode(in);
    });
}

TEST(WireFuzz, HistogramCorruptedLengthNeverOverreads)
{
    std::string encoded;
    sampleHistogram().encode(encoded);
    // The first 8 bytes are the bin count; claim ~2^64 bins.
    for (std::size_t pos = 0; pos < 8; ++pos) {
        std::string corrupt = encoded;
        corrupt[pos] = '\xff';
        support::wire::Reader reader(corrupt);
        Histogram h;
        EXPECT_FALSE(h.decode(reader));
    }
    expectNoByteFlipThrows(encoded, [](support::wire::Reader &in) {
        Histogram h;
        return h.decode(in);
    });
}

TEST(WireFuzz, CollapseStatsPrefixTruncationAlwaysFails)
{
    std::string encoded;
    sampleCollapse().encode(encoded);
    expectEveryPrefixFails(encoded, [](support::wire::Reader &in) {
        CollapseStats stats;
        return stats.decode(in);
    });
}

TEST(WireFuzz, CollapseStatsByteCorruptionNeverThrows)
{
    std::string encoded;
    sampleCollapse().encode(encoded);
    expectNoByteFlipThrows(encoded, [](support::wire::Reader &in) {
        CollapseStats stats;
        return stats.decode(in);
    });
}

TEST(WireFuzz, SchedStatsPrefixTruncationAlwaysFails)
{
    std::string encoded;
    encodeSchedStats(encoded, sampleSchedStats());
    expectEveryPrefixFails(encoded, [](support::wire::Reader &in) {
        SchedStats stats;
        return decodeSchedStats(in, stats);
    });
}

TEST(WireFuzz, SchedStatsByteCorruptionNeverThrows)
{
    std::string encoded;
    encodeSchedStats(encoded, sampleSchedStats());
    expectNoByteFlipThrows(encoded, [](support::wire::Reader &in) {
        SchedStats stats;
        return decodeSchedStats(in, stats);
    });
}

TEST(WireFuzz, RoundTripsStillWork)
{
    // The fuzzing above is only meaningful if the encodings are valid
    // in the first place.
    {
        std::string encoded;
        sampleHistogram().encode(encoded);
        support::wire::Reader reader(encoded);
        Histogram h;
        ASSERT_TRUE(h.decode(reader));
        EXPECT_EQ(h.samples(), sampleHistogram().samples());
        EXPECT_EQ(reader.remaining(), 0u);
    }
    {
        std::string encoded;
        sampleCollapse().encode(encoded);
        support::wire::Reader reader(encoded);
        CollapseStats stats;
        ASSERT_TRUE(stats.decode(reader));
        EXPECT_EQ(stats.events(), sampleCollapse().events());
        EXPECT_EQ(reader.remaining(), 0u);
    }
    {
        std::string encoded;
        encodeSchedStats(encoded, sampleSchedStats());
        support::wire::Reader reader(encoded);
        SchedStats stats;
        ASSERT_TRUE(decodeSchedStats(reader, stats));
        EXPECT_EQ(stats.instructions, sampleSchedStats().instructions);
        EXPECT_EQ(reader.remaining(), 0u);
    }
}

// --- DDSN v4 fleet frames (v6 per-cell summaries) --------------------
// CellsBatch (router→shard fan-out), CellsReplyMsg (shard→router
// per-cell summaries), and HealthInfo with per-shard entries (router
// aggregated health) all cross the same trust boundary as the frames
// above and get the same treatment.

net::CellsBatch
sampleBatch()
{
    net::CellsBatch batch;
    for (const char *name : {"li", "go", "espresso"}) {
        net::CellRef ref;
        ref.workload = name;
        ref.config = 'D';
        ref.width = 16;
        batch.cells.push_back(ref);
    }
    batch.deadlineMs = 1500;
    return batch;
}

net::CellsReplyMsg
sampleCellsReply()
{
    net::CellsReplyMsg msg;
    net::CellOutcome ok;
    ok.cell.workload = "li";
    ok.cell.config = 'D';
    ok.cell.width = 16;
    ok.ok = 1;
    ok.stats = sampleSchedStats();
    msg.cells.push_back(ok);

    net::CellOutcome failed;
    failed.cell.workload = "go";
    failed.cell.config = 'E';
    failed.cell.width = 8;
    failed.ok = 0;
    failed.failure.key = "go/E/8";
    failed.failure.message = "injected fault: cell-throw";
    failed.failure.attempts = 3;
    msg.cells.push_back(failed);

    msg.simulated = 5;
    msg.storeHits = 2;
    msg.coalesced = 1;
    return msg;
}

net::HealthInfo
sampleFleetHealth()
{
    net::HealthInfo hi;
    hi.uptimeMs = 123456;
    hi.liveSessions = 3;
    hi.quarantinedCells = 1;
    hi.storeRecords = 44;
    for (unsigned i = 0; i < 3; ++i) {
        net::ShardHealth sh;
        sh.index = i;
        sh.state = static_cast<std::uint8_t>(i);    // one of each
        sh.generation = 2 * i;
        sh.restarts = i;
        sh.storeRecords = 10 + i;
        sh.port = i == 1 ? 0 : 40000 + i;
        hi.shards.push_back(sh);
    }
    return hi;
}

TEST(WireFuzz, CellsBatchPrefixTruncationAlwaysFails)
{
    std::string encoded;
    sampleBatch().encode(encoded);
    expectEveryPrefixFails(encoded, [](support::wire::Reader &in) {
        net::CellsBatch batch;
        return batch.decode(in);
    });
}

TEST(WireFuzz, CellsBatchLengthBombNeverOverallocates)
{
    std::string encoded;
    sampleBatch().encode(encoded);
    // The cell count leads the payload; claim ~2^64 cells.  The
    // kMaxCells cap has to reject it before any reserve().
    for (std::size_t pos = 0; pos < 8 && pos < encoded.size(); ++pos) {
        std::string corrupt = encoded;
        corrupt[pos] = '\xff';
        support::wire::Reader reader(corrupt);
        net::CellsBatch batch;
        EXPECT_FALSE(batch.decode(reader)) << "length byte " << pos;
    }
    expectNoByteFlipThrows(encoded, [](support::wire::Reader &in) {
        net::CellsBatch batch;
        return batch.decode(in);
    });
}

TEST(WireFuzz, CellsReplyPrefixTruncationAlwaysFails)
{
    std::string encoded;
    sampleCellsReply().encode(encoded);
    expectEveryPrefixFails(encoded, [](support::wire::Reader &in) {
        net::CellsReplyMsg msg;
        return msg.decode(in);
    });
}

TEST(WireFuzz, CellsReplyByteCorruptionNeverThrows)
{
    std::string encoded;
    sampleCellsReply().encode(encoded);
    expectNoByteFlipThrows(encoded, [](support::wire::Reader &in) {
        net::CellsReplyMsg msg;
        return msg.decode(in);
    });
}

TEST(WireFuzz, CellsReplyLengthBombNeverOverallocates)
{
    std::string encoded;
    sampleCellsReply().encode(encoded);
    // The little-endian u32 cell count leads the payload.  Any count
    // above the cap — 2^16 and up from one high byte, ~2^32 from all
    // four, or just kMaxCells + 1 — must be rejected before a single
    // CellOutcome is decoded.
    auto withCount = [&encoded](std::uint32_t n) {
        std::string bytes;
        support::wire::putU32(bytes, n);
        return bytes + encoded.substr(4);
    };
    auto rejected = [](const std::string &bytes) {
        support::wire::Reader reader(bytes);
        net::CellsReplyMsg msg;
        const bool ok = msg.decode(reader);
        return !ok && msg.cells.empty();
    };
    for (std::size_t pos = 1; pos < 4; ++pos) {
        std::string corrupt = encoded;
        corrupt[pos] = '\xff';
        EXPECT_TRUE(rejected(corrupt)) << "length byte " << pos;
    }
    EXPECT_TRUE(rejected(withCount(0xffffffffu)));
    EXPECT_TRUE(rejected(withCount(net::kMaxCells + 1)));
    // The cap is the only thing rejecting those: the true count
    // still decodes.
    const std::string honest = withCount(2);
    support::wire::Reader reader(honest);
    net::CellsReplyMsg msg;
    EXPECT_TRUE(msg.decode(reader));
}

TEST(WireFuzz, CellsReplyOkCellIsASummary)
{
    // One ok cell is its CellRef, the ok byte and the fixed summary —
    // nothing that grows with the record's histograms or signature
    // maps, however full sampleSchedStats() makes them.
    const net::CellOutcome ok = sampleCellsReply().cells.front();
    ASSERT_EQ(ok.ok, 1);
    ASSERT_GT(ok.stats.collapse.pairSignatures().size(), 0u);
    std::string encoded;
    ok.encode(encoded);
    std::string ref;
    ok.cell.encode(ref);
    EXPECT_EQ(kCellSummaryBytes, 32u);
    EXPECT_EQ(encoded.size(), ref.size() + 1 + kCellSummaryBytes);
    EXPECT_EQ(encoded.size(), 44u);     // "li"/D/16

    std::string direct;
    net::CellOutcome::encodeOk(direct, ok.cell, ok.stats);
    EXPECT_EQ(direct, encoded);
}

TEST(WireFuzz, FleetHealthPrefixTruncationAlwaysFails)
{
    std::string encoded;
    sampleFleetHealth().encode(encoded);
    expectEveryPrefixFails(encoded, [](support::wire::Reader &in) {
        net::HealthInfo hi;
        return hi.decode(in);
    });
}

TEST(WireFuzz, FleetHealthByteCorruptionNeverThrows)
{
    std::string encoded;
    sampleFleetHealth().encode(encoded);
    expectNoByteFlipThrows(encoded, [](support::wire::Reader &in) {
        net::HealthInfo hi;
        return hi.decode(in);
    });
}

TEST(WireFuzz, FleetFramesRoundTrip)
{
    {
        std::string encoded;
        sampleBatch().encode(encoded);
        support::wire::Reader reader(encoded);
        net::CellsBatch batch;
        ASSERT_TRUE(batch.decode(reader));
        EXPECT_EQ(reader.remaining(), 0u);
        ASSERT_EQ(batch.cells.size(), 3u);
        EXPECT_EQ(batch.cells[2].workload, "espresso");
        EXPECT_EQ(batch.cells[0].config, 'D');
        EXPECT_EQ(batch.cells[0].width, 16u);
        EXPECT_EQ(batch.deadlineMs, 1500u);
    }
    {
        std::string encoded;
        sampleCellsReply().encode(encoded);
        support::wire::Reader reader(encoded);
        net::CellsReplyMsg msg;
        ASSERT_TRUE(msg.decode(reader));
        EXPECT_EQ(reader.remaining(), 0u);
        ASSERT_EQ(msg.cells.size(), 2u);
        EXPECT_EQ(msg.cells[0].ok, 1);
        EXPECT_EQ(msg.cells[0].cell.workload, "li");
        // All four summary fields survive (each with a distinct value,
        // so a swap shows)...
        const SchedStats &full = sampleSchedStats();
        const SchedStats &got = msg.cells[0].stats;
        EXPECT_EQ(got.instructions, full.instructions);
        EXPECT_EQ(got.cycles, full.cycles);
        EXPECT_EQ(got.collapse.collapsedInstructions(),
                  full.collapse.collapsedInstructions());
        EXPECT_EQ(got.wallNanos, full.wallNanos);
        // ...and nothing else crosses the wire: the digest covers
        // every other field, histograms and signature maps included.
        SchedStats summary;
        summary.instructions = full.instructions;
        summary.cycles = full.cycles;
        summary.collapse.setCollapsedInstructions(
            full.collapse.collapsedInstructions());
        EXPECT_EQ(digestSchedStats(got), digestSchedStats(summary));
        EXPECT_EQ(msg.cells[1].ok, 0);
        EXPECT_EQ(msg.cells[1].failure.key, "go/E/8");
        EXPECT_EQ(msg.cells[1].failure.attempts, 3u);
        EXPECT_EQ(msg.simulated, 5u);
    }
    {
        std::string encoded;
        sampleFleetHealth().encode(encoded);
        support::wire::Reader reader(encoded);
        net::HealthInfo hi;
        ASSERT_TRUE(hi.decode(reader));
        EXPECT_EQ(reader.remaining(), 0u);
        ASSERT_EQ(hi.shards.size(), 3u);
        EXPECT_EQ(hi.shards[1].state, 1);
        EXPECT_EQ(hi.shards[2].generation, 4u);
        EXPECT_EQ(hi.shards[2].storeRecords, 12u);
    }
}

// --- DDSN v5 error frames -------------------------------------------
// ErrorMsg grew a trailing retryAfterMs hint in protocol v5, and the
// Cancelled code joined the typed set.  The trailer is deliberately
// decode-lenient: a v4-shaped frame (no trailer) must still decode
// with hint 0, because the overload shed fires before version
// negotiation and a v4 client may be on the other end.  That makes
// ErrorMsg the one codec here whose prefix-truncation rule has a
// single sanctioned exception — the exact v4 boundary.

net::ErrorMsg
sampleShed()
{
    net::ErrorMsg err;
    err.code = net::ErrCode::Overloaded;
    err.message = "admission queue full; retry shortly";
    err.retryAfterMs = 125;
    return err;
}

net::ErrorMsg
sampleCancelled()
{
    net::ErrorMsg err;
    err.code = net::ErrCode::Cancelled;
    err.message = "cell li/A/4 cancelled: deadline exceeded";
    err.retryAfterMs = 0;
    return err;
}

TEST(WireFuzz, ErrorMsgV5RoundTripsCancelledAndRetryHint)
{
    {
        std::string encoded;
        sampleShed().encode(encoded);
        support::wire::Reader reader(encoded);
        net::ErrorMsg err;
        ASSERT_TRUE(err.decode(reader));
        EXPECT_EQ(reader.remaining(), 0u);
        EXPECT_EQ(err.code, net::ErrCode::Overloaded);
        EXPECT_EQ(err.message, sampleShed().message);
        EXPECT_EQ(err.retryAfterMs, 125u);
    }
    {
        std::string encoded;
        sampleCancelled().encode(encoded);
        support::wire::Reader reader(encoded);
        net::ErrorMsg err;
        ASSERT_TRUE(err.decode(reader));
        EXPECT_EQ(reader.remaining(), 0u);
        EXPECT_EQ(err.code, net::ErrCode::Cancelled);
        EXPECT_EQ(err.message, sampleCancelled().message);
        EXPECT_EQ(err.retryAfterMs, 0u);
    }
}

TEST(WireFuzz, ErrorMsgPrefixTruncationFailsExceptV4Boundary)
{
    std::string encoded;
    sampleShed().encode(encoded);
    ASSERT_GT(encoded.size(), 8u);
    const std::size_t v4len = encoded.size() - 8;   // sans trailer
    for (std::size_t len = 0; len < encoded.size(); ++len) {
        support::wire::Reader reader(
            std::string_view(encoded).substr(0, len));
        net::ErrorMsg err;
        const bool decoded = err.decode(reader);
        if (len == v4len) {
            // The sanctioned downgrade: a v4 client's frame.  Same
            // code and message, hint defaults to 0 ("no hint"), and
            // the reader consumed everything cleanly.
            EXPECT_TRUE(decoded);
            EXPECT_TRUE(reader.ok());
            EXPECT_EQ(err.code, net::ErrCode::Overloaded);
            EXPECT_EQ(err.message, sampleShed().message);
            EXPECT_EQ(err.retryAfterMs, 0u);
        } else {
            EXPECT_FALSE(decoded) << "prefix of " << len
                                  << " of " << encoded.size()
                                  << " bytes decoded";
        }
    }
}

TEST(WireFuzz, ErrorMsgByteCorruptionNeverThrows)
{
    std::string encoded;
    sampleShed().encode(encoded);
    expectNoByteFlipThrows(encoded, [](support::wire::Reader &in) {
        net::ErrorMsg err;
        return err.decode(in);
    });
}

TEST(WireFuzz, ErrorMsgLengthBombNeverOverallocates)
{
    std::string encoded;
    sampleShed().encode(encoded);
    // The message length prefix sits right after the 1-byte code.
    std::string bomb = encoded;
    bomb[1] = static_cast<char>(0xff);
    bomb[2] = static_cast<char>(0xff);
    bomb[3] = static_cast<char>(0xff);
    bomb[4] = static_cast<char>(0x7f);
    support::wire::Reader reader(bomb);
    net::ErrorMsg err;
    EXPECT_FALSE(err.decode(reader));
    EXPECT_LE(err.message.capacity(), 1u << 20);
}

TEST(WireFuzz, ReaderZeroFillsAfterFirstFailure)
{
    std::string encoded;
    support::wire::putU32(encoded, 7);
    support::wire::Reader reader(encoded);
    EXPECT_EQ(reader.u32(), 7u);
    EXPECT_EQ(reader.u64(), 0u);    // past the end: latches false
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.u8(), 0u);     // stays zero forever after
    EXPECT_EQ(reader.str(), "");
    EXPECT_FALSE(reader.ok());
}

} // anonymous namespace
} // namespace ddsc
