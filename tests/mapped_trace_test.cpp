/**
 * @file
 * Tests for the DDSCTRC v4 blocked layout: writer geometry, the
 * streaming and mmap'd readers' corruption diagnostics (block-accurate
 * truncation, lazy per-block CRCs, trailing garbage, length-bomb
 * headers), close-time durability, LRU residency/eviction, and
 * mapped-vs-vector digest identity under concurrent cursors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "support/fault.hh"
#include "support/wire.hh"
#include "test_helpers.hh"
#include "trace/format.hh"
#include "trace/mapped.hh"
#include "trace/record.hh"
#include "trace/source.hh"

namespace ddsc
{
namespace
{

using test::aluImm;

// One-page blocks keep the fixtures small: 4096 / 40 = 102 records
// per block, so ~250 records already span three blocks with a partial
// tail.
constexpr std::uint32_t kBlock = 4096;
constexpr std::uint64_t kPerBlock = kBlock / 40;

std::vector<TraceRecord>
sampleRecords(std::size_t n)
{
    std::vector<TraceRecord> records;
    records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        records.push_back(aluImm(Opcode::ADD, 3, 1,
                                 static_cast<std::int32_t>(i),
                                 0x10000 + 4 * i));
    }
    return records;
}

/** Write @p n sample records as a v4 file with one-page blocks. */
std::string
writeV4(const std::string &name, std::size_t n,
        std::uint32_t blockSize = kBlock)
{
    const std::string path = testing::TempDir() + "/" + name;
    TraceFileWriter writer(path, 4, blockSize);
    for (const TraceRecord &rec : sampleRecords(n))
        writer.emit(rec);
    writer.close();
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
spew(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** Fold @p src's full stream through the shared record digest. */
std::uint64_t
walkDigest(const SharedTrace &src, std::uint64_t *walked = nullptr)
{
    RecordDigest digest;
    const std::unique_ptr<TraceSource> cursor = src.cursor();
    TraceRecord rec;
    std::uint64_t n = 0;
    while (cursor->next(rec)) {
        digest.add(rec);
        ++n;
    }
    if (walked)
        *walked = n;
    return digest.value();
}

TEST(V4Layout, BlockedGeometryOnDisk)
{
    // 250 records, 102 per block: 3 blocks, the last holding 46.
    const std::string path = writeV4("v4_layout.trc", 250);
    const std::string bytes = slurp(path);
    const std::size_t blocks = 3;
    EXPECT_EQ(bytes.size(),
              4096 + blocks * kBlock + 16 + blocks * 4 + 4);
    EXPECT_EQ(bytes.substr(0, 8), "DDSCTRC1");
    // Version 4, little-endian, right after the magic.
    EXPECT_EQ(static_cast<unsigned char>(bytes[8]), 4);
    EXPECT_EQ(bytes.substr(4096 + blocks * kBlock, 8), "DDSCEOF1");
    TraceFileSource reader(path);
    EXPECT_EQ(reader.version(), 4u);
    EXPECT_EQ(reader.count(), 250u);
    std::remove(path.c_str());
}

TEST(V4Layout, StreamingReaderRoundTripsAcrossBlocks)
{
    const std::string path = writeV4("v4_stream_rt.trc", 250);
    TraceFileSource reader(path);
    TraceRecord rec;
    for (unsigned i = 0; i < 250; ++i) {
        ASSERT_TRUE(reader.next(rec)) << "record " << i;
        EXPECT_EQ(rec.imm, static_cast<std::int32_t>(i));
    }
    EXPECT_FALSE(reader.next(rec));
    reader.reset();
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.imm, 0);
    std::remove(path.c_str());
}

TEST(V4Layout, EmptyTraceRoundTrips)
{
    const std::string path = writeV4("v4_empty.trc", 0);
    TraceFileSource reader(path);
    EXPECT_EQ(reader.count(), 0u);
    TraceRecord rec;
    EXPECT_FALSE(reader.next(rec));

    MappedTraceSource mapped(path);
    EXPECT_EQ(mapped.recordCount(), 0u);
    EXPECT_FALSE(mapped.cursor()->next(rec));
    std::remove(path.c_str());
}

TEST(Mapped, CursorMatchesVectorPathBitForBit)
{
    const std::vector<TraceRecord> records = sampleRecords(250);
    const std::string path = writeV4("v4_equiv.trc", 250);

    const VectorTraceSource vec(records);
    MappedTraceSource mapped(path);
    EXPECT_EQ(mapped.recordCount(), vec.recordCount());
    // The O(1) header digest, the cursor-refolded digest, and the
    // vector path's digest must all be the same number.
    EXPECT_EQ(mapped.digest(), vec.digest());
    std::uint64_t walked = 0;
    EXPECT_EQ(walkDigest(mapped, &walked), vec.digest());
    EXPECT_EQ(walked, 250u);

    // Field-level spot check across a block boundary.
    const std::unique_ptr<TraceSource> cursor = mapped.cursor();
    TraceRecord rec;
    for (unsigned i = 0; i < 250; ++i) {
        ASSERT_TRUE(cursor->next(rec));
        EXPECT_EQ(rec.pc, records[i].pc);
        EXPECT_EQ(rec.imm, records[i].imm);
        EXPECT_EQ(rec.op, records[i].op);
    }
    EXPECT_FALSE(cursor->next(rec));
    std::remove(path.c_str());
}

TEST(Mapped, IndependentAndConcurrentCursors)
{
    const std::string path = writeV4("v4_cursors.trc", 250);
    MappedTraceSource mapped(path);
    const std::uint64_t expect = mapped.digest();

    // Two interleaved cursors do not disturb each other.
    const std::unique_ptr<TraceSource> a = mapped.cursor();
    const std::unique_ptr<TraceSource> b = mapped.cursor();
    TraceRecord ra, rb;
    ASSERT_TRUE(a->next(ra));
    ASSERT_TRUE(a->next(ra));
    ASSERT_TRUE(b->next(rb));
    EXPECT_EQ(rb.imm, 0);
    EXPECT_EQ(ra.imm, 1);

    // Racing full walks (also racing the lazy block validation) all
    // see the same stream.
    std::vector<std::thread> threads;
    std::vector<std::uint64_t> digests(4, 0);
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back([&mapped, &digests, t]() {
            digests[t] = walkDigest(mapped);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::uint64_t d : digests)
        EXPECT_EQ(d, expect);
    std::remove(path.c_str());
}

TEST(Mapped, ProbeReadsHeaderWithoutValidatingBody)
{
    const std::string path = writeV4("v4_probe.trc", 250);
    std::uint64_t digest = 0, count = 0;
    EXPECT_TRUE(MappedTraceSource::probe(path, &digest, &count));
    EXPECT_EQ(count, 250u);
    EXPECT_EQ(digest, MappedTraceSource(path).digest());

    // v3 files and non-traces probe false, never fatal.
    const std::string v3 = testing::TempDir() + "/probe_v3.trc";
    {
        TraceFileWriter writer(v3, 3);
        writer.emit(aluImm(Opcode::ADD, 3, 1, 7, 0x10000));
    }
    EXPECT_FALSE(MappedTraceSource::probe(v3));
    EXPECT_FALSE(MappedTraceSource::probe(testing::TempDir() +
                                          "/definitely_missing.trc"));
    std::remove(path.c_str());
    std::remove(v3.c_str());
}

TEST(Mapped, EvictedPagesRefaultIdenticalBytes)
{
    const std::string path = writeV4("v4_evict.trc", 250);
    MappedTraceSource mapped(path);
    const std::uint64_t before = walkDigest(mapped);
    mapped.evict();
    EXPECT_EQ(mapped.evictions(), 1u);
    // Mid-read eviction: start a cursor, evict, finish the walk.
    RecordDigest digest;
    const std::unique_ptr<TraceSource> cursor = mapped.cursor();
    TraceRecord rec;
    for (unsigned i = 0; i < 100; ++i) {
        ASSERT_TRUE(cursor->next(rec));
        digest.add(rec);
    }
    mapped.evict();
    while (cursor->next(rec))
        digest.add(rec);
    EXPECT_EQ(digest.value(), before);
    EXPECT_EQ(mapped.evictions(), 2u);
    std::remove(path.c_str());
}

TEST(Residency, LruEvictsColdestNeverTheTouched)
{
    const std::string pa = writeV4("res_a.trc", 250);
    const std::string pb = writeV4("res_b.trc", 250);
    MappedTraceSource a(pa), b(pb);

    TraceResidencyManager residency;
    // Budget fits one trace (~16.4 KB each) but not two.
    residency.setBudgetBytes(a.mappedBytes() + 100);

    residency.touch(a);
    TraceResidencyManager::Counters c = residency.counters();
    EXPECT_EQ(c.evictions, 0u);
    EXPECT_EQ(c.residentBytes, a.mappedBytes());

    residency.touch(b);     // over budget: a (coldest) is evicted
    c = residency.counters();
    EXPECT_EQ(c.evictions, 1u);
    EXPECT_EQ(c.residentBytes, b.mappedBytes());
    EXPECT_EQ(c.mappedBytes, a.mappedBytes() + b.mappedBytes());
    EXPECT_EQ(a.evictions(), 1u);
    EXPECT_EQ(b.evictions(), 0u);

    residency.touch(a);     // LRU flips: now b goes
    c = residency.counters();
    EXPECT_EQ(c.evictions, 2u);
    EXPECT_EQ(b.evictions(), 1u);

    // An evicted trace still reads back bit-identical.
    EXPECT_EQ(walkDigest(b), b.digest());

    // A budget of zero means unlimited: both stay resident.
    TraceResidencyManager unlimited;
    unlimited.touch(a);
    unlimited.touch(b);
    c = unlimited.counters();
    EXPECT_EQ(c.evictions, 0u);
    EXPECT_EQ(c.residentBytes, a.mappedBytes() + b.mappedBytes());

    residency.forget(a);
    residency.forget(b);
    std::remove(pa.c_str());
    std::remove(pb.c_str());
}

// --- corruption diagnostics ------------------------------------------

TEST(MappedDeathTest, TruncationAtBlockBoundaryNamesTheBlock)
{
    // Cut the file exactly at the start of block 2: both readers must
    // name block 2 and its record range.
    const std::string path = writeV4("v4_trunc_block.trc", 250);
    std::string bytes = slurp(path);
    bytes.resize(4096 + 2 * kBlock);
    spew(path, bytes);
    EXPECT_EXIT({ MappedTraceSource mapped(path); },
                testing::ExitedWithCode(1),
                "promises 250 records in 3 blocks .* inside block 2 "
                "\\(records 204\\.\\.249\\)");
    EXPECT_EXIT({ TraceFileSource reader(path); },
                testing::ExitedWithCode(1),
                "inside block 2 \\(records 204\\.\\.249\\)");
    std::remove(path.c_str());
}

TEST(MappedDeathTest, TruncationMidBlockNamesTheBlock)
{
    const std::string path = writeV4("v4_trunc_mid.trc", 250);
    std::string bytes = slurp(path);
    bytes.resize(4096 + kBlock + 17);   // 17 bytes into block 1
    spew(path, bytes);
    EXPECT_EXIT({ MappedTraceSource mapped(path); },
                testing::ExitedWithCode(1),
                "inside block 1 \\(records 102\\.\\.203\\)");
    EXPECT_EXIT({ TraceFileSource reader(path); },
                testing::ExitedWithCode(1),
                "inside block 1 \\(records 102\\.\\.203\\)");
    std::remove(path.c_str());
}

TEST(MappedDeathTest, TruncationInsideFooterIsDistinguished)
{
    const std::string path = writeV4("v4_trunc_footer.trc", 250);
    std::string bytes = slurp(path);
    bytes.resize(bytes.size() - 2);     // clip the tableCrc
    spew(path, bytes);
    EXPECT_EXIT({ MappedTraceSource mapped(path); },
                testing::ExitedWithCode(1),
                "truncated inside its footer");
    EXPECT_EXIT({ TraceFileSource reader(path); },
                testing::ExitedWithCode(1),
                "truncated inside its footer");
    std::remove(path.c_str());
}

TEST(MappedDeathTest, LayoutFaultsAreNamedByBothReaders)
{
    // Both readers run the same open-time layout checks, so every
    // layout fault gets the same diagnosis from either.  Header faults
    // re-stamp the header CRC, so the check under test is the one that
    // fires.  250 records are three blocks; the footer is its 16-byte
    // head, three table CRCs and the table's own CRC.
    const std::string path = writeV4("v4_layout_faults.trc", 250);
    const std::string clean = slurp(path);
    const std::size_t footer = clean.size() - (16 + 3 * 4 + 4);
    ASSERT_EQ(footer, 4096 + 3 * kBlock);
    const auto put32 = [](std::string &b, std::size_t at,
                          std::uint32_t v) {
        std::memcpy(&b[at], &v, sizeof v);
    };
    const auto putCount = [](std::string &b, std::uint64_t count) {
        std::memcpy(&b[16], &count, sizeof count);  // V4Header.count
    };
    const auto restamp = [](std::string &b) {
        const std::uint32_t crc = support::wire::crc32(b.data(), 36, 0);
        std::memcpy(&b[36], &crc, sizeof crc);      // V4Header.headerCrc
    };
    struct Fault
    {
        const char *what;
        std::function<void(std::string &)> corrupt;
        const char *message;
    };
    const std::vector<Fault> faults = {
        {"header CRC", [](std::string &b) { b[24] ^= 1; },
         "header CRC mismatch; the header is corrupt"},
        {"record size",
         [&](std::string &b) { put32(b, 32, 48); restamp(b); },
         "header says 48-byte records but this build uses 40-byte "
         "records"},
        {"block size",
         [&](std::string &b) { put32(b, 12, 1000); restamp(b); },
         "invalid block size 1000 \\(must be a nonzero multiple of "
         "4096, at most 1073741824\\)"},
        {"header page", [](std::string &b) { b.resize(100); },
         "truncated inside its header page: 100 of 4096 bytes"},
        {"length bomb",
         [&](std::string &b) { putCount(b, ~0ull - 7); restamp(b); },
         "header promises 18446744073709551608 records, whose byte "
         "span overflows a 64-bit offset"},
        {"count past the end",
         [&](std::string &b) { putCount(b, 400); restamp(b); },
         "header promises 400 records in 4 blocks \\(20516 bytes\\) "
         "but the file ends at byte offset 16416, inside block 3 "
         "\\(records 306\\.\\.399\\)"},
        {"count short of the end",
         [&](std::string &b) { putCount(b, 100); restamp(b); },
         "has 8200 bytes of trailing garbage after its footer "
         "\\(byte offset 8216\\)"},
        {"footer magic", [&](std::string &b) { b[footer] ^= 0x20; },
         "footer magic missing at byte offset 16384; the file was not "
         "finalized"},
        {"block count", [&](std::string &b) { put32(b, footer + 8, 2); },
         "footer lists 2 blocks but the header count implies 3"},
        {"table CRC", [&](std::string &b) { b[footer + 16] ^= 1; },
         "block CRC table is corrupt \\(table checksum mismatch\\)"},
    };
    for (const Fault &fault : faults) {
        std::string bytes = clean;
        fault.corrupt(bytes);
        spew(path, bytes);
        EXPECT_EXIT({ MappedTraceSource mapped(path); },
                    testing::ExitedWithCode(1), fault.message)
            << fault.what;
        EXPECT_EXIT({ TraceFileSource reader(path); },
                    testing::ExitedWithCode(1), fault.message)
            << fault.what;
    }
    std::remove(path.c_str());
}

TEST(MappedDeathTest, TrailingGarbageAfterFooterIsRejected)
{
    const std::string path = writeV4("v4_garbage.trc", 250);
    std::string bytes = slurp(path);
    bytes += "surprise";
    spew(path, bytes);
    EXPECT_EXIT({ MappedTraceSource mapped(path); },
                testing::ExitedWithCode(1),
                "8 bytes of trailing garbage after its footer");
    EXPECT_EXIT({ TraceFileSource reader(path); },
                testing::ExitedWithCode(1), "trailing garbage");
    std::remove(path.c_str());
}

TEST(MappedDeathTest, CorruptBlockIsDiagnosedLazilyOnEntry)
{
    // Flip one bit inside block 1's records.  Opening the map stays
    // cheap-and-successful (per-block CRCs are lazy), block 0 still
    // reads, and the fatal diagnosis fires when a cursor crosses into
    // block 1 — naming the block, record range, and byte offset.
    const std::string path = writeV4("v4_bitflip.trc", 250);
    std::string bytes = slurp(path);
    bytes[4096 + kBlock + 13] ^= 0x20;
    spew(path, bytes);

    {
        MappedTraceSource mapped(path);    // no death at open
        const std::unique_ptr<TraceSource> cursor = mapped.cursor();
        TraceRecord rec;
        for (unsigned i = 0; i < kPerBlock; ++i)
            ASSERT_TRUE(cursor->next(rec));    // block 0 is clean
        EXPECT_EQ(rec.imm, static_cast<std::int32_t>(kPerBlock - 1));
    }
    EXPECT_EXIT(
        {
            MappedTraceSource mapped(path);
            const std::unique_ptr<TraceSource> cursor = mapped.cursor();
            TraceRecord rec;
            for (unsigned i = 0; i <= kPerBlock; ++i)
                cursor->next(rec);
        },
        testing::ExitedWithCode(1),
        "corrupt: block 1 \\(records 102\\.\\.203, byte offset 8192\\)");

    // The streaming reader pins the same block (it settles CRCs as
    // the stream completes each block).
    EXPECT_EXIT(
        {
            TraceFileSource reader(path);
            TraceRecord rec;
            while (reader.next(rec)) {
            }
        },
        testing::ExitedWithCode(1), "corrupt: block 1 ");
    std::remove(path.c_str());
}

TEST(MappedDeathTest, LengthBombHeaderRejectedBeforeArithmetic)
{
    // Craft a header whose count would overflow 64-bit byte-span
    // arithmetic (count * 40 wraps).  Both readers must reject it as
    // a length bomb before computing any offset, not serve it to a
    // size check that the wrapped product would satisfy.
    const std::string path = writeV4("v4_bomb.trc", 250);
    std::string bytes = slurp(path);
    const std::uint64_t bomb = ~0ull - 7;
    std::memcpy(&bytes[16], &bomb, sizeof bomb);    // V4Header.count
    const std::uint32_t crc = support::wire::crc32(bytes.data(), 36, 0);
    std::memcpy(&bytes[36], &crc, sizeof crc);      // keep headerCrc valid
    spew(path, bytes);
    EXPECT_EXIT({ MappedTraceSource mapped(path); },
                testing::ExitedWithCode(1),
                "count field is corrupt \\(length bomb\\) and is "
                "rejected before any offset arithmetic");
    EXPECT_EXIT({ TraceFileSource reader(path); },
                testing::ExitedWithCode(1), "length bomb");
    std::remove(path.c_str());
}

TEST(MappedDeathTest, V3LengthBombRejectedToo)
{
    const std::string path = testing::TempDir() + "/v3_bomb.trc";
    {
        TraceFileWriter writer(path, 3);
        for (const TraceRecord &rec : sampleRecords(5))
            writer.emit(rec);
    }
    std::string bytes = slurp(path);
    const std::uint64_t bomb = ~0ull / 8;
    std::memcpy(&bytes[16], &bomb, sizeof bomb);    // FileHeader.count
    spew(path, bytes);
    EXPECT_EXIT({ TraceFileSource reader(path); },
                testing::ExitedWithCode(1), "length bomb");
    std::remove(path.c_str());
}

TEST(MappedDeathTest, MappedReaderRefusesStreamOnlyVersions)
{
    const std::string path = testing::TempDir() + "/v3_for_mmap.trc";
    {
        TraceFileWriter writer(path, 3);
        writer.emit(aluImm(Opcode::ADD, 3, 1, 7, 0x10000));
    }
    EXPECT_EXIT({ MappedTraceSource mapped(path); },
                testing::ExitedWithCode(1),
                "version 3 but the mapped reader serves only v4");
    std::remove(path.c_str());
}

#ifndef DDSC_NO_FAULT_INJECTION
TEST(MappedDeathTest, CloseTimeFlushFailureIsATornTrace)
{
    // ENOSPC/EIO surfacing only at the final fflush must still fail
    // loudly with the byte count — not report a written trace.
    const std::string path = testing::TempDir() + "/close_fail.trc";
    EXPECT_EXIT(
        {
            support::faultArm("trace-close-fail:1");
            TraceFileWriter writer(path, 4, kBlock);
            for (const TraceRecord &rec : sampleRecords(3))
                writer.emit(rec);
            writer.close();
        },
        testing::ExitedWithCode(1),
        // 4096 header + one 4096 block + 16 footer + 4 CRC + 4
        "torn at close: flushing 3 records \\(8216 bytes\\) failed "
        "\\[injected fault\\]");
    support::faultArm("");
    std::remove(path.c_str());
}
#endif // DDSC_NO_FAULT_INJECTION

} // anonymous namespace
} // namespace ddsc
