/**
 * @file
 * Unit tests for trace records, sources, file I/O (including the v3
 * CRC footer, v2 legacy compatibility, and corruption diagnostics),
 * statistics, and the synthetic generator.
 */

#include <cstdio>
#include <fstream>
#include <tuple>
#include <vector>
#include <gtest/gtest.h>

#include "support/fault.hh"
#include "test_helpers.hh"
#include "trace/dep_arcs.hh"
#include "trace/record.hh"
#include "trace/source.hh"
#include "trace/synthetic.hh"
#include "trace/trace_stats.hh"

namespace ddsc
{
namespace
{

using test::Rec;
using test::alu;
using test::aluImm;
using test::branch;
using test::load;
using test::store;

TEST(Record, DestRegOfAlu)
{
    const TraceRecord rec = alu(Opcode::ADD, 3, 1, 2);
    EXPECT_EQ(rec.destReg(), 3);
}

TEST(Record, WritesToR0AreDiscarded)
{
    const TraceRecord rec = alu(Opcode::SUBCC, 0, 1, 2);   // cmp
    EXPECT_EQ(rec.destReg(), -1);
}

TEST(Record, StoreHasNoDest)
{
    const TraceRecord rec = store(5, 2, 0, 0x1000);
    EXPECT_EQ(rec.destReg(), -1);
}

TEST(Record, CallWritesLink)
{
    TraceRecord rec = Rec(Opcode::CALL);
    EXPECT_EQ(rec.destReg(), kRegLink);
}

TEST(Record, DataSourcesOfAlu)
{
    const TraceRecord rec = alu(Opcode::ADD, 3, 1, 2);
    const auto srcs = rec.dataSources();
    EXPECT_EQ(srcs[0], 1);
    EXPECT_EQ(srcs[1], 2);
}

TEST(Record, ImmediateSecondSourceIsNotARegister)
{
    const TraceRecord rec = aluImm(Opcode::ADD, 3, 1, 42);
    const auto srcs = rec.dataSources();
    EXPECT_EQ(srcs[0], 1);
    EXPECT_EQ(srcs[1], -1);
}

TEST(Record, ReadsOfR0AreNotDependences)
{
    const TraceRecord rec = alu(Opcode::ADD, 3, 0, 2);
    const auto srcs = rec.dataSources();
    EXPECT_EQ(srcs[0], 2);
    EXPECT_EQ(srcs[1], -1);
}

TEST(Record, LoadSeparatesAddressSources)
{
    const TraceRecord rec = Rec(Opcode::LDW).rd(4).rs1(2).rs2(3)
        .ea(0x1000);
    const auto addr = rec.addressSources();
    EXPECT_EQ(addr[0], 2);
    EXPECT_EQ(addr[1], 3);
    const auto data = rec.dataSources();
    EXPECT_EQ(data[0], -1);
}

TEST(Record, StoreDataIsANonAddressSource)
{
    const TraceRecord rec = store(5, 2, 8, 0x1000);
    const auto addr = rec.addressSources();
    EXPECT_EQ(addr[0], 2);
    EXPECT_EQ(addr[1], -1);
    const auto data = rec.dataSources();
    EXPECT_EQ(data[0], 5);
}

TEST(Record, RetReadsLink)
{
    TraceRecord rec = Rec(Opcode::RET);
    const auto data = rec.dataSources();
    EXPECT_EQ(data[0], kRegLink);
}

TEST(DepArcs, RegisterAndCcArcsInCanonicalOrder)
{
    const std::vector<TraceRecord> recs = {
        alu(Opcode::ADD, 1, 2, 3),      // 0: no producer in the trace
        alu(Opcode::SUBCC, 4, 1, 1),    // 1: reads r1 twice, sets cc
        load(5, 4, 0, 0x100),           // 2: address from 1
        store(5, 1, 0, 0x200),          // 3: data from 2, address from 0
        branch(Cond::EQ, true),         // 4: cc from 1
        alu(Opcode::ADD, 1, 5, 0),      // 5: data from 2; r0 is no arc
        alu(Opcode::ADD, 6, 1, 4),      // 6: r1 from 5 (renamed), r4 from 1
    };
    const std::vector<DepArc> arcs = registerArcs(recs);
    const std::vector<std::tuple<std::size_t, std::size_t, DepKind>>
        expect = {
            {0, 1, DepKind::Data},    {0, 1, DepKind::Data},
            {1, 2, DepKind::Address}, {2, 3, DepKind::Data},
            {0, 3, DepKind::Address}, {1, 4, DepKind::CC},
            {2, 5, DepKind::Data},    {5, 6, DepKind::Data},
            {1, 6, DepKind::Data},
        };
    ASSERT_EQ(arcs.size(), expect.size());
    for (std::size_t i = 0; i < arcs.size(); ++i) {
        EXPECT_EQ(std::make_tuple(arcs[i].producer, arcs[i].consumer,
                                  arcs[i].kind),
                  expect[i])
            << "arc " << i;
    }
    EXPECT_EQ(depKindName(DepKind::Address), "address");
}

TEST(Record, MemSize)
{
    EXPECT_EQ(load(1, 2, 0, 0).memSize(), 4u);
    TraceRecord byte_load = Rec(Opcode::LDB).rd(1).rs1(2).imm(0);
    EXPECT_EQ(byte_load.memSize(), 1u);
}

TEST(Record, NonZeroOperandCount)
{
    EXPECT_EQ(alu(Opcode::ADD, 3, 1, 2).nonZeroOperandCount(), 2u);
    EXPECT_EQ(aluImm(Opcode::ADD, 3, 1, 5).nonZeroOperandCount(), 2u);
    EXPECT_EQ(aluImm(Opcode::ADD, 3, 1, 0).nonZeroOperandCount(), 1u);
    EXPECT_EQ(alu(Opcode::ADD, 3, 0, 2).nonZeroOperandCount(), 1u);
    // Store: base + offset + data.
    EXPECT_EQ(store(5, 2, 4, 0).nonZeroOperandCount(), 3u);
    EXPECT_EQ(store(0, 2, 0, 0).nonZeroOperandCount(), 1u);
    // Branch: the cc arc is not a value slot.
    EXPECT_EQ(branch(Cond::EQ, true).nonZeroOperandCount(), 0u);
}

TEST(Record, HasZeroOperand)
{
    EXPECT_FALSE(alu(Opcode::ADD, 3, 1, 2).hasZeroOperand());
    EXPECT_TRUE(aluImm(Opcode::ADD, 3, 1, 0).hasZeroOperand());
    EXPECT_TRUE(store(0, 2, 4, 0).hasZeroOperand());
}

TEST(VectorSource, IterationAndReset)
{
    VectorTraceSource src({alu(Opcode::ADD, 1, 2, 3),
                           alu(Opcode::SUB, 4, 5, 6)});
    TraceRecord rec;
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.op, Opcode::ADD);
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.op, Opcode::SUB);
    EXPECT_FALSE(src.next(rec));
    src.reset();
    ASSERT_TRUE(src.next(rec));
    EXPECT_EQ(rec.op, Opcode::ADD);
}

TEST(BoundedSource, TruncatesAndResets)
{
    VectorTraceSource inner({alu(Opcode::ADD, 1, 2, 3),
                             alu(Opcode::SUB, 4, 5, 6),
                             alu(Opcode::XOR, 7, 8, 9)});
    BoundedTraceSource bounded(inner, 2);
    TraceRecord rec;
    EXPECT_TRUE(bounded.next(rec));
    EXPECT_TRUE(bounded.next(rec));
    EXPECT_FALSE(bounded.next(rec));
    bounded.reset();
    EXPECT_TRUE(bounded.next(rec));
    EXPECT_EQ(rec.op, Opcode::ADD);
}

TEST(TraceFile, RoundTrip)
{
    const std::string path = testing::TempDir() + "/ddsc_roundtrip.trc";
    std::vector<TraceRecord> records = {
        load(4, 2, 8, 0x40001000, 0x10004),
        branch(Cond::NE, true, 0x10008),
        aluImm(Opcode::SUBCC, 0, 7, -3, 0x1000c),
    };
    {
        TraceFileWriter writer(path);
        for (const auto &rec : records)
            writer.emit(rec);
    }
    TraceFileSource reader(path);
    EXPECT_EQ(reader.count(), records.size());
    TraceRecord rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.op, Opcode::LDW);
    EXPECT_EQ(rec.ea, 0x40001000u);
    EXPECT_EQ(rec.pc, 0x10004u);
    EXPECT_EQ(rec.rd, 4);
    EXPECT_EQ(rec.rs1, 2);
    EXPECT_TRUE(rec.useImm);
    EXPECT_EQ(rec.imm, 8);
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.op, Opcode::BCC);
    EXPECT_EQ(rec.cond, Cond::NE);
    EXPECT_TRUE(rec.taken);
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.imm, -3);
    EXPECT_FALSE(reader.next(rec));
    reader.reset();
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.op, Opcode::LDW);
    std::remove(path.c_str());
}

/** Read a whole file into a byte string. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Overwrite @p path with @p bytes. */
void
spew(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** Write a small valid v3 trace file and return its path.  (v3 is
 *  requested explicitly: the writer's default is the blocked v4
 *  layout, and these tests pin v3's flat byte geometry.) */
std::string
writeSampleTrace(const std::string &name, std::size_t records = 5)
{
    const std::string path = testing::TempDir() + "/" + name;
    TraceFileWriter writer(path, 3);
    for (std::size_t i = 0; i < records; ++i) {
        writer.emit(aluImm(Opcode::ADD, 3, 1,
                           static_cast<std::int32_t>(i),
                           0x10000 + 4 * i));
    }
    writer.close();
    return path;
}

constexpr std::size_t kTrcHeaderBytes = 24;
constexpr std::size_t kTrcRecordBytes = 40;
constexpr std::size_t kTrcFooterBytes = 16;

TEST(TraceFile, WriterProducesV3WithFooter)
{
    const std::string path = writeSampleTrace("v3_layout.trc", 3);
    const std::string bytes = slurp(path);
    EXPECT_EQ(bytes.size(),
              kTrcHeaderBytes + 3 * kTrcRecordBytes + kTrcFooterBytes);
    EXPECT_EQ(bytes.substr(0, 8), "DDSCTRC1");
    EXPECT_EQ(bytes.substr(bytes.size() - kTrcFooterBytes, 8),
              "DDSCEOF1");
    TraceFileSource reader(path);
    EXPECT_EQ(reader.version(), 3u);
    EXPECT_EQ(reader.count(), 3u);
    std::remove(path.c_str());
}

TEST(TraceFile, V2LegacyStillReadable)
{
    // A v2 file is a v3 file minus the footer, with version = 2 in the
    // header; old traces on disk must keep loading.
    const std::string path = writeSampleTrace("v2_compat.trc", 4);
    std::string bytes = slurp(path);
    bytes.resize(bytes.size() - kTrcFooterBytes);
    bytes[8] = 2;   // little-endian version field
    spew(path, bytes);

    TraceFileSource reader(path);
    EXPECT_EQ(reader.version(), 2u);
    EXPECT_EQ(reader.count(), 4u);
    TraceRecord rec;
    for (unsigned i = 0; i < 4; ++i) {
        ASSERT_TRUE(reader.next(rec));
        EXPECT_EQ(rec.imm, static_cast<std::int32_t>(i));
    }
    EXPECT_FALSE(reader.next(rec));
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, UnknownVersionNamesRebuildTool)
{
    const std::string path = writeSampleTrace("v9_reject.trc");
    std::string bytes = slurp(path);
    bytes[8] = 9;
    spew(path, bytes);
    EXPECT_EXIT({ TraceFileSource reader(path); },
                testing::ExitedWithCode(1),
                "version 9.*rebuild the trace with ddsc-asm");
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, TruncationNamesByteOffsetAndRecord)
{
    // Cut the file mid-record 2: the diagnostic must carry the actual
    // end offset, the promised byte count, and the record index.
    const std::string path = writeSampleTrace("trunc_diag.trc", 5);
    std::string bytes = slurp(path);
    bytes.resize(kTrcHeaderBytes + 2 * kTrcRecordBytes + 7);
    spew(path, bytes);
    EXPECT_EXIT({ TraceFileSource reader(path); },
                testing::ExitedWithCode(1),
                "promises 5 records \\(240 bytes\\) but the file ends "
                "at byte offset 111, inside record 2");
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, CountSmallerThanFileIsRejected)
{
    const std::string path = writeSampleTrace("garbage_tail.trc", 2);
    std::string bytes = slurp(path);
    bytes += "extra";
    spew(path, bytes);
    EXPECT_EXIT({ TraceFileSource reader(path); },
                testing::ExitedWithCode(1),
                "trailing garbage");
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, BitFlipFailsFooterCrc)
{
    const std::string path = writeSampleTrace("bitflip.trc", 5);
    std::string bytes = slurp(path);
    bytes[kTrcHeaderBytes + kTrcRecordBytes + 3] ^=
        static_cast<char>(0x40);
    spew(path, bytes);
    EXPECT_EXIT({ TraceFileSource reader(path); },
                testing::ExitedWithCode(1), "corrupt.*CRC32");
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, NotATraceFile)
{
    const std::string path = testing::TempDir() + "/not_a_trace.trc";
    spew(path, "this is sixteen+ bytes of not-a-trace-file content");
    EXPECT_EXIT({ TraceFileSource reader(path); },
                testing::ExitedWithCode(1), "not a ddsc trace file");
    std::remove(path.c_str());
}

#ifndef DDSC_NO_FAULT_INJECTION
TEST(TraceFileDeathTest, InjectedShortWriteDiagnosesOffset)
{
    const std::string path = testing::TempDir() + "/short_write.trc";
    EXPECT_EXIT(
        {
            support::faultArm("trace-short-write:3");
            TraceFileWriter writer(path, 3);
            for (unsigned i = 0; i < 5; ++i)
                writer.emit(alu(Opcode::ADD, 1, 2, 3));
        },
        testing::ExitedWithCode(1),
        "short write.*record 2 \\(byte offset 104\\)");
    support::faultArm("");
    std::remove(path.c_str());
}

TEST(TraceFileDeathTest, InjectedShortReadDiagnosesOffset)
{
    const std::string path = writeSampleTrace("short_read.trc", 5);
    EXPECT_EXIT(
        {
            support::faultArm("trace-short-read:4");
            TraceFileSource reader(path);
            TraceRecord rec;
            while (reader.next(rec)) {
            }
        },
        testing::ExitedWithCode(1),
        "short read at byte offset 144 \\(record 3 of 5\\)");
    support::faultArm("");
    std::remove(path.c_str());
}
#endif // DDSC_NO_FAULT_INJECTION

TEST(Digest, SensitiveToEveryArchitecturalField)
{
    const std::vector<TraceRecord> base = {
        load(4, 2, 8, 0x40001000, 0x10004),
        branch(Cond::NE, true, 0x10008),
    };
    const std::uint64_t digest = digestRecords(base);
    EXPECT_EQ(digestRecords(base), digest);    // deterministic

    auto mutated = [&base](auto &&edit) {
        std::vector<TraceRecord> copy = base;
        edit(copy);
        return digestRecords(copy);
    };
    EXPECT_NE(mutated([](auto &r) { r[0].pc ^= 4; }), digest);
    EXPECT_NE(mutated([](auto &r) { r[0].ea ^= 4; }), digest);
    EXPECT_NE(mutated([](auto &r) { r[0].memValue ^= 1; }), digest);
    EXPECT_NE(mutated([](auto &r) { r[0].imm += 1; }), digest);
    EXPECT_NE(mutated([](auto &r) { r[0].rd ^= 1; }), digest);
    EXPECT_NE(mutated([](auto &r) { r[1].taken = false; }), digest);
    EXPECT_NE(mutated([](auto &r) { r[1].target ^= 8; }), digest);
    EXPECT_NE(mutated([](auto &r) { r.pop_back(); }), digest);
}

TEST(Digest, VectorSourceExposesIt)
{
    VectorTraceSource src({alu(Opcode::ADD, 1, 2, 3)});
    EXPECT_EQ(src.digest(), digestRecords(src.records()));
}

TEST(TraceStats, InstructionMix)
{
    TraceStats stats;
    stats.account(alu(Opcode::ADD, 1, 2, 3));
    stats.account(load(4, 2, 0, 0x1000));
    stats.account(aluImm(Opcode::SUBCC, 0, 1, 0));
    stats.account(branch(Cond::EQ, false));
    EXPECT_EQ(stats.instructions(), 4u);
    EXPECT_EQ(stats.countOf(OpClass::Arith), 2u);
    EXPECT_EQ(stats.countOf(OpClass::Load), 1u);
    EXPECT_NEAR(stats.pctCondBranches(), 25.0, 1e-9);
    EXPECT_NEAR(stats.pctLoads(), 25.0, 1e-9);
}

TEST(TraceStats, BasicBlockSizes)
{
    TraceStats stats;
    // Two blocks: 3 instructions ending in a branch, then 1 + branch.
    stats.account(alu(Opcode::ADD, 1, 2, 3));
    stats.account(alu(Opcode::ADD, 1, 2, 3));
    stats.account(branch(Cond::EQ, true));
    stats.account(alu(Opcode::ADD, 1, 2, 3));
    stats.account(branch(Cond::EQ, false));
    EXPECT_EQ(stats.basicBlockSizes().samples(), 2u);
    EXPECT_EQ(stats.basicBlockSizes().count(3), 1u);
    EXPECT_EQ(stats.basicBlockSizes().count(2), 1u);
}

TEST(Synthetic, DeterministicForSameSeed)
{
    SyntheticTraceConfig config;
    config.instructions = 500;
    config.seed = 33;
    VectorTraceSource a = generateSynthetic(config);
    VectorTraceSource b = generateSynthetic(config);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.records()[i].pc, b.records()[i].pc);
        EXPECT_EQ(a.records()[i].op, b.records()[i].op);
        EXPECT_EQ(a.records()[i].ea, b.records()[i].ea);
        EXPECT_EQ(a.records()[i].taken, b.records()[i].taken);
    }
}

TEST(Synthetic, ProducesRequestedLength)
{
    SyntheticTraceConfig config;
    config.instructions = 1234;
    EXPECT_EQ(generateSynthetic(config).size(), 1234u);
}

TEST(Synthetic, ContainsTheRequestedClasses)
{
    SyntheticTraceConfig config;
    config.instructions = 20000;
    VectorTraceSource trace = generateSynthetic(config);
    TraceStats stats;
    stats.accountAll(trace);
    EXPECT_GT(stats.countOf(OpClass::Load), 0u);
    EXPECT_GT(stats.countOf(OpClass::Store), 0u);
    EXPECT_GT(stats.countOf(OpClass::Branch), 0u);
    EXPECT_GT(stats.countOf(OpClass::Shift), 0u);
    EXPECT_GT(stats.countOf(OpClass::Arith), 0u);
}

TEST(Synthetic, BranchesFollowCompares)
{
    SyntheticTraceConfig config;
    config.instructions = 5000;
    VectorTraceSource trace = generateSynthetic(config);
    const auto &records = trace.records();
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].isCondBranch() && i > 0) {
            EXPECT_TRUE(records[i - 1].setsCC());
        }
    }
}

} // anonymous namespace
} // namespace ddsc
