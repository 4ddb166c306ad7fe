/**
 * @file
 * Tests for the node-elimination extension (paper Figure 1.f): a
 * producer absorbed by collapsing whose result nobody else reads
 * before it is overwritten need not execute at all.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/config.hh"
#include "core/scheduler.hh"
#include "test_helpers.hh"
#include "trace/synthetic.hh"
#include "workloads/workloads.hh"

namespace ddsc
{
namespace
{

using test::alu;
using test::aluImm;
using test::branch;
using test::traceOf;

SchedStats
runElim(std::vector<TraceRecord> records, unsigned width = 1,
        bool eliminate = true)
{
    MachineConfig config = MachineConfig::paper('C', width);
    config.nodeElimination = eliminate;
    VectorTraceSource trace = traceOf(std::move(records));
    LimitScheduler scheduler(config);
    return scheduler.run(trace);
}

TEST(NodeElimination, DeadCollapsedProducerIsEliminated)
{
    // P's only consumer collapsed it, and r1 is overwritten: P need
    // not execute.  At width 2 (window 4, so the overwriter is seen
    // before P issues) that saves an issue slot.
    std::vector<TraceRecord> recs = {
        alu(Opcode::ADD, 1, 2, 3, 0x10000),      // P
        alu(Opcode::ADD, 4, 1, 5, 0x10004),      // collapses P
        alu(Opcode::ADD, 1, 6, 7, 0x10008),      // overwrites r1
    };
    const SchedStats off = runElim(recs, 2, false);
    const SchedStats on = runElim(recs, 2, true);
    EXPECT_EQ(off.eliminatedInstructions, 0u);
    EXPECT_EQ(on.eliminatedInstructions, 1u);
    EXPECT_EQ(off.cycles, 2u);   // {P, consumer}, then the overwriter
    EXPECT_EQ(on.cycles, 1u);    // {consumer, overwriter} together
}

TEST(NodeElimination, ValueReaderBlocksElimination)
{
    // A multiply cannot absorb the producer, so it reads the real
    // value: the producer must execute.
    std::vector<TraceRecord> recs = {
        alu(Opcode::ADD, 1, 2, 3, 0x10000),      // P
        alu(Opcode::ADD, 4, 1, 5, 0x10004),      // collapses P
        alu(Opcode::MUL, 8, 1, 9, 0x10008),      // real value reader
        alu(Opcode::ADD, 1, 6, 7, 0x1000c),      // overwrites r1
    };
    const SchedStats on = runElim(recs, 4, true);
    EXPECT_EQ(on.eliminatedInstructions, 0u);
}

TEST(NodeElimination, NeverAbsorbedProducerIsNotEliminated)
{
    // Dead code that was never collapsed still executes (elimination
    // exists only inside the collapsing mechanism).
    std::vector<TraceRecord> recs = {
        alu(Opcode::MUL, 1, 2, 3, 0x10000),      // not collapsible
        alu(Opcode::ADD, 1, 6, 7, 0x10004),      // overwrites r1
    };
    const SchedStats on = runElim(recs, 4, true);
    EXPECT_EQ(on.eliminatedInstructions, 0u);
}

TEST(NodeElimination, LiveConditionCodesBlockElimination)
{
    // The cc writer's register result is dead, but a branch may still
    // consume the cc: no elimination while the cc is live.
    std::vector<TraceRecord> recs = {
        alu(Opcode::ADDCC, 1, 2, 3, 0x10000),    // P: sets cc
        alu(Opcode::ADD, 4, 1, 5, 0x10004),      // collapses P's value
        alu(Opcode::ADD, 1, 6, 7, 0x10008),      // overwrites r1
        branch(Cond::EQ, false, 0x1000c),        // reads P's cc
    };
    const SchedStats on = runElim(recs, 4, true);
    EXPECT_EQ(on.eliminatedInstructions, 0u);
}

TEST(NodeElimination, DeadCcWriterIsEliminatedAfterCcOverwrite)
{
    std::vector<TraceRecord> recs = {
        alu(Opcode::ADDCC, 1, 2, 3, 0x10000),    // P: sets cc
        alu(Opcode::ADD, 4, 1, 5, 0x10004),      // collapses P's value
        alu(Opcode::SUBCC, 0, 6, 7, 0x10008),    // overwrites the cc
        alu(Opcode::ADD, 1, 6, 7, 0x1000c),      // overwrites r1
        branch(Cond::EQ, false, 0x10010),        // reads the NEW cc
    };
    const SchedStats on = runElim(recs, 4, true);
    EXPECT_EQ(on.eliminatedInstructions, 1u);
}

TEST(NodeElimination, TimingNeverWorse)
{
    SyntheticTraceConfig config;
    config.instructions = 20000;
    for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
        config.seed = seed;
        VectorTraceSource trace = generateSynthetic(config);
        for (const unsigned width : {2u, 8u}) {
            MachineConfig off_cfg = MachineConfig::paper('D', width);
            MachineConfig on_cfg = off_cfg;
            on_cfg.nodeElimination = true;

            trace.reset();
            LimitScheduler off_sched(off_cfg);
            const SchedStats off = off_sched.run(trace);
            trace.reset();
            LimitScheduler on_sched(on_cfg);
            const SchedStats on = on_sched.run(trace);

            // Same instruction count; elimination frees issue slots,
            // so cycles may only shrink (up to greedy noise).
            EXPECT_EQ(on.instructions, off.instructions);
            EXPECT_LE(on.cycles,
                      off.cycles + off.cycles / 50) << seed << width;
        }
    }
}

/** Node-elimination digests (digestSchedStats) recorded from the
 *  wake-list engine before placement replaced it; elimination now runs
 *  on the scan engine alone, so these pinned values are its
 *  independent check.  "synthetic" is seed 77's 15k-record trace. */
struct PinnedElim
{
    const char *trace;
    char config;
    unsigned width;
    std::uint64_t digest;
};

const PinnedElim kPinnedElim[] = {
    {"synthetic", 'C', 4, 0xb8e9ab50c6fc8956ull},
    {"synthetic", 'C', 8, 0xd95d1c9670eecd54ull},
    {"synthetic", 'C', 16, 0xdecdca923d9891f1ull},
    {"synthetic", 'C', 32, 0xc91622fd998aa0d7ull},
    {"synthetic", 'D', 4, 0xfe57b7db978f9615ull},
    {"synthetic", 'D', 8, 0x86a5f1703fd531cdull},
    {"synthetic", 'D', 16, 0x0d766a3565c9008cull},
    {"synthetic", 'D', 32, 0x933a182bc488fb14ull},
    {"compress", 'C', 4, 0x0fecb918486aae1dull},
    {"compress", 'C', 8, 0xd0ba9431c96052aeull},
    {"compress", 'C', 16, 0x1907b121845b5f85ull},
    {"compress", 'C', 32, 0xb7af12b2e50b76c0ull},
    {"compress", 'D', 4, 0x65bdc31b6d49338bull},
    {"compress", 'D', 8, 0x421438e71f1ab758ull},
    {"compress", 'D', 16, 0xa93f725f526aef85ull},
    {"compress", 'D', 32, 0xf55a2fdb2021e435ull},
    {"eqntott", 'C', 4, 0x5607315c05c7cce1ull},
    {"eqntott", 'C', 8, 0x998b6ae680cc3fedull},
    {"eqntott", 'C', 16, 0xd2238aa2da0322e6ull},
    {"eqntott", 'C', 32, 0xd4af446f049227ccull},
    {"eqntott", 'C', 2048, 0x35b2cf5091ae33ebull},
    {"eqntott", 'D', 4, 0xcfb92692502ea172ull},
    {"eqntott", 'D', 8, 0xec32f3191f4393b5ull},
    {"eqntott", 'D', 16, 0x13e1e19050762aacull},
    {"eqntott", 'D', 32, 0x0b5ed63e2f845ca9ull},
    {"eqntott", 'D', 2048, 0x3d3349ce0de93d22ull},
    {"espresso", 'C', 4, 0xaa563d415c1a0383ull},
    {"espresso", 'C', 8, 0x679ea088655298dcull},
    {"espresso", 'C', 16, 0x050564d33f6be3e1ull},
    {"espresso", 'C', 32, 0xdcd6d6f52fc84053ull},
    {"espresso", 'C', 2048, 0xb70e9b07bec3911bull},
    {"espresso", 'D', 4, 0xfff1e91f73c56cd3ull},
    {"espresso", 'D', 8, 0x542d08a8de83ae64ull},
    {"espresso", 'D', 16, 0x8258bb4e58d72651ull},
    {"espresso", 'D', 32, 0x866a5ada7cb406adull},
    {"espresso", 'D', 2048, 0x0e6b560d4aeddfc4ull},
    {"go", 'C', 4, 0xc435870551517d32ull},
    {"go", 'C', 8, 0x67280540a93f3707ull},
    {"go", 'C', 16, 0xa363f68fe8560efeull},
    {"go", 'C', 32, 0xa860d1e83a78d9f9ull},
    {"go", 'D', 4, 0x553eb0518c7db933ull},
    {"go", 'D', 8, 0x2bdc337893357f1cull},
    {"go", 'D', 16, 0xc08a6d704f5f877bull},
    {"go", 'D', 32, 0xc86f595a88f68135ull},
    {"ijpeg", 'C', 4, 0x4309a87d54f2f8f0ull},
    {"ijpeg", 'C', 8, 0x5f66638d070e6262ull},
    {"ijpeg", 'C', 16, 0x21284bdf36ab71f3ull},
    {"ijpeg", 'C', 32, 0xdaf325eb0f480665ull},
    {"ijpeg", 'D', 4, 0xea64ffa70dec71f2ull},
    {"ijpeg", 'D', 8, 0x07837d278039345full},
    {"ijpeg", 'D', 16, 0xa2f8f054ec475ec4ull},
    {"ijpeg", 'D', 32, 0x4c4f0f17c84e9971ull},
    {"li", 'C', 4, 0xec26f6662e850c51ull},
    {"li", 'C', 8, 0x6b5e2f08d388918cull},
    {"li", 'C', 16, 0xac5a141bfa72dd5aull},
    {"li", 'C', 32, 0x6d6578141dbc4f19ull},
    {"li", 'D', 4, 0x75ab98c98cdedf3eull},
    {"li", 'D', 8, 0xfe89890add47431full},
    {"li", 'D', 16, 0x143774ca0fb213edull},
    {"li", 'D', 32, 0x217c662fff60b44eull},
};

TEST(NodeElimination, EnginesAgree)
{
    SyntheticTraceConfig synthetic;
    synthetic.instructions = 15000;
    synthetic.seed = 77;
    std::string loaded;
    VectorTraceSource trace;
    for (const PinnedElim &pin : kPinnedElim) {
        if (loaded != pin.trace) {
            loaded = pin.trace;
            trace = loaded == "synthetic"
                ? generateSynthetic(synthetic)
                : traceWorkload(findWorkload(loaded),
                                findWorkload(loaded).testScale);
        }
        MachineConfig config = MachineConfig::paper(pin.config, pin.width);
        config.nodeElimination = true;
        trace.reset();
        LimitScheduler scheduler(config);
        const SchedStats stats = scheduler.run(trace);
        EXPECT_GT(stats.eliminatedInstructions, 0u) << pin.trace;
        char row[96];
        std::snprintf(row, sizeof row, "{\"%s\", '%c', %u, 0x%016" PRIx64
                      "ull},", pin.trace, pin.config, pin.width,
                      digestSchedStats(stats));
        EXPECT_EQ(digestSchedStats(stats), pin.digest) << row;
    }
}

} // anonymous namespace
} // namespace ddsc
