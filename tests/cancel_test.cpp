/**
 * @file
 * Cooperative cancellation, from the token itself up through the
 * experiment driver.
 *
 * Token layer: null-token semantics (never cancels, costs nothing at
 * call sites), explicit cancel with first-reason-wins, deadline
 * self-cancel, and the parent/child chain that fans one request
 * cancel out to every per-cell flight.
 *
 * Driver layer: a cancelled cell unwinds as the *typed* CellCancelled
 * — never CellQuarantined — leaves no partial state behind, spares
 * its batched siblings, and re-runs cleanly to bit-identical stats on
 * the next uncancelled ask.  An in-flight cancellation interrupts the
 * simulation at poll granularity, bounded well below the cell's
 * remaining run time, through stats() and prefetch() alike.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "core/sched_stats.hh"
#include "naive_oracle.hh"
#include "sim/experiment.hh"
#include "sim/matrix_query.hh"
#include "support/cancel.hh"
#include "support/fault.hh"

namespace ddsc
{
namespace
{

using support::CancelToken;
using support::CancelledError;

/** Encoded stats with the wall-clock field masked: wallNanos is the
 *  one legitimately run-dependent field, everything else must be
 *  bit-identical across engines and re-runs. */
std::string
encoded(const SchedStats &stats)
{
    SchedStats masked = stats;
    masked.wallNanos = 0;
    std::string out;
    encodeSchedStats(out, masked);
    return out;
}

TEST(CancelToken, NullTokenNeverCancelsAndCostsNothing)
{
    const CancelToken null;
    EXPECT_FALSE(null.valid());
    EXPECT_FALSE(null.cancelled());
    EXPECT_EQ(null.remainingMs(), UINT64_MAX);
    EXPECT_NO_THROW(null.throwIfCancelled());
    // cancel() on a null token is a no-op, not a crash.
    EXPECT_NO_THROW(null.cancel("ignored"));
    EXPECT_FALSE(null.cancelled());
    EXPECT_EQ(null.reason(), "");
}

TEST(CancelToken, ExplicitCancelFirstReasonWins)
{
    const CancelToken token = CancelToken::make();
    EXPECT_TRUE(token.valid());
    EXPECT_FALSE(token.cancelled());
    token.cancel("first");
    token.cancel("second");
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), "first");
    try {
        token.throwIfCancelled();
        FAIL() << "throwIfCancelled did not throw";
    } catch (const CancelledError &e) {
        EXPECT_EQ(std::string(e.what()), "first");
    }
}

TEST(CancelToken, DeadlineSelfCancels)
{
    const CancelToken token = CancelToken::withDeadline(30);
    EXPECT_FALSE(token.cancelled());
    EXPECT_LE(token.remainingMs(), 30u);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.remainingMs(), 0u);
    EXPECT_EQ(token.reason(), "deadline exceeded");
}

TEST(CancelToken, ZeroDeadlineMeansNoDeadline)
{
    const CancelToken token = CancelToken::withDeadline(0);
    EXPECT_TRUE(token.valid());
    EXPECT_EQ(token.remainingMs(), UINT64_MAX);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, ParentCancelFansOutToChildren)
{
    const CancelToken parent = CancelToken::make();
    const CancelToken a = parent.child();
    const CancelToken b = parent.child();
    parent.cancel("request abandoned");
    EXPECT_TRUE(a.cancelled());
    EXPECT_TRUE(b.cancelled());
    EXPECT_EQ(a.reason(), "request abandoned");
}

TEST(CancelToken, ChildCancelDoesNotTouchParentOrSibling)
{
    const CancelToken parent = CancelToken::make();
    const CancelToken a = parent.child();
    const CancelToken b = parent.child();
    a.cancel("only a");
    EXPECT_TRUE(a.cancelled());
    EXPECT_FALSE(parent.cancelled());
    EXPECT_FALSE(b.cancelled());
}

TEST(CancelToken, ChildOfNullIsAFreshLiveToken)
{
    const CancelToken orphan = CancelToken().child();
    EXPECT_TRUE(orphan.valid());
    EXPECT_FALSE(orphan.cancelled());
    orphan.cancel("own life");
    EXPECT_TRUE(orphan.cancelled());
}

TEST(CancelToken, ChildDeadlineBindsTighterOfTheTwo)
{
    const CancelToken parent = CancelToken::withDeadline(10000);
    const CancelToken child = parent.childWithDeadline(30);
    EXPECT_LE(child.remainingMs(), 30u);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_TRUE(child.cancelled());
    EXPECT_FALSE(parent.cancelled());
}

/** One small driver at test scale, like experiment_test uses. */
class CancelDriverTest : public ::testing::Test
{
  protected:
    CancelDriverTest() : driver_(0, /*test_scale=*/true, /*jobs=*/2)
    {
        spec_ = findWorkloadOrNull("li");
        EXPECT_NE(spec_, nullptr);
    }

    ~CancelDriverTest() override { support::faultArm(""); }

    ExperimentDriver driver_;
    const WorkloadSpec *spec_ = nullptr;
};

TEST_F(CancelDriverTest, PreCancelledTokenIsTypedAndLeavesNoState)
{
    CancelToken token = CancelToken::make();
    token.cancel("caller gave up");
    try {
        driver_.stats(*spec_, 'A', 4, token);
        FAIL() << "cancelled stats() returned";
    } catch (const CellCancelled &e) {
        EXPECT_EQ(e.key, "li/A/4");
        EXPECT_NE(std::string(e.what()).find("caller gave up"),
                  std::string::npos);
    }
    // Not quarantined, not resolved: the cell simply never ran.
    EXPECT_EQ(driver_.quarantineCount(), 0u);
    EXPECT_FALSE(driver_.cellResolved(*spec_, 'A', 4));
    EXPECT_EQ(driver_.simulatedCells(), 0u);

    // The next uncancelled ask runs cleanly and matches a fresh
    // driver bit for bit.
    ExperimentDriver fresh(0, /*test_scale=*/true, /*jobs=*/1);
    EXPECT_EQ(encoded(driver_.stats(*spec_, 'A', 4)),
              encoded(fresh.stats(*spec_, 'A', 4)));
}

TEST_F(CancelDriverTest, MidFlightCancelInterruptsPromptly)
{
    // Pin the cell in a 400 ms injected stall, cancel from outside at
    // 50 ms: the sliced stall poll must unwind the cell long before
    // the stall would have ended on its own.
    support::faultArm("cell-stall:li/A/4");
    CancelToken token = CancelToken::make();
    bool cancelled = false;
    const auto t0 = std::chrono::steady_clock::now();
    std::thread runner([&]() {
        try {
            driver_.stats(*spec_, 'A', 4, token);
        } catch (const CellCancelled &) {
            cancelled = true;
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.cancel("impatient test");
    runner.join();
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_TRUE(cancelled);
    EXPECT_LT(elapsed, 350) << "cancel did not interrupt the stall";
    EXPECT_EQ(driver_.quarantineCount(), 0u);
}

TEST_F(CancelDriverTest, CancelInterruptsAStalledPrefetch)
{
    // The same bound through prefetch(), the path every sweep takes:
    // the injected stall fires inside the batched group and must poll
    // the cell's token too, not sleep its whole 400 ms.
    support::faultArm("cell-stall:li/B/4");
    driver_.trace(*spec_);      // trace generation is not the cell
    CancelToken token = CancelToken::make();
    std::thread canceller([&]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        token.cancel("impatient test");
    });
    const auto t0 = std::chrono::steady_clock::now();
    driver_.prefetch({{spec_, 'B', 4}}, {token});
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    canceller.join();
    EXPECT_LT(elapsed, 350) << "cancel did not interrupt the stall";
    EXPECT_FALSE(driver_.cellResolved(*spec_, 'B', 4));
    EXPECT_EQ(driver_.quarantineCount(), 0u);
}

TEST_F(CancelDriverTest, BatchedSiblingSurvivesACancelledCell)
{
    // Two cells of one batched front-end group (same workload, same
    // config, different widths); one arrives already cancelled.  The
    // sibling must resolve normally in the same pass, and only the
    // cancelled cell is left unresolved.
    ASSERT_TRUE(driver_.batched());
    CancelToken doomed = CancelToken::make();
    doomed.cancel("deadline gone");
    const std::vector<ExperimentCell> cells = {
        {spec_, 'D', 4},
        {spec_, 'D', 8},
    };
    driver_.prefetch(cells, {doomed, CancelToken()});

    EXPECT_FALSE(driver_.cellResolved(*spec_, 'D', 4));
    EXPECT_TRUE(driver_.cellResolved(*spec_, 'D', 8));
    EXPECT_EQ(driver_.quarantineCount(), 0u);

    // The cancelled cell re-runs cleanly — and bit-identical to the
    // naive engine's answer, proving no partial state leaked.
    EXPECT_EQ(encoded(driver_.stats(*spec_, 'D', 4)),
              encoded(test::naiveCell(driver_.trace(*spec_),
                                      MachineConfig::paper('D', 4))));
}

TEST_F(CancelDriverTest, CellDurableFlipsOnceResolved)
{
    EXPECT_FALSE(driver_.cellDurable(*spec_, 'A', 4));
    driver_.stats(*spec_, 'A', 4);
    EXPECT_TRUE(driver_.cellDurable(*spec_, 'A', 4));
}

} // anonymous namespace
} // namespace ddsc
