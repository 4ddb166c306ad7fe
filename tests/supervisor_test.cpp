/**
 * @file
 * serve::Supervisor with real child processes: the restart, flap
 * breaker and shutdown rules that `ddsc-served --supervise` and every
 * fleet shard share.
 *
 * Each case forks at most three short-lived children, one at a time.
 * The children fork without exec and call only async-signal-safe
 * functions (_exit, alarm, pause), so a second test thread alive at
 * the fork is harmless.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>
#include <unistd.h>

#include "serve/supervisor.hh"
#include "support/shutdown.hh"

namespace ddsc
{
namespace
{

/** A supervisor over @p spawn that counts what its hooks report. */
struct Counted
{
    unsigned generations = 0;
    unsigned deaths = 0;
    unsigned giveUps = 0;
    serve::Supervisor supervisor;

    explicit Counted(std::function<pid_t(std::uint64_t)> spawn)
        : supervisor{
              .label = "supervisor-test:",
              .maxRestarts = 3,
              .spawn = std::move(spawn),
              .onGeneration =
                  [this](std::uint64_t generation) {
                      EXPECT_EQ(generation, generations);
                      ++generations;
                  },
              .onDeath = [this]() { ++deaths; },
              .onGiveUp = [this]() { ++giveUps; },
          }
    {
    }

    // The hooks point at this object.
    Counted(const Counted &) = delete;
    Counted &operator=(const Counted &) = delete;
};

/** A spawn callback whose child exits at once with @p code. */
std::function<pid_t(std::uint64_t)>
exitWith(int code)
{
    return [code](std::uint64_t) {
        const pid_t child = ::fork();
        if (child == 0)
            _exit(code);
        return child;
    };
}

TEST(Supervisor, RapidDeathsTripTheBreakerAfterBackoff)
{
    Counted counts(exitWith(3));
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(counts.supervisor.run(), 1);
    const auto elapsed = std::chrono::steady_clock::now() - t0;

    EXPECT_EQ(counts.generations, 3u);
    EXPECT_EQ(counts.deaths, 3u);   // the tripping death included
    EXPECT_EQ(counts.giveUps, 1u);
    // Backoff after the first two rapid deaths: 100 ms, then 200 ms.
    EXPECT_GE(elapsed, std::chrono::milliseconds(300));
}

TEST(Supervisor, CleanExitIsNotRestarted)
{
    Counted counts(exitWith(0));
    EXPECT_EQ(counts.supervisor.run(), 0);
    EXPECT_EQ(counts.generations, 1u);
    EXPECT_EQ(counts.deaths, 0u);
    EXPECT_EQ(counts.giveUps, 0u);
}

TEST(Supervisor, ShutdownIsForwardedAndNotRestarted)
{
    support::resetShutdownForTest();
    Counted counts([](std::uint64_t) {
        const pid_t child = ::fork();
        if (child == 0) {
            // Only a forwarded SIGTERM ends this child early; the
            // alarm bounds a broken supervisor's hang.
            ::alarm(30);
            for (;;)
                ::pause();
        }
        return child;
    });

    std::thread requester([]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        support::requestShutdown();
    });
    const auto t0 = std::chrono::steady_clock::now();
    const int code = counts.supervisor.run();
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    requester.join();
    support::resetShutdownForTest();

    EXPECT_EQ(code, 0);
    EXPECT_EQ(counts.generations, 1u);
    EXPECT_EQ(counts.deaths, 0u);
    EXPECT_EQ(counts.giveUps, 0u);
    EXPECT_LT(elapsed, std::chrono::seconds(10));
}

} // anonymous namespace
} // namespace ddsc
