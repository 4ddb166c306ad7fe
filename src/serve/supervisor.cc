#include "supervisor.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <sys/wait.h>

#include "support/shutdown.hh"

namespace ddsc::serve
{

namespace
{

/** A generation that died younger than this is a "rapid" death for
 *  the flap breaker and escalates the restart backoff. */
constexpr std::uint64_t kRapidDeathMs = 5000;
constexpr std::uint64_t kBackoffBaseMs = 100;
constexpr std::uint64_t kBackoffCapMs = 5000;

/** Sleep up to @p delay_ms, returning early (true) when shutdown was
 *  requested meanwhile. */
bool
interruptibleSleep(std::uint64_t delay_ms)
{
    const int fd = support::shutdownFd();
    pollfd p = {fd, POLLIN, 0};
    const int n =
        ::poll(&p, fd >= 0 ? 1u : 0u, static_cast<int>(delay_ms));
    (void)n;
    return support::shutdownRequested();
}

/** Wait for @p child, forwarding a shutdown request to it.  False
 *  when waitpid failed. */
bool
awaitChild(const char *label, pid_t child, int &status)
{
    for (bool forwarded = false;;) {
        // Forward our own SIGTERM/SIGINT so the child drains.  A
        // blocking waitpid alone would race a signal delivered just
        // before it parks; polling the shutdown self-pipe (readable
        // from the instant the handler ran) closes that window, and
        // once forwarded there is nothing left to watch, so the wait
        // can block for real.
        if (support::shutdownRequested() && !forwarded) {
            ::kill(child, SIGTERM);
            forwarded = true;
        }
        const pid_t got =
            ::waitpid(child, &status, forwarded ? 0 : WNOHANG);
        if (got == child)
            return true;
        if (got < 0 && errno != EINTR) {
            std::fprintf(stderr, "%s waitpid failed: %s\n", label,
                         std::strerror(errno));
            return false;
        }
        if (!forwarded)
            interruptibleSleep(200);
    }
}

} // anonymous namespace

int
Supervisor::run() const
{
    const char *name = label.c_str();
    const auto giveUp = [this]() {
        if (onGiveUp)
            onGiveUp();
        return 1;
    };
    unsigned rapid_deaths = 0;
    for (std::uint64_t generation = 0;; ++generation) {
        if (onGeneration)
            onGeneration(generation);
        const pid_t child = spawn(generation);
        if (child < 0) {
            std::fprintf(stderr, "%s fork failed: %s\n", name,
                         std::strerror(errno));
            return giveUp();
        }
        std::fprintf(stderr, "# %s generation %llu is pid %ld\n", name,
                     static_cast<unsigned long long>(generation),
                     static_cast<long>(child));

        const auto born = std::chrono::steady_clock::now();
        int status = 0;
        if (!awaitChild(name, child, status))
            return giveUp();

        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            std::fprintf(stderr,
                         "# %s generation %llu drained cleanly\n", name,
                         static_cast<unsigned long long>(generation));
            return 0;
        }
        if (support::shutdownRequested()) {
            // We asked it to stop and it still died unclean — report
            // but don't restart what we were told to shut down.
            std::fprintf(stderr,
                         "# %s shutdown requested; not restarting\n",
                         name);
            return 0;
        }

        const std::uint64_t lifetime_ms = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - born)
                .count());
        if (WIFSIGNALED(status)) {
            std::fprintf(stderr,
                         "# %s generation %llu killed by signal %d "
                         "(%s) after %llu ms\n",
                         name,
                         static_cast<unsigned long long>(generation),
                         WTERMSIG(status), strsignal(WTERMSIG(status)),
                         static_cast<unsigned long long>(lifetime_ms));
        } else {
            std::fprintf(stderr,
                         "# %s generation %llu exited %d after %llu "
                         "ms\n",
                         name,
                         static_cast<unsigned long long>(generation),
                         WIFEXITED(status) ? WEXITSTATUS(status) : -1,
                         static_cast<unsigned long long>(lifetime_ms));
        }
        if (onDeath)
            onDeath();

        rapid_deaths =
            lifetime_ms < kRapidDeathMs ? rapid_deaths + 1 : 0;
        if (rapid_deaths >= maxRestarts) {
            std::fprintf(stderr,
                         "%s flap breaker: %u consecutive rapid "
                         "deaths; giving up\n",
                         name, rapid_deaths);
            return giveUp();
        }

        std::uint64_t delay = kBackoffBaseMs;
        for (unsigned i = 1; i < rapid_deaths && delay < kBackoffCapMs;
             ++i)
            delay *= 2;
        if (delay > kBackoffCapMs)
            delay = kBackoffCapMs;
        if (rapid_deaths > 0) {
            std::fprintf(stderr, "# %s restarting in %llu ms\n", name,
                         static_cast<unsigned long long>(delay));
            if (interruptibleSleep(delay))
                return 0;
        }
    }
}

} // namespace ddsc::serve
