#include "fleet.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "support/portfile.hh"
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

/** The exec argv for one shard generation: the plain (unsupervised)
 *  ddsc-served flag surface, so a shard is exactly what an operator
 *  could run by hand. */
std::vector<std::string>
shardArgs(const FleetOptions &opts, std::size_t index,
          const ShardSlot &slot, const std::string &pid_file,
          std::uint64_t generation)
{
    std::vector<std::string> args = {
        opts.serverExe,
        "--port", "0",
        "--port-file", slot.portFile,
        "--pid-file", pid_file,
        "--generation", std::to_string(generation),
    };
    const ServerOptions &shard = opts.shardOpts;
    if (!slot.cacheDir.empty()) {
        args.push_back("--cache-dir");
        args.push_back(slot.cacheDir);
    }
    if (shard.jobs != 0) {
        args.push_back("--jobs");
        args.push_back(std::to_string(shard.jobs));
    }
    args.push_back("--max-sessions");
    args.push_back(std::to_string(shard.maxSessions));
    if (shard.watchdogBudgetMs != 0) {
        args.push_back("--watchdog-budget-ms");
        args.push_back(std::to_string(shard.watchdogBudgetMs));
    }
    if (!shard.traceDir.empty()) {
        // Private per-shard spill dirs: generations of *one* shard
        // reuse their spilled traces, but shards never race on a
        // shared file.
        args.push_back("--trace-dir");
        args.push_back(shard.traceDir + "/shard-" +
                       std::to_string(index));
    }
    if (shard.traceBudgetMb != 0) {
        args.push_back("--trace-budget-mb");
        args.push_back(std::to_string(shard.traceBudgetMb));
    }
    if (shard.cancelStalledMs != 0) {
        args.push_back("--cancel-stalled-ms");
        args.push_back(std::to_string(shard.cancelStalledMs));
    }
    // Admission knobs propagate so a fleet sheds at the shards with
    // the same policy a single server would apply.
    const AdmissionOptions defaults;
    if (shard.admission.maxActive != defaults.maxActive) {
        args.push_back("--max-active");
        args.push_back(std::to_string(shard.admission.maxActive));
    }
    if (shard.admission.queueDepth != defaults.queueDepth) {
        args.push_back("--queue-depth");
        args.push_back(std::to_string(shard.admission.queueDepth));
    }
    if (shard.admission.perConnInflight != defaults.perConnInflight) {
        args.push_back("--per-conn-inflight");
        args.push_back(
            std::to_string(shard.admission.perConnInflight));
    }
    if (shard.admission.brownout != defaults.brownout)
        args.push_back(shard.admission.brownout ? "--brownout"
                                                : "--no-brownout");
    return args;
}

/**
 * Supervise one shard until shutdown (0) or its flap breaker trips
 * (1): fork+exec a generation, wait, restart unclean deaths with
 * capped backoff.  Mirrors the single-server --supervise loop, with
 * the slot atomics keeping the router's view current.
 */
int
superviseShard(const FleetOptions &opts, std::size_t index,
               ShardSlot &slot)
{
    const std::string pid_file =
        opts.runtimeDir + "/shard-" + std::to_string(index) + ".pid";
    unsigned rapid_deaths = 0;
    for (std::uint64_t generation = 0;; ++generation) {
        slot.generation.store(generation);
        const std::vector<std::string> args =
            shardArgs(opts, index, slot, pid_file, generation);
        const pid_t child = ::fork();
        if (child < 0) {
            std::fprintf(stderr,
                         "ddsc-served[fleet]: shard %zu fork failed: "
                         "%s\n",
                         index, std::strerror(errno));
            slot.broken.store(true);
            return 1;
        }
        if (child == 0) {
            // Between fork and exec only async-signal-safe calls: the
            // manager is multi-threaded and any inherited lock is
            // frozen mid-flight.
            std::vector<char *> argv;
            argv.reserve(args.size() + 1);
            for (const std::string &arg : args)
                argv.push_back(const_cast<char *>(arg.c_str()));
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            _exit(127);
        }

        std::fprintf(stderr,
                     "# ddsc-served[fleet]: shard %zu generation %llu "
                     "is pid %ld\n",
                     index, static_cast<unsigned long long>(generation),
                     static_cast<long>(child));

        const auto born = std::chrono::steady_clock::now();
        int status = 0;
        bool failed = false;
        for (bool forwarded = false;;) {
            // Same forward-then-wait dance as the single-server
            // supervisor: the shutdown self-pipe closes the race
            // between a signal and waitpid parking.
            if (support::shutdownRequested() && !forwarded) {
                ::kill(child, SIGTERM);
                forwarded = true;
            }
            const pid_t got =
                ::waitpid(child, &status, forwarded ? 0 : WNOHANG);
            if (got == child)
                break;
            if (got < 0 && errno != EINTR) {
                std::fprintf(stderr,
                             "ddsc-served[fleet]: shard %zu waitpid "
                             "failed: %s\n",
                             index, std::strerror(errno));
                failed = true;
                break;
            }
            if (!forwarded) {
                pollfd p = {support::shutdownFd(), POLLIN, 0};
                ::poll(&p, 1, 200);
            }
        }
        if (failed) {
            slot.broken.store(true);
            return 1;
        }

        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            std::fprintf(stderr,
                         "# ddsc-served[fleet]: shard %zu generation "
                         "%llu drained cleanly\n",
                         index,
                         static_cast<unsigned long long>(generation));
            return 0;
        }
        if (support::shutdownRequested()) {
            std::fprintf(stderr,
                         "# ddsc-served[fleet]: shard %zu shutdown "
                         "requested; not restarting\n",
                         index);
            return 0;
        }

        const std::uint64_t lifetime_ms = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - born)
                .count());
        if (WIFSIGNALED(status)) {
            std::fprintf(stderr,
                         "# ddsc-served[fleet]: shard %zu generation "
                         "%llu killed by signal %d (%s) after %llu "
                         "ms\n",
                         index,
                         static_cast<unsigned long long>(generation),
                         WTERMSIG(status),
                         strsignal(WTERMSIG(status)),
                         static_cast<unsigned long long>(lifetime_ms));
        } else {
            std::fprintf(stderr,
                         "# ddsc-served[fleet]: shard %zu generation "
                         "%llu exited %d after %llu ms\n",
                         index,
                         static_cast<unsigned long long>(generation),
                         WIFEXITED(status) ? WEXITSTATUS(status) : -1,
                         static_cast<unsigned long long>(lifetime_ms));
        }
        slot.restarts.fetch_add(1);

        rapid_deaths =
            lifetime_ms < kRapidDeathMs ? rapid_deaths + 1 : 0;
        if (rapid_deaths >= opts.maxRestarts) {
            std::fprintf(stderr,
                         "ddsc-served[fleet]: shard %zu flap breaker: "
                         "%u consecutive rapid deaths; giving up on "
                         "this shard\n",
                         index, rapid_deaths);
            slot.broken.store(true);
            return 1;
        }

        std::uint64_t delay = kBackoffBaseMs;
        for (unsigned i = 1; i < rapid_deaths && delay < kBackoffCapMs;
             ++i)
            delay *= 2;
        if (delay > kBackoffCapMs)
            delay = kBackoffCapMs;
        if (rapid_deaths > 0) {
            std::fprintf(stderr,
                         "# ddsc-served[fleet]: restarting shard %zu "
                         "in %llu ms\n",
                         index,
                         static_cast<unsigned long long>(delay));
            if (interruptibleSleep(delay))
                return 0;
        }
    }
}

} // anonymous namespace

int
runFleet(const FleetOptions &opts)
{
    if (opts.shards == 0 || opts.serverExe.empty() ||
        opts.runtimeDir.empty()) {
        std::fprintf(stderr,
                     "ddsc-served[fleet]: need --fleet K >= 1 and a "
                     "runtime directory\n");
        return 1;
    }
    {
        std::error_code ec;
        std::filesystem::create_directories(opts.runtimeDir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "ddsc-served[fleet]: cannot create runtime "
                         "dir '%s': %s\n",
                         opts.runtimeDir.c_str(),
                         ec.message().c_str());
            return 1;
        }
    }

    FleetState fleet;
    for (unsigned i = 0; i < opts.shards; ++i) {
        const std::string prefix =
            opts.runtimeDir + "/shard-" + std::to_string(i);
        const std::string cache =
            opts.cacheRoot.empty()
                ? std::string()
                : opts.cacheRoot + "/shard-" + std::to_string(i);
        ShardSlot &slot = fleet.add(prefix + ".port", cache);
        // A stale port file from a previous fleet would point the
        // router at a dead (or foreign) port until generation 0 binds.
        support::removeRuntimeFile(slot.portFile);
        support::removeRuntimeFile(prefix + ".pid");
    }

    RouterOptions router_opts = opts.router;
    router_opts.storeRoot = opts.cacheRoot;
    Router router(router_opts, fleet);
    if (!router.valid()) {
        std::fprintf(stderr,
                     "ddsc-served[fleet]: cannot listen on "
                     "127.0.0.1:%u (port in use?)\n",
                     static_cast<unsigned>(opts.router.port));
        return 1;
    }

    std::string err;
    if (!opts.pidFile.empty() &&
        !support::writeOneLineAtomic(
            opts.pidFile,
            static_cast<unsigned long long>(::getpid()), &err)) {
        std::fprintf(stderr,
                     "ddsc-served[fleet]: cannot write pid file: %s\n",
                     err.c_str());
        return 1;
    }

    std::vector<std::thread> supervisors;
    supervisors.reserve(fleet.count());
    for (std::size_t i = 0; i < fleet.count(); ++i) {
        supervisors.emplace_back([&opts, i, &fleet]() {
            superviseShard(opts, i, *fleet.shards[i]);
        });
    }

    // The router's port file is the fleet's "ready" signal; its
    // listener is live (shards may still be binding, but the router
    // rides that with its retry policy).
    if (!opts.portFile.empty() &&
        !support::writeOneLineAtomic(opts.portFile, router.port(),
                                     &err)) {
        std::fprintf(stderr,
                     "ddsc-served[fleet]: cannot write port file: "
                     "%s\n",
                     err.c_str());
        support::requestShutdown();
        for (std::thread &t : supervisors)
            t.join();
        return 1;
    }

    std::fprintf(stderr,
                 "# ddsc-served[fleet]: router listening on "
                 "127.0.0.1:%u with %u shards\n",
                 static_cast<unsigned>(router.port()), opts.shards);

    router.run();   // returns on SIGTERM/SIGINT (or stop())

    for (std::thread &t : supervisors)
        t.join();

    // Clean shutdown leaves no stale runtime files behind; the shards
    // removed their own on drain.
    if (!opts.portFile.empty())
        support::removeRuntimeFile(opts.portFile);
    if (!opts.pidFile.empty())
        support::removeRuntimeFile(opts.pidFile);

    std::fprintf(stderr, "# ddsc-served[fleet]: drained cleanly\n");
    return 0;
}

} // namespace ddsc::serve
