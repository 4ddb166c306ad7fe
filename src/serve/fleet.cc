#include "fleet.hh"

#include <cstdio>
#include <filesystem>
#include <thread>
#include <unistd.h>
#include <vector>

#include "serve/supervisor.hh"
#include "support/portfile.hh"
#include "support/shutdown.hh"

namespace ddsc::serve
{

namespace
{

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

/** Fork+exec one shard generation; the child's pid, or -1 when fork
 *  failed.  The manager is multi-threaded, so argv is built before
 *  the fork: between fork and exec only async-signal-safe calls. */
pid_t
spawnShard(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    const pid_t child = ::fork();
    if (child == 0) {
        ::execv(argv[0], argv.data());
        _exit(127);
    }
    return child;
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

    // One Supervisor per shard; the hooks keep the router's view of
    // each slot current.
    std::vector<std::thread> supervisors;
    supervisors.reserve(fleet.count());
    for (std::size_t i = 0; i < fleet.count(); ++i) {
        supervisors.emplace_back([&opts, i, &fleet]() {
            ShardSlot &slot = *fleet.shards[i];
            const std::string pid_file = opts.runtimeDir + "/shard-" +
                                         std::to_string(i) + ".pid";
            Supervisor{
                .label = "ddsc-served[fleet]: shard " + std::to_string(i),
                .maxRestarts = opts.maxRestarts,
                .spawn =
                    [&](std::uint64_t generation) {
                        return spawnShard(shardArgs(opts, i, slot,
                                                    pid_file, generation));
                    },
                .onGeneration =
                    [&slot](std::uint64_t generation) {
                        slot.generation.store(generation);
                    },
                .onDeath = [&slot]() { slot.restarts.fetch_add(1); },
                .onGiveUp = [&slot]() { slot.broken.store(true); },
            }
                .run();
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
