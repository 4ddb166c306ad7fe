/**
 * @file
 * ddsc-served: resident experiment-matrix server.
 *
 * Usage:
 *   ddsc-served [--port N] [--port-file PATH] [--jobs N]
 *               [--cache-dir DIR] [--max-sessions N]
 *               [--trace-dir DIR] [--trace-budget-mb N]
 *               [--watchdog-budget-ms N] [--supervise]
 *               [--fleet K] [--runtime-dir DIR]
 *               [--router-retry-budget-ms N] [--generation N]
 *               [--pid-file PATH] [--max-restarts K]
 *               [--max-active N] [--queue-depth N]
 *               [--per-conn-inflight N]
 *               [--brownout|--no-brownout] [--cancel-stalled-ms N]
 *               [--version]
 *
 * Examples:
 *   ddsc-served --port 7411 --cache-dir /var/tmp/ddsc
 *   ddsc-served --port 0 --port-file /tmp/ddsc.port   # ephemeral port
 *   ddsc-served --supervise --port 0 --port-file /tmp/ddsc.port \
 *               --pid-file /tmp/ddsc.pid --cache-dir /var/tmp/ddsc
 *   ddsc-served --fleet 3 --port 0 --port-file /tmp/ddsc.port \
 *               --runtime-dir /tmp/ddsc-fleet --cache-dir /var/tmp/ddsc
 *
 * The server keeps traces and every simulated cell resident, so the
 * first client pays for a sweep once and every later identical query
 * is answered from memory (or from the --cache-dir store, which also
 * makes answers survive a restart).  Concurrent identical requests
 * are single-flighted: one simulation per unique cell, everyone gets
 * the same bytes.
 *
 * --port 0 binds a kernel-assigned ephemeral port; --port-file writes
 * the bound port (a single line) once the listener is live, which is
 * also the "ready" signal scripts should poll for.  Each supervised
 * generation rewrites it.
 *
 * --supervise runs crash-only: a supervisor process forks the actual
 * server and restarts it whenever it dies for any reason other than a
 * clean drain — non-zero exit, SIGKILL, SIGSEGV — with capped
 * exponential backoff between rapid deaths.  The restarted generation
 * re-attaches the same --cache-dir store, so every cell that was
 * durable before the crash is served from disk, not recomputed.
 * --max-restarts K is the flap breaker: K consecutive deaths within
 * 5 s of birth and the supervisor gives up (exit 1) rather than spin
 * on a server that cannot stay up.  --pid-file records the pid of the
 * *serving* process of the current generation (what a chaos harness
 * or an operator would signal), in supervised and plain mode alike.
 *
 * --watchdog-budget-ms pins the hung-cell watchdog's soft budget; by
 * default it adapts to 8x the slowest cell observed (2 s floor).
 * --cancel-stalled-ms is the watchdog's last rung: a flight still
 * running that long after claim gets its cancel token fired, so the
 * stalled simulation unwinds cooperatively instead of squatting on a
 * worker forever (default 64x the soft budget).
 *
 * Admission control sits in front of the request loop: --max-active
 * caps concurrently resolving requests, --queue-depth
 * bounds how many requests may wait for a simulation slot (beyond it
 * the server sheds with a typed Overloaded carrying a retry-after
 * hint), --per-conn-inflight caps one connection's concurrent
 * requests so a single aggressive client cannot monopolise the queue,
 * and --brownout/--no-brownout controls whether, at a saturated
 * queue, requests answerable entirely from the durable store are
 * still served (they bypass the queue; fresh simulation sheds).
 * Requests whose deadline budget cannot survive the predicted queue
 * wait are shed immediately rather than queued to die.
 *
 * --trace-dir spills each workload's trace once to a DDSCTRC v4 file
 * under DIR and serves it through mmap'd zero-copy cursors instead of
 * holding a private std::vector copy per workload.  --trace-budget-mb
 * caps how many of those mapped bytes stay resident: past the budget
 * the least-recently-swept traces are evicted back to the page cache
 * (madvise), so a corpus far larger than RAM sweeps in bounded RSS.
 * Residency counters show up in the health probe (ddsc-client
 * --health).
 *
 * Same-fingerprint cells of a workload share one streaming front-end
 * pass, exactly as in ddsc-matrix, so served bytes equal its output.
 *
 * --fleet K runs the sharded serving fleet instead of one server: K
 * crash-only shards (each one of these processes, exec'd with --port
 * 0 and its own --port-file/--pid-file under --runtime-dir and its
 * own store under <cache-dir>/shard-<i>), each supervised and
 * restarted independently, fronted by a fan-out/merge router that
 * answers the same protocol on --port/--port-file.  A killed shard
 * only ever loses its own in-flight cells; the router retries them
 * against the shard's next generation (--router-retry-budget-ms caps
 * how long), and a shard whose flap breaker trips degrades to typed
 * per-cell errors while the rest of the fleet keeps serving.
 * --generation is internal: the fleet manager stamps each shard life
 * with it.
 *
 * SIGINT/SIGTERM drain: in-flight requests finish and reply, new
 * connections are refused, the store is flushed and compacted, the
 * pid/port files are removed, and the process exits 0.  The
 * supervisor forwards the signal to the serving child and exits
 * cleanly once the drain finishes.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "serve/fleet.hh"
#include "serve/server.hh"
#include "serve/supervisor.hh"
#include "support/decimal.hh"
#include "support/portfile.hh"
#include "support/shutdown.hh"
#include "support/thread_pool.hh"
#include "support/version.hh"

namespace
{

using namespace ddsc;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
        "usage: ddsc-served [--port N] [--port-file PATH] [--jobs N]\n"
        "                   [--cache-dir DIR] [--max-sessions N]\n"
        "                   [--trace-dir DIR] [--trace-budget-mb N]\n"
        "                   [--watchdog-budget-ms N] [--supervise]\n"
        "                   [--fleet K] [--runtime-dir DIR]\n"
        "                   [--router-retry-budget-ms N]\n"
        "                   [--pid-file PATH] [--max-restarts K]\n"
        "                   [--max-active N] [--queue-depth N]\n"
        "                   [--per-conn-inflight N]\n"
        "                   [--brownout|--no-brownout]\n"
        "                   [--cancel-stalled-ms N] [--version]\n");
    std::exit(2);
}

bool
writeOneLine(const std::string &path, unsigned long long value,
             const char *what)
{
    // Atomic (temp + rename): pollers of the port file must never see
    // a truncated or torn line — see support/portfile.hh.
    std::string err;
    if (!support::writeOneLineAtomic(path, value, &err)) {
        std::fprintf(stderr, "ddsc-served: cannot write %s %s: %s\n",
                     what, path.c_str(), err.c_str());
        return false;
    }
    return true;
}

/** Construct and run one server process; the whole body of plain
 *  (unsupervised) mode and of each supervised generation. */
int
runServer(const serve::ServerOptions &opts,
          const std::string &port_file, const std::string &pid_file)
{
    serve::Server server(opts);
    if (!server.valid()) {
        std::fprintf(stderr,
                     "ddsc-served: cannot listen on 127.0.0.1:%u "
                     "(port in use?)\n",
                     static_cast<unsigned>(opts.port));
        return 1;
    }

    if (!pid_file.empty() &&
        !writeOneLine(pid_file,
                      static_cast<unsigned long long>(::getpid()),
                      "pid file"))
        return 1;
    // The port file is the "ready" signal scripts poll for; write it
    // only after the listener is live.
    if (!port_file.empty() &&
        !writeOneLine(port_file, server.port(), "port file"))
        return 1;

    std::fprintf(stderr, "# ddsc-served listening on 127.0.0.1:%u"
                 " (generation %llu)\n",
                 static_cast<unsigned>(server.port()),
                 static_cast<unsigned long long>(opts.generation));
    if (!opts.cacheDir.empty()) {
        std::fprintf(stderr, "# store: %s\n",
                     server.infoSnapshot().storePath.c_str());
    }

    server.run();

    std::fprintf(stderr,
                 "# drained: %llu requests served, %llu cells "
                 "simulated, %llu store hits, %llu coalesced\n",
                 static_cast<unsigned long long>(
                     server.infoSnapshot().requestsServed),
                 static_cast<unsigned long long>(
                     server.infoSnapshot().simulated),
                 static_cast<unsigned long long>(
                     server.infoSnapshot().storeHits),
                 static_cast<unsigned long long>(
                     server.infoSnapshot().coalesced));

    // A clean drain (SIGTERM / exit 0) leaves no stale runtime files
    // behind; a crash leaves them for the next generation to rewrite.
    if (!port_file.empty())
        support::removeRuntimeFile(port_file);
    if (!pid_file.empty())
        support::removeRuntimeFile(pid_file);
    return 0;
}

/** Absolute path of this very binary, for re-exec'ing fleet shards.
 *  Falls back to argv[0] when /proc/self/exe is unreadable. */
std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    serve::ServerOptions opts;
    opts.port = 7411;       // default; 0 = ephemeral
    std::string port_file;
    std::string pid_file;
    bool do_supervise = false;
    unsigned max_restarts = 10;
    unsigned fleet_shards = 0;      // 0 = single-server mode
    std::string runtime_dir;
    std::uint64_t router_retry_budget_ms = 0;   // 0 = default

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        // Every numeric flag is a plain decimal that fits its field:
        // "-1" must not wrap to four billion, nor "4x" read as 4, nor
        // a port above 65535 wrap to another port.
        auto number = [&](auto &field) {
            if (!support::parseDecimal(value(), field))
                usage();
        };
        auto positive = [&](auto &field) {
            number(field);
            if (field == 0)
                usage();
        };
        if (arg == "--port") {
            number(opts.port);
        } else if (arg == "--port-file") {
            port_file = value();
        } else if (arg == "--pid-file") {
            pid_file = value();
        } else if (arg == "--jobs") {
            opts.jobs = support::ThreadPool::parseJobs(value().c_str());
            if (opts.jobs == 0)
                usage();
        } else if (arg == "--cache-dir") {
            opts.cacheDir = value();
        } else if (arg == "--trace-dir") {
            opts.traceDir = value();
        } else if (arg == "--trace-budget-mb") {
            number(opts.traceBudgetMb);
        } else if (arg == "--max-sessions") {
            positive(opts.maxSessions);
        } else if (arg == "--watchdog-budget-ms") {
            number(opts.watchdogBudgetMs);
        } else if (arg == "--cancel-stalled-ms") {
            number(opts.cancelStalledMs);
        } else if (arg == "--max-active") {
            positive(opts.admission.maxActive);
        } else if (arg == "--queue-depth") {
            number(opts.admission.queueDepth);
        } else if (arg == "--per-conn-inflight") {
            positive(opts.admission.perConnInflight);
        } else if (arg == "--brownout") {
            opts.admission.brownout = true;
        } else if (arg == "--no-brownout") {
            opts.admission.brownout = false;
        } else if (arg == "--supervise") {
            do_supervise = true;
        } else if (arg == "--fleet") {
            positive(fleet_shards);
        } else if (arg == "--runtime-dir") {
            runtime_dir = value();
        } else if (arg == "--router-retry-budget-ms") {
            number(router_retry_budget_ms);
        } else if (arg == "--generation") {
            // Internal: the fleet manager (and nobody else) stamps
            // each shard life with its generation number.
            number(opts.generation);
        } else if (arg == "--max-restarts") {
            positive(max_restarts);
        } else if (arg == "--version") {
            support::version::print("ddsc-served");
            return 0;
        } else {
            usage();
        }
    }

    support::installShutdownHandler();

    if (fleet_shards > 0) {
        if (do_supervise) {
            std::fprintf(stderr,
                         "ddsc-served: --fleet already supervises "
                         "each shard; drop --supervise\n");
            usage();
        }
        serve::FleetOptions fopts;
        fopts.shards = fleet_shards;
        fopts.serverExe = selfExePath(argv[0]);
        if (!runtime_dir.empty()) {
            fopts.runtimeDir = runtime_dir;
        } else if (!port_file.empty()) {
            // Default the shard port/pid files next to the router's.
            const std::string parent =
                std::filesystem::path(port_file)
                    .parent_path().string();
            fopts.runtimeDir = parent.empty() ? "." : parent;
        } else {
            std::fprintf(stderr,
                         "ddsc-served: --fleet needs --runtime-dir "
                         "(or --port-file to default it from)\n");
            usage();
        }
        fopts.cacheRoot = opts.cacheDir;
        fopts.portFile = port_file;
        fopts.pidFile = pid_file;
        fopts.maxRestarts = max_restarts;
        fopts.shardOpts = opts;
        fopts.router.port = opts.port;
        fopts.router.maxSessions = opts.maxSessions;
        if (router_retry_budget_ms != 0)
            fopts.router.retry.budgetMs = router_retry_budget_ms;
        return serve::runFleet(fopts);
    }

    if (!do_supervise)
        return runServer(opts, port_file, pid_file);
    // Crash-only: restart the serving process on any unclean death.
    return serve::Supervisor{
        .label = "ddsc-served[supervisor]:",
        .maxRestarts = max_restarts,
        .spawn =
            [&](std::uint64_t generation) {
                opts.generation = generation;
                const pid_t child = ::fork();
                if (child == 0) {
                    // The serving process.  It writes the pid/port
                    // files itself, after its listener is live.  A
                    // pre-fork signal must not leak in as this
                    // generation's shutdown.
                    support::resetShutdownAfterFork();
                    std::exit(runServer(opts, port_file, pid_file));
                }
                return child;
            },
    }
        .run();
}
