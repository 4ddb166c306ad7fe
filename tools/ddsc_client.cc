/**
 * @file
 * ddsc-client: query a running ddsc-served.
 *
 * Usage:
 *   ddsc-client [--port N | --port-file PATH]
 *               [--set all|pc|npc] [--configs ABCDE] [--widths 4,8,...]
 *               [--metric ipc|speedup|collapsed] [--csv]
 *               [--deadline-ms N] [--retries N] [--retry-budget-ms N]
 *               [--info] [--health [--json]] [--ping] [--version]
 *
 * Examples:
 *   ddsc-client --port 7411 --set pc --metric speedup
 *   ddsc-client --port-file /tmp/ddsc.port --csv > fig.csv
 *   ddsc-client --port 7411 --info
 *   ddsc-client --port-file /tmp/ddsc.port --retries 10 \
 *               --retry-budget-ms 60000   # rides across restarts
 *   ddsc-client --port-file /tmp/ddsc.port --health --json \
 *               # machine-readable; against a fleet router the
 *               # scalars aggregate and "shards" lists each shard
 *
 * The matrix flags are exactly ddsc-matrix's, and for any query the
 * stdout bytes are identical to what ddsc-matrix prints for the same
 * flags — both render through the same code; the server only adds
 * transport and caching.  Per-request serving counters go to stderr.
 *
 * --deadline-ms bounds how long this client waits, end to end: the
 * value rides in the request and every hop (router, shard) decrements
 * it by the time already spent, so it is a total budget, not a fresh
 * allowance per hop.  An expired request comes back as a typed
 * deadline error while the server keeps computing (the next request
 * gets the cached cells).  The value must be a positive integer of
 * at most 86400000 (24 h); 0 is NOT "no deadline" — omit the flag to
 * wait forever — and 0, negative, non-numeric, or oversized values
 * are usage errors (exit 2), never silently reinterpreted.
 *
 * --retries N retries transport failures and retryable server errors
 * (overloaded, draining, stalled) up to N times with capped
 * exponential backoff and jitter; --retry-budget-ms bounds the total
 * wall clock spent retrying.  With --port-file the file is re-read
 * before every connect, so a client with retries follows a supervised
 * server across restarts (each generation binds a fresh ephemeral
 * port).  Retried queries are answered from the server's cache/store
 * — same bytes, no duplicated simulation.
 *
 * Exit status: 0 success; 1 quarantined cells in the answer (matches
 * ddsc-matrix); 2 usage; 3 transport failure (cannot connect,
 * connection died, malformed bytes — after retries, if enabled);
 * 4 typed server error (overloaded, draining, stalled, deadline,
 * version mismatch, bad request — after retries where retryable).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "net/client.hh"
#include "support/decimal.hh"
#include "support/portfile.hh"
#include "support/version.hh"

namespace
{

using namespace ddsc;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
        "usage: ddsc-client [--port N | --port-file PATH]\n"
        "                   [--set all|pc|npc] [--configs ABCDE]\n"
        "                   [--widths 4,8,...] "
        "[--metric ipc|speedup|collapsed]\n"
        "                   [--csv] [--deadline-ms N] [--retries N]\n"
        "                   [--retry-budget-ms N] [--info]\n"
        "                   [--health [--json]] [--ping] "
        "[--version]\n");
    std::exit(2);
}

/** Strict --deadline-ms parse.  atoll would map "0", "-5", "2x", and
 *  overflow all onto values the wire layer reads as "no deadline" or
 *  nonsense; a deadline the user typed must either mean exactly what
 *  it says or be rejected here, before a request is sent. */
std::uint64_t
parseDeadlineMs(const std::string &text)
{
    constexpr std::uint64_t kMaxDeadlineMs = 86'400'000;    // 24 h
    std::uint64_t ms = 0;
    if (!support::parseDecimal(text, ms) || ms == 0 ||
        ms > kMaxDeadlineMs) {
        std::fprintf(stderr,
                     "ddsc-client: --deadline-ms expects a positive "
                     "integer of at most %llu ms, got '%s' (omit the "
                     "flag to wait without a deadline)\n",
                     static_cast<unsigned long long>(kMaxDeadlineMs),
                     text.c_str());
        usage();
    }
    return ms;
}

/** The aggregated health as one JSON object on stdout.  Every value
 *  is a number or a fixed keyword, so no string escaping is needed. */
void
printHealthJson(const net::HealthInfo &hi)
{
    std::printf("{\n");
    std::printf("  \"uptime_ms\": %llu,\n",
                static_cast<unsigned long long>(hi.uptimeMs));
    std::printf("  \"generation\": %llu,\n",
                static_cast<unsigned long long>(hi.generation));
    std::printf("  \"live_sessions\": %llu,\n",
                static_cast<unsigned long long>(hi.liveSessions));
    std::printf("  \"quarantined_cells\": %llu,\n",
                static_cast<unsigned long long>(hi.quarantinedCells));
    std::printf("  \"registry_depth\": %llu,\n",
                static_cast<unsigned long long>(hi.registryDepth));
    std::printf("  \"stalled_cells\": %llu,\n",
                static_cast<unsigned long long>(hi.stalledCells));
    std::printf("  \"store_records\": %llu,\n",
                static_cast<unsigned long long>(hi.storeRecords));
    std::printf("  \"watchdog_budget_ms\": %llu,\n",
                static_cast<unsigned long long>(hi.watchdogBudgetMs));
    std::printf("  \"trace_mapped_bytes\": %llu,\n",
                static_cast<unsigned long long>(hi.traceMappedBytes));
    std::printf("  \"trace_resident_bytes\": %llu,\n",
                static_cast<unsigned long long>(
                    hi.traceResidentBytes));
    std::printf("  \"trace_budget_bytes\": %llu,\n",
                static_cast<unsigned long long>(hi.traceBudgetBytes));
    std::printf("  \"trace_evictions\": %llu,\n",
                static_cast<unsigned long long>(hi.traceEvictions));
    std::printf("  \"shards\": [");
    for (std::size_t i = 0; i < hi.shards.size(); ++i) {
        const net::ShardHealth &sh = hi.shards[i];
        std::printf("%s\n    {\"index\": %u, \"state\": \"%s\", "
                    "\"generation\": %llu, \"restarts\": %llu, "
                    "\"port\": %u, \"stalled_cells\": %llu, "
                    "\"quarantined_cells\": %llu, "
                    "\"store_records\": %llu}",
                    i == 0 ? "" : ",",
                    static_cast<unsigned>(sh.index),
                    net::shardStateName(sh.state),
                    static_cast<unsigned long long>(sh.generation),
                    static_cast<unsigned long long>(sh.restarts),
                    static_cast<unsigned>(sh.port),
                    static_cast<unsigned long long>(sh.stalledCells),
                    static_cast<unsigned long long>(
                        sh.quarantinedCells),
                    static_cast<unsigned long long>(sh.storeRecords));
    }
    std::printf("%s]\n}\n", hi.shards.empty() ? "" : "\n  ");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    MatrixQuery query;
    bool csv = false;
    bool info = false;
    bool health = false;
    bool json = false;
    bool ping = false;
    std::uint16_t port = 7411;
    std::string port_file;
    net::RetryPolicy policy;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--port") {
            port = static_cast<std::uint16_t>(
                std::atoi(value().c_str()));
            if (port == 0)
                usage();
        } else if (arg == "--port-file") {
            port_file = value();
        } else if (arg == "--set") {
            query.set = value();
        } else if (arg == "--configs") {
            query.configs = value();
        } else if (arg == "--widths") {
            query.widths = parseWidths(value());
            if (query.widths.empty())
                usage();
        } else if (arg == "--metric") {
            query.metric = value();
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--deadline-ms") {
            query.deadlineMs = parseDeadlineMs(value());
        } else if (arg == "--retries") {
            policy.retries = static_cast<unsigned>(
                std::atoi(value().c_str()));
        } else if (arg == "--retry-budget-ms") {
            policy.budgetMs = static_cast<std::uint64_t>(
                std::atoll(value().c_str()));
        } else if (arg == "--info") {
            info = true;
        } else if (arg == "--health") {
            health = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--ping") {
            ping = true;
        } else if (arg == "--version") {
            ddsc::support::version::print("ddsc-client");
            return 0;
        } else {
            usage();
        }
    }
    if (json && !health)
        usage();
    std::string why;
    if (!info && !health && !ping && !query.validate(&why)) {
        std::fprintf(stderr, "ddsc-client: %s\n", why.c_str());
        usage();
    }

    try {
        // Re-reading the port file before every connect is what lets
        // retries follow a supervised server across restarts: each
        // generation binds a fresh ephemeral port and rewrites the
        // file once its listener is live.
        auto provider = [port, port_file]() -> std::uint16_t {
            if (!port_file.empty())
                return support::readPortFile(port_file);
            return port;
        };
        net::Client client(provider, -1, policy);

        if (ping) {
            client.ping();
            std::printf("pong\n");
            return 0;
        }
        if (info) {
            const net::ServerInfo si = client.info();
            std::printf("protocol          : %u\n", si.versions.protocol);
            std::printf("trace format      : %u\n",
                        si.versions.traceFormat);
            std::printf("store schema      : %u\n",
                        si.versions.storeSchema);
            std::printf("fingerprint schema: %u\n",
                        si.versions.fingerprintSchema);
            std::printf("jobs              : %u\n", si.jobs);
            std::printf("cached cells      : %llu\n",
                        static_cast<unsigned long long>(si.cachedCells));
            std::printf("simulated         : %llu\n",
                        static_cast<unsigned long long>(si.simulated));
            std::printf("store hits        : %llu\n",
                        static_cast<unsigned long long>(si.storeHits));
            std::printf("coalesced         : %llu\n",
                        static_cast<unsigned long long>(si.coalesced));
            std::printf("requests served   : %llu\n",
                        static_cast<unsigned long long>(
                            si.requestsServed));
            std::printf("active sessions   : %llu\n",
                        static_cast<unsigned long long>(
                            si.activeSessions));
            std::printf("store             : %s\n",
                        si.hasStore ? si.storePath.c_str() : "(none)");
            return 0;
        }
        if (health) {
            const net::HealthInfo hi = client.health();
            if (json) {
                printHealthJson(hi);
                return 0;
            }
            std::printf("uptime ms         : %llu\n",
                        static_cast<unsigned long long>(hi.uptimeMs));
            std::printf("generation        : %llu\n",
                        static_cast<unsigned long long>(
                            hi.generation));
            std::printf("live sessions     : %llu\n",
                        static_cast<unsigned long long>(
                            hi.liveSessions));
            std::printf("quarantined cells : %llu\n",
                        static_cast<unsigned long long>(
                            hi.quarantinedCells));
            std::printf("registry depth    : %llu\n",
                        static_cast<unsigned long long>(
                            hi.registryDepth));
            std::printf("stalled cells     : %llu\n",
                        static_cast<unsigned long long>(
                            hi.stalledCells));
            std::printf("store records     : %llu\n",
                        static_cast<unsigned long long>(
                            hi.storeRecords));
            std::printf("watchdog budget ms: %llu\n",
                        static_cast<unsigned long long>(
                            hi.watchdogBudgetMs));
            std::printf("trace mapped bytes: %llu\n",
                        static_cast<unsigned long long>(
                            hi.traceMappedBytes));
            std::printf("trace resident    : %llu\n",
                        static_cast<unsigned long long>(
                            hi.traceResidentBytes));
            std::printf("trace budget bytes: %llu\n",
                        static_cast<unsigned long long>(
                            hi.traceBudgetBytes));
            std::printf("trace evictions   : %llu\n",
                        static_cast<unsigned long long>(
                            hi.traceEvictions));
            for (const net::ShardHealth &sh : hi.shards) {
                std::printf("shard %-12u: %s, generation %llu, "
                            "%llu restart(s), port %u, "
                            "%llu store record(s)\n",
                            static_cast<unsigned>(sh.index),
                            net::shardStateName(sh.state),
                            static_cast<unsigned long long>(
                                sh.generation),
                            static_cast<unsigned long long>(
                                sh.restarts),
                            static_cast<unsigned>(sh.port),
                            static_cast<unsigned long long>(
                                sh.storeRecords));
            }
            return 0;
        }

        const MatrixResult result = client.matrix(query);
        std::fputs(result.render(csv).c_str(), stdout);
        std::fprintf(stderr,
                     "# %llu cells: %llu simulated, %llu store hits, "
                     "%llu coalesced, %.2fs of simulation\n",
                     static_cast<unsigned long long>(
                         result.summary.cells),
                     static_cast<unsigned long long>(
                         result.summary.simulated),
                     static_cast<unsigned long long>(
                         result.summary.storeHits),
                     static_cast<unsigned long long>(
                         result.summary.coalesced),
                     result.summary.cellSeconds);
        if (!result.quarantined.empty()) {
            std::fputs(
                quarantineSummary(result.quarantined, "ddsc-client")
                    .c_str(),
                stderr);
            return 1;
        }
        return 0;
    } catch (const net::ServerError &e) {
        if (e.retryAfterMs > 0)
            std::fprintf(stderr,
                         "ddsc-client: server error: %s "
                         "(retry after %llu ms)\n",
                         e.what(),
                         static_cast<unsigned long long>(
                             e.retryAfterMs));
        else
            std::fprintf(stderr, "ddsc-client: server error: %s\n",
                         e.what());
        return 4;
    } catch (const net::TransportError &e) {
        std::fprintf(stderr, "ddsc-client: %s\n", e.what());
        return 3;
    }
}
