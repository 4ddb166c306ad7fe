/**
 * @file
 * ddsc-perfbench: the layered benchmark's measuring program.
 *
 *   ddsc-perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --served PATH --data-dir DIR --work-dir DIR
 *                  --state-dir DIR [--commit SHA] [--source-digest HEX]
 *   ddsc-perfbench --emit-digests
 *
 * perfbench/run.py builds it and supplies the paths.  stdout ends with
 * one JSON line: {"correct", "attempted", "failed", "metrics"}; the
 * line before it is the run's stamp.  Notes go to stderr.
 */

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ddsc-perfbench: %s\n"
                 "usage: ddsc-perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --served PATH --data-dir DIR --work-dir DIR "
                 "--state-dir DIR [--commit SHA] [--source-digest HEX]\n"
                 "       ddsc-perfbench --emit-digests\n",
                 why);
    std::exit(2);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

void
printStamp(const Options &o)
{
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    std::printf(
        "{\"stamp\": {\"commit\": \"%s\", \"source_digest\": \"%s\", "
        "\"compiler\": \"%s\", \"cxx_flags\": \"%s\", \"build_type\": "
        "\"%s\", \"ndebug\": %s, \"nproc\": %u, \"jobs\": %u, "
        "\"connections\": %u, \"trace_limits\": {\"sweep_paper\": %" PRIu64
        ", \"cached\": %" PRIu64 ", \"serve_explore\": %" PRIu64
        ", \"explore_budget_mb\": %" PRIu64 "}, \"workload\": \"%s\", "
        "\"seed\": %" PRIu64 ", \"seconds\": %g, \"trace\": %d}}\n",
        jsonEscape(o.commit).c_str(), jsonEscape(o.sourceDigest).c_str(),
        PERFBENCH_COMPILER, jsonEscape(PERFBENCH_CXX_FLAGS).c_str(),
        PERFBENCH_BUILD_TYPE, ndebug ? "true" : "false",
        std::thread::hardware_concurrency(), kJobs, kConnections, kSweepLimit,
        kCachedLimit, kExploreLimit, kExploreBudgetMb, o.workload.c_str(),
        o.seed, o.seconds, o.trace ? 1 : 0);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options o;
    bool haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--emit-digests")
            return emitSweepDigests();
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), nullptr);
            haveSeconds = true;
        } else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--served")
            o.served = v;
        else if (a == "--data-dir")
            o.dataDir = v;
        else if (a == "--work-dir")
            o.workDir = v;
        else if (a == "--state-dir")
            o.stateDir = v;
        else if (a == "--commit")
            o.commit = v;
        else if (a == "--source-digest")
            o.sourceDigest = v;
        else
            usage(("unknown option " + a).c_str());
    }
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == o.workload;
    if (!known)
        usage("unknown or missing --workload");
    if (!haveSeconds || !(o.seconds > 0.0))
        usage("--seconds must be positive");
    if (o.served.empty() || o.dataDir.empty() || o.workDir.empty() ||
        o.stateDir.empty())
        usage("--served, --data-dir, --work-dir and --state-dir are "
              "required");

    RunResult r;
    try {
        r = runWorkload(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ddsc-perfbench: %s: %s\n", o.workload.c_str(),
                     e.what());
        return 1;
    }
    for (const std::string &n : r.notes)
        std::fprintf(stderr, "# %s\n", n.c_str());
    if (r.attempted == 0) {
        std::fprintf(stderr, "ddsc-perfbench: nothing was attempted\n");
        return 1;
    }
    if (r.failed != 0)
        r.correct = false;

    printStamp(o);
    std::string line = "{\"correct\": ";
    line += r.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(r.attempted);
    line += ", \"failed\": " + std::to_string(r.failed);
    line += ", \"metrics\": {";
    bool first = true;
    char num[64];
    for (const auto &[name, m] : r.metrics) {
        std::snprintf(num, sizeof num, "%.17g", m.value);
        line += (first ? "" : ", ") + std::string("\"") + name +
                "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
