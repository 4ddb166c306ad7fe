/**
 * @file
 * ddsc-sim: command-line driver for the limit simulator.
 *
 * Usage:
 *   ddsc-sim --workload li [--scale N] [--config D] [--width 16]
 *   ddsc-sim --asm prog.s  [--config D] [--width 16]
 *   ddsc-sim --trace prog.trc [--config D] [--width 16]
 *
 * Options:
 *   --workload NAME   one of compress espresso eqntott li go ijpeg
 *   --scale N         workload scale (0 = default)
 *   --asm FILE        assemble FILE, execute it, simulate its trace
 *   --trace FILE      simulate a binary trace file (see ddsc-asm);
 *                     a DDSCTRC v4 file with no --limit is mmap'd and
 *                     swept zero-copy instead of loaded into memory
 *   --config X..      one or more of A..G (default D); several
 *                     letters (e.g. --config ABDE) sweep the trace
 *                     through each machine, in parallel across --jobs
 *   --width N         issue width (default 16); window is 2x width
 *   --elim            enable node elimination (extension)
 *   --addrpred KIND   twodelta|lastvalue|context (default twodelta)
 *   --limit N         simulate at most N instructions
 *   --jobs N          worker threads for multi-config sweeps
 *                     (default $DDSC_JOBS or hardware concurrency)
 *   --cache-dir DIR   persist each finished config's stats to
 *                     DIR/results.ddsc (or $DDSC_CACHE_DIR)
 *   --resume          reuse an existing cache: configs whose stored
 *                     fingerprint and trace digest still match are
 *                     served from disk instead of re-simulated
 *   --list-configs    print every known configuration letter with its
 *                     speculation-module stack and fingerprint, exit
 *   --version         print format/schema versions and exit
 *
 * Configs whose front-end knobs agree share one front-end pass (the
 * paper's ABDE sweep decodes the trace twice, not four times).  A
 * config whose simulation keeps throwing is contained: it is retried
 * alone, the other configs of the sweep still run and print, the
 * failure summary names the bad cell on stderr, and the exit status
 * is 1.
 *
 * Ctrl-C (or SIGTERM) during a sweep is cooperative: configs that
 * already finished are still persisted to the attached cache
 * record-complete, unstarted configs are skipped, and the exit status
 * is 128+signal.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/scheduler.hh"
#include "masm/assembler.hh"
#include "spec/orchestrator.hh"
#include "trace/mapped.hh"
#include "sim/batched.hh"
#include "sim/experiment.hh"
#include "sim/result_store.hh"
#include "support/decimal.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "support/thread_pool.hh"
#include "support/version.hh"
#include "vm/vm.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ddsc;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
        "usage: ddsc-sim --workload NAME | --asm FILE | --trace FILE\n"
        "                [--scale N] [--config A..G ...] [--width N]\n"
        "                [--elim] [--addrpred twodelta|lastvalue|context]\n"
        "                [--limit N] [--jobs N] [--cache-dir DIR]\n"
        "                [--resume] [--list-configs] [--version]\n");
    std::exit(2);
}

/** `--list-configs`: every known configuration letter with its active
 *  speculation-module stack and cache-key fingerprint. */
[[noreturn]] void
listConfigs(unsigned width)
{
    std::printf("known configurations (fingerprint schema %u, %u "
                "fields; width %u shown):\n",
                support::version::kFingerprintSchema,
                support::version::kFingerprintFields, width);
    for (const char c : MachineConfig::knownConfigs()) {
        const MachineConfig cfg = MachineConfig::paper(c, width);
        std::printf("  %c  %s\n", c, MachineConfig::letterSummary(c));
        std::printf("     modules    : %s\n",
                    spec::moduleStackSummary(cfg).c_str());
        std::printf("     fingerprint: %s\n", cfg.fingerprint().c_str());
    }
    std::exit(0);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        ddsc_fatal("cannot open '%s'", path.c_str());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
printStats(const MachineConfig &config, const SchedStats &stats)
{
    std::printf("machine     : %s, width %u, window %u\n",
                config.name.c_str(), config.issueWidth,
                config.windowSize);
    std::printf("instructions: %llu\n",
                static_cast<unsigned long long>(stats.instructions));
    std::printf("cycles      : %llu\n",
                static_cast<unsigned long long>(stats.cycles));
    std::printf("IPC         : %.3f  (%.1f%% idle cycles, peak %llu "
                "issues/cycle)\n",
                stats.ipc(), stats.pctIdleCycles(),
                static_cast<unsigned long long>(
                    stats.issuedPerCycle.maxKey()));
    std::printf("branches    : %llu cond, %.2f%% predicted correctly\n",
                static_cast<unsigned long long>(stats.condBranches),
                stats.branchAccuracy());
    if (config.loadSpec != LoadSpecMode::None && stats.loads > 0) {
        std::printf("loads       : %llu (",
                    static_cast<unsigned long long>(stats.loads));
        for (unsigned c = 0; c < kNumLoadClasses; ++c) {
            std::printf("%s%s %.1f%%", c ? ", " : "",
                        std::string(loadClassName(
                            static_cast<LoadClass>(c))).c_str(),
                        stats.loadClassPct(static_cast<LoadClass>(c)));
        }
        std::printf(")\n");
    }
    if (config.collapsing) {
        std::printf("collapsing  : %.1f%% of instructions, "
                    "%llu events (3-1 %.1f%%, 4-1 %.1f%%, 0-op %.1f%%)\n",
                    stats.pctCollapsed(),
                    static_cast<unsigned long long>(
                        stats.collapse.events()),
                    stats.collapse.pctOf(CollapseCategory::ThreeOne),
                    stats.collapse.pctOf(CollapseCategory::FourOne),
                    stats.collapse.pctOf(CollapseCategory::ZeroOp));
    }
    if (config.memDep == MemDepMode::Predicted) {
        std::printf("mem-dep     : %llu predicted dependent "
                    "(%llu false), %llu squashes\n",
                    static_cast<unsigned long long>(
                        stats.memDepPredictedDeps),
                    static_cast<unsigned long long>(
                        stats.memDepFalseDeps),
                    static_cast<unsigned long long>(
                        stats.memDepSquashes));
    }
    if (config.loadValuePrediction) {
        std::printf("value-pred  : %llu hits, %llu confident-wrong\n",
                    static_cast<unsigned long long>(stats.valuePredHits),
                    static_cast<unsigned long long>(
                        stats.valuePredWrong));
    }
    if (config.nodeElimination) {
        std::printf("eliminated  : %.2f%% of instructions\n",
                    stats.pctEliminated());
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload, asm_path, trace_path;
    unsigned scale = 0;
    std::string config_ids = "D";
    unsigned width = 16;
    bool elim = false;
    AddrPredKind pred_kind = AddrPredKind::TwoDelta;
    std::uint64_t limit = 0;
    unsigned jobs = support::ThreadPool::defaultJobs();
    std::string cache_dir;
    if (const char *env = std::getenv("DDSC_CACHE_DIR"))
        cache_dir = env;
    bool resume = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        // Numeric flags are plain decimals that fit their field: "4x"
        // must not read as 4, nor "-1" wrap to four billion.
        auto number = [&](auto &field) {
            if (!support::parseDecimal(value(), field))
                usage();
        };
        if (arg == "--workload") {
            workload = value();
        } else if (arg == "--asm") {
            asm_path = value();
        } else if (arg == "--trace") {
            trace_path = value();
        } else if (arg == "--scale") {
            number(scale);
        } else if (arg == "--config") {
            const std::string v = value();
            if (v.empty())
                usage();
            for (const char c : v) {
                if (!ddsc::MachineConfig::isKnownConfig(c))
                    usage();
            }
            config_ids = v;
        } else if (arg == "--jobs") {
            jobs = support::ThreadPool::parseJobs(value().c_str());
            if (jobs == 0)
                usage();
        } else if (arg == "--width") {
            number(width);
            if (width == 0)
                usage();
        } else if (arg == "--elim") {
            elim = true;
        } else if (arg == "--addrpred") {
            const std::string v = value();
            if (v == "twodelta") {
                pred_kind = AddrPredKind::TwoDelta;
            } else if (v == "lastvalue") {
                pred_kind = AddrPredKind::LastValue;
            } else if (v == "context") {
                pred_kind = AddrPredKind::Context;
            } else {
                usage();
            }
        } else if (arg == "--limit") {
            number(limit);
        } else if (arg == "--cache-dir") {
            cache_dir = value();
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--list-configs") {
            listConfigs(width);
        } else if (arg == "--version") {
            support::version::print("ddsc-sim");
            return 0;
        } else {
            usage();
        }
    }

    support::installShutdownHandler();

    const int sources = (workload.empty() ? 0 : 1) +
        (asm_path.empty() ? 0 : 1) + (trace_path.empty() ? 0 : 1);
    if (sources != 1)
        usage();
    if (resume && cache_dir.empty()) {
        std::fprintf(stderr,
                     "ddsc-sim: --resume needs --cache-dir "
                     "(or $DDSC_CACHE_DIR)\n");
        usage();
    }

    std::unique_ptr<ResultStore> store;
    if (!cache_dir.empty()) {
        const auto file =
            std::filesystem::path(cache_dir) / "results.ddsc";
        std::error_code ec;
        if (!resume && std::filesystem::exists(file, ec)) {
            ddsc_fatal("cache '%s' already exists; pass --resume to "
                       "reuse it or remove the directory",
                       file.string().c_str());
        }
        store = std::make_unique<ResultStore>(cache_dir);
        if (resume) {
            const StoreLoadReport &report = store->loadReport();
            std::fprintf(stderr,
                         "# resuming from %s: %zu cells on disk, "
                         "%zu discarded%s%s\n",
                         store->path().c_str(), report.loaded,
                         report.discarded,
                         report.note.empty() ? "" : " -- ",
                         report.note.c_str());
        }
    }

    // Build the trace.
    std::unique_ptr<TraceSource> source;
    if (!workload.empty()) {
        std::uint32_t checksum = 0;
        auto trace = std::make_unique<VectorTraceSource>(
            traceWorkload(findWorkload(workload), scale, &checksum));
        std::printf("workload    : %s (%zu instructions, checksum %u)\n",
                    workload.c_str(), trace->size(), checksum);
        source = std::move(trace);
    } else if (!asm_path.empty()) {
        const Program program = assembleOrDie(readFile(asm_path));
        auto trace = std::make_unique<VectorTraceSource>();
        VectorTraceSink sink(*trace);
        Vm vm(program);
        const Vm::RunResult run = vm.run(&sink, 2'000'000'000ull);
        if (!run.halted)
            ddsc_fatal("'%s' did not halt", asm_path.c_str());
        std::printf("program     : %s (%zu instructions, r25=%u)\n",
                    asm_path.c_str(), trace->size(),
                    vm.reg(kChecksumReg));
        source = std::move(trace);
    } else {
        source = std::make_unique<TraceFileSource>(trace_path);
        std::printf("trace file  : %s\n", trace_path.c_str());
    }

    auto machineFor = [&](char config_id) {
        MachineConfig config = MachineConfig::paper(config_id, width);
        config.nodeElimination = elim;
        config.addrPredKind = pred_kind;
        return config;
    };

    // Without a cache a single config streams the source directly;
    // everything else shares one immutable trace image so each run
    // gets a private cursor and the cache key can include the trace
    // digest.
    if (config_ids.size() == 1 && !store) {
        const MachineConfig config = machineFor(config_ids[0]);
        LimitScheduler scheduler(config);
        SchedStats stats;
        if (limit != 0) {
            BoundedTraceSource bounded(*source, limit);
            stats = scheduler.run(bounded);
        } else {
            stats = scheduler.run(*source);
        }
        printStats(config, stats);
        return 0;
    }

    // A v4 --trace input with no --limit never touches a
    // std::vector: the file is mmap'd once and every config's cursor
    // walks the same read-only pages (digest comes from the header,
    // so even the cache key costs no pass over the records).
    std::unique_ptr<const SharedTrace> shared;
    if (!trace_path.empty() && limit == 0 &&
        MappedTraceSource::probe(trace_path, nullptr, nullptr)) {
        auto mapped = std::make_unique<MappedTraceSource>(trace_path);
        std::printf("mapped      : %llu records, %llu bytes\n",
                    static_cast<unsigned long long>(
                        mapped->recordCount()),
                    static_cast<unsigned long long>(
                        mapped->mappedBytes()));
        shared = std::move(mapped);
    } else {
        auto materialized = std::make_unique<VectorTraceSource>();
        VectorTraceSink sink(*materialized);
        TraceRecord rec;
        std::uint64_t taken = 0;
        while ((limit == 0 || taken < limit) && source->next(rec)) {
            sink.emit(rec);
            ++taken;
        }
        shared = std::move(materialized);
    }
    const std::string label = !workload.empty() ? workload
        : !asm_path.empty() ? asm_path : trace_path;
    const std::uint64_t digest = store ? shared->digest() : 0;

    struct CellRun
    {
        MachineConfig config;
        std::string key;        ///< cellKey(), e.g. "li/D/16"
        SchedStats stats;
        bool ok = false;
        bool fromStore = false;
        std::string error;
    };
    std::vector<CellRun> runs;
    for (const char c : config_ids) {
        CellRun run;
        run.config = machineFor(c);
        run.key = cellKey(label, run.config);
        if (store) {
            const SchedStats *stored = store->lookup(
                run.key, run.config.fingerprint(), digest);
            if (stored) {
                run.stats = *stored;
                run.ok = run.fromStore = true;
            }
        }
        runs.push_back(std::move(run));
    }

    // Group pending configs by front-end fingerprint: each group is
    // one streaming decode/predict pass over a private read-only
    // cursor, feeding all its window engines; groups run in parallel.
    // Results print in the order the configs were given regardless of
    // which finished first.  A throwing config is retried alone, then
    // reported — it never takes the rest of the sweep down.
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (runs[i].fromStore)
            continue;
        const std::string fp = runs[i].config.frontEndFingerprint();
        std::size_t g = 0;
        while (g < groups.size() &&
               runs[groups[g][0]].config.frontEndFingerprint() != fp)
            ++g;
        if (g == groups.size())
            groups.emplace_back();
        groups[g].push_back(i);
    }
    support::parallelFor(groups.size(), jobs, [&](std::size_t g) {
        if (support::shutdownRequested())
            return;     // interrupted: skip configs not yet started
        std::vector<MachineConfig> configs;
        std::vector<std::string> keys;
        for (const std::size_t i : groups[g]) {
            configs.push_back(runs[i].config);
            keys.push_back(runs[i].key);
        }
        const BatchedGroupResult out =
            runBatchedGroupWithRetry(*shared, configs, keys);
        for (std::size_t k = 0; k < groups[g].size(); ++k) {
            CellRun &run = runs[groups[g][k]];
            run.ok = out.cells[k].ok;
            if (run.ok)
                run.stats = out.cells[k].stats;
            else
                run.error = out.cells[k].error;
        }
    });

    // Persist serially, in config order, so the cache bytes are
    // deterministic for a given sweep.
    if (store) {
        for (const CellRun &run : runs) {
            if (run.ok && !run.fromStore) {
                store->append(run.key, run.config.fingerprint(),
                              digest, run.stats);
            }
        }
    }

    if (support::shutdownRequested()) {
        std::size_t finished = 0;
        for (const CellRun &run : runs)
            finished += run.ok ? 1 : 0;
        if (store) {
            std::fprintf(stderr,
                         "# interrupted: %zu finished config%s "
                         "checkpointed to %s; rerun with --resume to "
                         "continue\n",
                         finished, finished == 1 ? "" : "s",
                         store->path().c_str());
        } else {
            std::fprintf(stderr,
                         "# interrupted: %zu finished config%s "
                         "discarded (use --cache-dir to checkpoint)\n",
                         finished, finished == 1 ? "" : "s");
        }
        return 128 + support::shutdownSignal();
    }

    bool first = true;
    std::size_t failed = 0;
    for (const CellRun &run : runs) {
        if (!run.ok) {
            ++failed;
            continue;
        }
        if (!first)
            std::printf("\n");
        first = false;
        printStats(run.config, run.stats);
    }
    if (failed > 0) {
        std::fprintf(stderr, "ddsc-sim: %zu cell%s quarantined:\n",
                     failed, failed == 1 ? "" : "s");
        for (const CellRun &run : runs) {
            if (!run.ok) {
                std::fprintf(stderr, "  %s: %s (after %u attempts)\n",
                             run.key.c_str(), run.error.c_str(),
                             kCellAttempts);
            }
        }
        return 1;
    }
    return 0;
}
