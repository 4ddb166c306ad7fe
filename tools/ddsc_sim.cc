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
 *                     speculation steps and fingerprint at --width,
 *                     exit
 *   --version         print format/schema versions and exit
 *
 * A sweep (several configs, or any run with a cache) is one
 * ExperimentDriver prefetch over the trace, so it shares the matrix's
 * cell path: configs whose front-end knobs agree share one front-end
 * pass (the paper's ABDE sweep decodes the trace twice, not four
 * times).  A config whose simulation keeps throwing is contained: it
 * is retried alone, the other configs of the sweep still run and
 * print, the failure summary names the bad cell on stderr, and the
 * exit status is 1.
 *
 * Ctrl-C (or SIGTERM) during a sweep is cooperative: configs that
 * already finished are still persisted to the attached cache
 * record-complete, unstarted configs are skipped, and the exit status
 * is 128+signal.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "core/scheduler.hh"
#include "masm/assembler.hh"
#include "trace/mapped.hh"
#include "sim/experiment.hh"
#include "sim/matrix_query.hh"
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
    bool list_configs = false;
    bool version = false;

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
            list_configs = true;
        } else if (arg == "--version") {
            version = true;
        } else {
            usage();
        }
    }
    if (version) {     // only once the whole command line parses
        support::version::print("ddsc-sim");
        return 0;
    }

    if (list_configs) {
        cli::printConfigList(width);
        return 0;
    }

    support::installShutdownHandler();

    const int sources = (workload.empty() ? 0 : 1) +
        (asm_path.empty() ? 0 : 1) + (trace_path.empty() ? 0 : 1);
    if (sources != 1)
        usage();
    const std::unique_ptr<ResultStore> store =
        cli::openCacheDir("ddsc-sim", cache_dir, resume, usage);

    // Build the trace.  A --workload or --asm trace is built in memory,
    // and a sweep adopts that vector itself; a --trace file streams.
    std::unique_ptr<VectorTraceSource> built;
    std::unique_ptr<TraceFileSource> file;
    if (!workload.empty()) {
        std::uint32_t checksum = 0;
        built = std::make_unique<VectorTraceSource>(
            traceWorkload(findWorkload(workload), scale, &checksum));
        std::printf("workload    : %s (%zu instructions, checksum %u)\n",
                    workload.c_str(), built->size(), checksum);
    } else if (!asm_path.empty()) {
        const Program program = assembleFileOrDie(asm_path);
        built = std::make_unique<VectorTraceSource>();
        VectorTraceSink sink(*built);
        Vm vm(program);
        const Vm::RunResult run = vm.run(&sink, 2'000'000'000ull);
        if (!run.halted)
            ddsc_fatal("'%s' did not halt", asm_path.c_str());
        std::printf("program     : %s (%zu instructions, r25=%u)\n",
                    asm_path.c_str(), built->size(),
                    vm.reg(kChecksumReg));
    } else {
        file = std::make_unique<TraceFileSource>(trace_path);
        std::printf("trace file  : %s\n", trace_path.c_str());
    }
    TraceSource &source =
        built ? static_cast<TraceSource &>(*built) : *file;

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
            BoundedTraceSource bounded(source, limit);
            stats = scheduler.run(bounded);
        } else {
            stats = scheduler.run(source);
        }
        printStats(config, stats);
        return 0;
    }

    // A v4 --trace input with no --limit never touches a
    // std::vector: the file is mmap'd once and every config's cursor
    // walks the same read-only pages (digest comes from the header,
    // so even the cache key costs no pass over the records).  A built
    // trace is adopted as it is, or as a copy of its first --limit
    // records when that is shorter; only a --trace file is read into
    // a new vector.
    std::unique_ptr<const SharedTrace> shared;
    if (built && (limit == 0 || limit >= built->size())) {
        shared = std::move(built);
    } else if (built) {
        const auto &records = built->records();
        auto prefix = std::make_unique<VectorTraceSource>(
            std::vector<TraceRecord>(records.begin(),
                                     records.begin() +
                                         static_cast<std::ptrdiff_t>(limit)));
        built.reset();
        shared = std::move(prefix);
    } else if (limit == 0 &&
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
        while ((limit == 0 || taken < limit) && file->next(rec)) {
            sink.emit(rec);
            ++taken;
        }
        shared = std::move(materialized);
    }

    // The sweep is one prefetch() of the driver over the adopted trace.
    // A built-in workload keeps its spec, so its cells are named like
    // the matrix's ("espresso/D/8"); an --asm program or a --trace file
    // is named by its path.  An adopted trace is never truncated; the
    // limit that never binds also keeps the driver from reading (and
    // warning about) $DDSC_TRACE_LIMIT, which ddsc-sim ignores.  No
    // sweep has more groups than configs, hence no more workers.
    WorkloadSpec named{};
    named.name = !asm_path.empty() ? asm_path : trace_path;
    const WorkloadSpec &spec =
        !workload.empty() ? findWorkload(workload) : named;
    ExperimentDriver driver(std::numeric_limits<std::uint64_t>::max(),
                            false,
                            std::min<unsigned>(jobs, config_ids.size()));
    driver.setInterruptible(true);
    driver.attachStore(store.get());
    driver.adoptTrace(spec, std::move(shared));
    std::vector<MachineCell> cells;
    for (const char c : config_ids)
        cells.push_back({&spec, machineFor(c)});
    driver.prefetch(cells);

    // After Ctrl-C the finished configs are the cached cells (store
    // hits included); the others never started.
    if (support::shutdownRequested()) {
        const std::size_t done = driver.cachedCells();
        std::fprintf(stderr, "# interrupted: %zu finished config%s ",
                     done, done == 1 ? "" : "s");
        if (store) {
            std::fprintf(stderr, "checkpointed to %s; rerun with "
                         "--resume to continue\n", store->path().c_str());
        } else {
            std::fprintf(stderr,
                         "discarded (use --cache-dir to checkpoint)\n");
        }
        return 128 + support::shutdownSignal();
    }

    // Every config is cached or quarantined; print in the order given.
    bool first = true;
    std::vector<CellFailure> quarantined;
    for (const MachineCell &cell : cells) {
        try {
            const SchedStats &stats = driver.statsFor(spec, cell.config);
            if (!first)
                std::printf("\n");
            first = false;
            printStats(cell.config, stats);
        } catch (const CellQuarantined &bad) {
            quarantined.push_back(bad.failure);
        }
    }
    if (!quarantined.empty()) {
        std::fputs(quarantineSummary(quarantined, "ddsc-sim").c_str(),
                   stderr);
        return 1;
    }
    return 0;
}
