/**
 * @file
 * ddsc-matrix: run an arbitrary slice of the experiment matrix.
 *
 * Usage:
 *   ddsc-matrix [--set all|pc|npc] [--configs ABCDEFG] [--widths 4,8,16]
 *               [--metric ipc|speedup|collapsed] [--csv] [--jobs N]
 *               [--cache-dir DIR] [--resume] [--trace-dir DIR]
 *               [--list-configs] [--version]
 *
 * Examples:
 *   ddsc-matrix --set pc --configs BDE --metric speedup
 *   ddsc-matrix --widths 4,32 --metric collapsed --csv > fig8.csv
 *   ddsc-matrix --jobs $(nproc)        # parallel cell execution
 *   ddsc-matrix --cache-dir run1       # checkpoint cells as they finish
 *   ddsc-matrix --cache-dir run1 --resume   # ...and pick up after a kill
 *
 * All requested cells are simulated concurrently on --jobs worker
 * threads (default $DDSC_JOBS or the hardware concurrency) before the
 * table is printed; results are bit-identical to --jobs 1.  Cells of
 * a workload whose front-end knobs agree share one streaming
 * decode/predict pass feeding every width's window engine (see
 * docs/simulator.md).  DDSC_TRACE_LIMIT truncates traces as
 * everywhere else.
 *
 * --trace-dir DIR spills each workload's trace once to a DDSCTRC v4
 * file under DIR and sweeps it through mmap'd zero-copy cursors, so a
 * matrix over long traces no longer holds one std::vector per
 * workload; results are bit-identical either way.
 *
 * stdout carries only the table/CSV (the same bytes ddsc-client
 * prints for the same query); status and timing lines go to stderr
 * prefixed with "# ".
 *
 * --cache-dir DIR (or $DDSC_CACHE_DIR) persists every finished cell to
 * DIR/results.ddsc.  Reusing a non-empty cache requires --resume, so a
 * stale directory is never picked up by accident.  A cell whose
 * simulation keeps failing is quarantined: the rest of the matrix
 * completes, the cell prints as "n/a", the failure summary names it on
 * stderr, and the exit status is 1.
 *
 * Ctrl-C (or SIGTERM) interrupts the sweep cooperatively: cells that
 * already finished are flushed to the attached store record-complete,
 * workers skip cells they have not started, and the tool exits
 * 128+signal with a note saying how much was checkpointed — no torn
 * tail for --resume to recover.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "sim/experiment.hh"
#include "sim/matrix_query.hh"
#include "sim/result_store.hh"
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
        "usage: ddsc-matrix [--set all|pc|npc] [--configs ABCDEFG]\n"
        "                   [--widths 4,8,...] "
        "[--metric ipc|speedup|collapsed] [--csv] [--jobs N]\n"
        "                   [--cache-dir DIR] [--resume] "
        "[--trace-dir DIR]\n"
        "                   [--list-configs] [--version]\n");
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    MatrixQuery query;
    bool csv = false;
    unsigned jobs = 0;      // 0 = $DDSC_JOBS or hardware concurrency
    std::string cache_dir;
    if (const char *env = std::getenv("DDSC_CACHE_DIR"))
        cache_dir = env;
    bool resume = false;
    std::string trace_dir;
    bool list_configs = false;
    bool version = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--set") {
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
        } else if (arg == "--jobs") {
            jobs = support::ThreadPool::parseJobs(value().c_str());
            if (jobs == 0)
                usage();
        } else if (arg == "--cache-dir") {
            cache_dir = value();
        } else if (arg == "--trace-dir") {
            trace_dir = value();
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
        support::version::print("ddsc-matrix");
        return 0;
    }
    if (list_configs) {
        cli::printConfigList(16);
        return 0;
    }
    std::string why;
    if (!query.validate(&why)) {
        std::fprintf(stderr, "ddsc-matrix: %s\n", why.c_str());
        usage();
    }

    support::installShutdownHandler();

    ExperimentDriver driver;
    if (jobs != 0)
        driver.setJobs(jobs);
    driver.setInterruptible(true);
    if (!trace_dir.empty())
        driver.setTraceDir(trace_dir);
    const std::unique_ptr<ResultStore> store =
        cli::openCacheDir("ddsc-matrix", cache_dir, resume, usage);
    driver.attachStore(store.get());

    const auto wall_start = std::chrono::steady_clock::now();
    const MatrixResult result = runMatrixQuery(driver, query);
    const double wall_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start).count();

    if (result.interrupted) {
        if (store) {
            std::fprintf(stderr,
                         "# interrupted: %zu finished cells "
                         "checkpointed to %s; rerun with --resume to "
                         "continue\n",
                         store->size(), store->path().c_str());
        } else {
            std::fprintf(stderr,
                         "# interrupted: partial results discarded "
                         "(use --cache-dir to checkpoint)\n");
        }
        const int sig = support::shutdownSignal();
        return 128 + (sig != 0 ? sig : 2 /* as if SIGINT */);
    }

    std::fputs(result.render(csv).c_str(), stdout);

    std::fprintf(stderr,
                 "# %zu cells, %.2fs of simulation in %.2fs wall "
                 "(%u jobs)\n",
                 driver.cachedCells(), driver.cachedCellSeconds(),
                 wall_seconds, driver.jobs());
    if (store) {
        std::fprintf(stderr, "# %zu cells served from %s\n",
                     driver.storeHits(), store->path().c_str());
    }

    if (!result.quarantined.empty()) {
        std::fputs(
            quarantineSummary(result.quarantined, "ddsc-matrix")
                .c_str(),
            stderr);
        return 1;
    }
    return 0;
}
