/**
 * @file
 * Scheduler-throughput microbenchmark over the test-scale experiment
 * matrix.  Unlike the figure/table benches (which reproduce paper
 * numbers), this one records how fast the simulator itself runs, so
 * the perf trajectory of the core is tracked across PRs:
 *
 *   bench_sched [output.json]        (default BENCH_sched.json)
 *
 * The JSON reports cells/sec and instrs/sec over the whole matrix,
 * per-cell wallNanos, and a per-cell digest folding every
 * deterministic SchedStats field (everything except wallNanos) so two
 * builds can be compared for bit-identical simulation results.
 *
 * The baseline series is the driver's default path, the one every
 * tool runs: one shared front-end pass per (workload, front-end
 * fingerprint) group feeding placement back-ends.  Its throughput is
 * the JSON's top level.  A `mapped` series re-runs the matrix with
 * the traces spilled to DDSCTRC v4 files and swept through mmap'd
 * zero-copy cursors — its per-cell digests must equal the baseline's,
 * and its instrs/sec lands in the JSON (speedupOverBaseline) so a
 * regression on the mapped path is visible.  Host speed drifts on a
 * shared machine, so the baseline and mapped sweeps alternate for
 * five rounds: each series reports its median pass and the mapped
 * ratio is the median of the per-round ratios.  A `modules`
 * series does the same sweep for the speculation-module configs F
 * and G.
 *
 * It also cross-checks the baseline and module cells of the small
 * widths against the naive reference engine — plus a
 * value-prediction-only configuration, which the paper matrix never
 * exercises — and exits nonzero on any stats mismatch *or* on any
 * per-cell digest divergence between series.  The CI bench smoke job
 * relies on that exit code and additionally pins every per-cell
 * digest to the committed BENCH_sched.json.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/scheduler.hh"
#include "sim/experiment.hh"
#include "support/thread_pool.hh"

namespace ddsc
{
namespace
{

const std::string kConfigs = "ABCDE";
const std::vector<unsigned> kTimedWidths = {4, 8, 16, 2048};
const std::vector<unsigned> kVerifyWidths = {4, 16};
/** Alternating baseline/mapped timing rounds (odd: a clean median). */
constexpr unsigned kRounds = 5;

/** Digest every deterministic field of @p s (wallNanos excluded). */
std::uint64_t
digest(const SchedStats &s)
{
    return digestSchedStats(s);
}

SchedStats
runOnce(const SharedTrace &trace, const MachineConfig &config)
{
    const std::unique_ptr<TraceSource> view = trace.cursor();
    LimitScheduler scheduler(config);
    return scheduler.run(*view);
}

/** Re-run @p config on the naive reference engine and compare it
 *  with the production engine's digest @p want, reporting a
 *  mismatch. */
bool
matchesNaive(const SharedTrace &trace, const MachineConfig &config,
             std::uint64_t want, const std::string &what)
{
    MachineConfig naive_config = config;
    naive_config.naiveEngine = true;
    const SchedStats naive = runOnce(trace, naive_config);
    if (digest(naive) == want)
        return true;
    std::fprintf(stderr,
                 "MISMATCH %s: batched digest %016" PRIx64 ", naive "
                 "digest %016" PRIx64 " {cycles=%" PRIu64 " loads=%"
                 PRIu64 " vpredHits=%" PRIu64 "}\n",
                 what.c_str(), want, digest(naive), naive.cycles,
                 naive.loads, naive.valuePredHits);
    return false;
}

/** The per-cell report key, e.g. "li/D/2k". */
std::string
cellKey(const ExperimentCell &cell)
{
    return cell.spec->name + "/" + cell.config + "/" +
           MachineConfig::widthLabel(cell.width);
}

/** The extension configuration the paper matrix never covers: value
 *  prediction without address speculation. */
MachineConfig
valuePredOnly(unsigned width)
{
    MachineConfig config = MachineConfig::paper('A', width);
    config.name = "VP";
    config.loadValuePrediction = true;
    return config;
}

struct CellReport
{
    std::string key;
    std::uint64_t instructions;
    std::uint64_t cycles;
    std::uint64_t wallNanos;
    std::uint64_t digest;
};

/** One timed sweep: summed per-cell scheduler time, wall time, and
 *  digest divergences from the reference rows. */
struct Pass
{
    double cellSeconds = 0.0;
    double elapsed = 0.0;
    unsigned mismatches = 0;
};

/**
 * Sweep @p cells on a fresh driver (traces under @p trace_dir, "" =
 * in memory), materializing the traces before the timed prefetch so
 * it measures the scheduler, not the VM.  An empty @p rows is filled
 * with the per-cell reports; otherwise every cell's digest must equal
 * its row's.
 */
Pass
sweep(const std::vector<ExperimentCell> &cells, const std::string &trace_dir,
      std::vector<CellReport> &rows)
{
    ExperimentDriver driver(0, /*test_scale=*/true);
    driver.setTraceDir(trace_dir);
    for (const WorkloadSpec *spec : ExperimentDriver::everything())
        driver.trace(*spec);
    const auto start = std::chrono::steady_clock::now();
    driver.prefetch(cells);
    Pass pass;
    pass.elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    const bool fill = rows.empty();
    std::uint64_t nanos = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ExperimentCell &cell = cells[i];
        const SchedStats &s =
            driver.stats(*cell.spec, cell.config, cell.width);
        nanos += s.wallNanos;
        if (fill) {
            rows.push_back({cellKey(cell), s.instructions, s.cycles,
                            s.wallNanos, digest(s)});
        } else if (digest(s) != rows[i].digest) {
            ++pass.mismatches;
            std::fprintf(stderr,
                         "MISMATCH %s: digest %016" PRIx64
                         " != baseline digest %016" PRIx64 " (%s)\n",
                         rows[i].key.c_str(), digest(s), rows[i].digest,
                         trace_dir.empty() ? "in memory" : "mapped");
        }
    }
    pass.cellSeconds = static_cast<double>(nanos) * 1e-9;
    return pass;
}

/** The pass with the median summed cell time. */
Pass
medianPass(std::vector<Pass> passes)
{
    std::sort(passes.begin(), passes.end(),
              [](const Pass &a, const Pass &b) {
                  return a.cellSeconds < b.cellSeconds;
              });
    return passes[passes.size() / 2];
}

/** Simulated instructions per second of summed cell time. */
double
instrsPerSec(const std::vector<CellReport> &rows, const Pass &pass)
{
    std::uint64_t instrs = 0;
    for (const CellReport &r : rows)
        instrs += r.instructions;
    return pass.cellSeconds > 0.0
        ? static_cast<double>(instrs) / pass.cellSeconds : 0.0;
}

} // anonymous namespace
} // namespace ddsc

int
main(int argc, char **argv)
{
    using namespace ddsc;

    const char *out_path = argc > 1 ? argv[1] : "BENCH_sched.json";
    const std::vector<const WorkloadSpec *> set =
        ExperimentDriver::everything();
    const unsigned jobs = support::ThreadPool::defaultJobs();

    std::printf("=== scheduler throughput (test-scale matrix) ===\n");
    std::printf("configs %s, widths", kConfigs.c_str());
    for (const unsigned w : kTimedWidths)
        std::printf(" %s", MachineConfig::widthLabel(w).c_str());
    std::printf(", %u jobs\n", jobs);

    // Baseline and mapped passes alternate for kRounds rounds.  Host
    // speed drifts on a shared machine and a process's first pass runs
    // cold, so each series reports its median pass, and the mapped
    // gate ratio is the median of the per-round ratios (each round's
    // two passes ran back to back).  The mapped series reads the
    // traces spilled once to DDSCTRC v4 files through mmap'd zero-copy
    // cursors (spilling happens outside the timed region: it is a
    // one-time cost the server pays at first touch).  Every pass must
    // reproduce the first baseline pass's digests.
    const auto cells =
        ExperimentDriver::cellsFor(set, kConfigs, kTimedWidths);
    const std::string mapped_dir =
        (std::filesystem::temp_directory_path() /
         "ddsc_bench_sched_traces").string();
    std::filesystem::remove_all(mapped_dir);
    std::vector<CellReport> reports;
    std::vector<Pass> baseline_passes, mapped_passes;
    std::vector<double> ratios;
    unsigned repeat_mismatches = 0, mapped_mismatches = 0;
    for (unsigned round = 0; round < kRounds; ++round) {
        const Pass b = sweep(cells, "", reports);
        const Pass m = sweep(cells, mapped_dir, reports);
        repeat_mismatches += b.mismatches;
        mapped_mismatches += m.mismatches;
        baseline_passes.push_back(b);
        mapped_passes.push_back(m);
        ratios.push_back(m.cellSeconds > 0.0
                             ? b.cellSeconds / m.cellSeconds : 0.0);
    }
    std::filesystem::remove_all(mapped_dir);
    const Pass baseline = medianPass(baseline_passes);
    const Pass mapped = medianPass(mapped_passes);
    std::sort(ratios.begin(), ratios.end());
    const double mapped_over_baseline = ratios[kRounds / 2];

    std::uint64_t total_instrs = 0;
    for (const CellReport &r : reports)
        total_instrs += r.instructions;
    const double instrs_per_sec = instrsPerSec(reports, baseline);
    const double cells_per_sec = baseline.elapsed > 0.0
        ? static_cast<double>(cells.size()) / baseline.elapsed : 0.0;
    std::printf("%zu cells, %" PRIu64 " instrs in %.2fs cell time "
                "(%.2fs elapsed)\n",
                cells.size(), total_instrs, baseline.cellSeconds,
                baseline.elapsed);
    std::printf("%.0f instrs/sec, %.1f cells/sec\n",
                instrs_per_sec, cells_per_sec);
    const double mapped_instrs_per_sec = instrsPerSec(reports, mapped);
    std::printf("mapped: %.2fs cell time (%.2fs elapsed), "
                "%.0f instrs/sec, %.2fx the baseline, %u digest "
                "mismatches\n",
                mapped.cellSeconds, mapped.elapsed,
                mapped_instrs_per_sec, mapped_over_baseline,
                mapped_mismatches);

    // Naive cross-check of the baseline cells at the small widths (the
    // naive engine is O(window) per cycle), plus the
    // value-prediction-only configuration the matrix never covers.
    ExperimentDriver traces(0, /*test_scale=*/true);
    unsigned checked = 0, mismatches = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ExperimentCell &cell = cells[i];
        if (std::find(kVerifyWidths.begin(), kVerifyWidths.end(),
                      cell.width) == kVerifyWidths.end())
            continue;
        ++checked;
        if (!matchesNaive(traces.trace(*cell.spec),
                          MachineConfig::paper(cell.config, cell.width),
                          reports[i].digest, reports[i].key))
            ++mismatches;
    }
    for (const WorkloadSpec *spec : set) {
        const SharedTrace &trace = traces.trace(*spec);
        const MachineConfig vp = valuePredOnly(8);
        ++checked;
        if (!matchesNaive(trace, vp, digest(runOnce(trace, vp)),
                          spec->name + "/VP/8"))
            ++mismatches;
    }
    std::printf("naive cross-check: %u cells, %u mismatches\n",
                checked, mismatches);

    // Module-sweep series: the speculation-module configurations
    // (F = predicted memory disambiguation, G = FCM/stride value
    // prediction) over the same matrix through the same path.  The
    // A-E series above never include them, so their digests stay
    // comparable across PRs; this series tracks the modules'
    // simulation cost and pins their engine equivalence — every
    // small-width module cell is re-run on the naive reference
    // engine, and any digest divergence fails the bench like the
    // gates above.
    const std::string module_configs = "FG";
    const auto module_cells =
        ExperimentDriver::cellsFor(set, module_configs, kTimedWidths);
    std::vector<CellReport> module_reports;
    const Pass modules = sweep(module_cells, "", module_reports);
    unsigned module_mismatches = 0;
    for (std::size_t i = 0; i < module_cells.size(); ++i) {
        const ExperimentCell &cell = module_cells[i];
        if (cell.width > kVerifyWidths.back())
            continue;       // the naive engine is O(window)/cycle
        if (!matchesNaive(traces.trace(*cell.spec),
                          MachineConfig::paper(cell.config, cell.width),
                          module_reports[i].digest,
                          module_reports[i].key))
            ++module_mismatches;
    }
    const double module_instrs_per_sec =
        instrsPerSec(module_reports, modules);
    std::printf("modules (%s): %zu cells, %.2fs cell time (%.2fs "
                "elapsed), %.0f instrs/sec, %u digest mismatches\n",
                module_configs.c_str(), module_cells.size(),
                modules.cellSeconds, modules.elapsed,
                module_instrs_per_sec, module_mismatches);

    std::FILE *out = std::fopen(out_path, "w");
    if (!out) {
        std::fprintf(stderr, "cannot open %s\n", out_path);
        return 1;
    }
    const auto writeCells = [&](const char *name,
                                const std::vector<CellReport> &rows,
                                bool last) {
        std::fprintf(out, "  \"%s\": [\n", name);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const CellReport &r = rows[i];
            std::fprintf(out,
                         "    {\"cell\": \"%s\", \"instructions\": %"
                         PRIu64 ", \"cycles\": %" PRIu64
                         ", \"wallNanos\": %" PRIu64
                         ", \"digest\": \"%016" PRIx64 "\"}%s\n",
                         r.key.c_str(), r.instructions, r.cycles,
                         r.wallNanos, r.digest,
                         i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(out, "  ]%s\n", last ? "" : ",");
    };
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"matrix\": {\"workloads\": 6, "
                 "\"configs\": \"%s\", \"widths\": [", kConfigs.c_str());
    for (std::size_t i = 0; i < kTimedWidths.size(); ++i)
        std::fprintf(out, "%s%u", i ? ", " : "", kTimedWidths[i]);
    std::fprintf(out, "]},\n");
    std::fprintf(out, "  \"jobs\": %u,\n", jobs);
    std::fprintf(out, "  \"cells\": %zu,\n", cells.size());
    std::fprintf(out, "  \"instructions\": %" PRIu64 ",\n", total_instrs);
    std::fprintf(out, "  \"elapsedSeconds\": %.6f,\n", baseline.elapsed);
    std::fprintf(out, "  \"cellSeconds\": %.6f,\n",
                 baseline.cellSeconds);
    std::fprintf(out, "  \"cellsPerSec\": %.3f,\n", cells_per_sec);
    std::fprintf(out, "  \"instrsPerSec\": %.0f,\n", instrs_per_sec);
    std::fprintf(out, "  \"verify\": {\"checked\": %u, "
                 "\"mismatches\": %u},\n", checked, mismatches);
    std::fprintf(out, "  \"mapped\": {\"cellSeconds\": %.6f, "
                 "\"elapsedSeconds\": %.6f, "
                 "\"instrsPerSec\": %.0f, "
                 "\"speedupOverBaseline\": %.3f, "
                 "\"digestMismatches\": %u},\n",
                 mapped.cellSeconds, mapped.elapsed,
                 mapped_instrs_per_sec, mapped_over_baseline,
                 mapped_mismatches);
    std::fprintf(out, "  \"modules\": {\"configs\": \"%s\", "
                 "\"cells\": %zu, \"cellSeconds\": %.6f, "
                 "\"elapsedSeconds\": %.6f, \"instrsPerSec\": %.0f, "
                 "\"digestMismatches\": %u},\n",
                 module_configs.c_str(), module_cells.size(),
                 modules.cellSeconds, modules.elapsed,
                 module_instrs_per_sec, module_mismatches);
    writeCells("perCell", reports, false);
    writeCells("perCellModules", module_reports, true);
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path);

    return mismatches == 0 && repeat_mismatches == 0 &&
                   mapped_mismatches == 0 && module_mismatches == 0
               ? 0
               : 1;
}
