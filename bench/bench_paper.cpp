/**
 * @file
 * bench_paper: regenerates the paper's Tables 1-6 and Figures 2-10,
 * plus seven extension tables, in one process over one
 * ExperimentDriver.
 *
 * Usage: bench_paper [NAME...]
 *
 * Each NAME selects one table (fig2_ipc, table3_loadspec_pc,
 * node_elimination, ...); with no NAME every table prints, in
 * EXPERIMENTS.md's order.  Tables are separated by one empty line.
 * An unknown NAME prints the names and exits 2.
 *
 * Each table is a spec: a name, a title, the cells it reads and a
 * printer.  One prefetch() simulates every selected table's cells, so
 * a cell several tables read is simulated once and cells sharing a
 * front-end pass share it; the printers then only read the cache, and
 * the program fails if printing simulated anything.  Each table
 * prints in the paper's shape (rows = the paper's rows, columns = the
 * paper's columns) so EXPERIMENTS.md can record paper-vs-measured
 * side by side; bench/golden/bench_paper.txt pins the full-scale
 * output.
 *
 * Set DDSC_TRACE_LIMIT=<n> to truncate traces for quick runs.  Cells
 * are simulated on DDSC_JOBS worker threads (default hardware
 * concurrency) with results bit-identical to a serial run (see
 * tests/parallel_equiv_test.cpp).  The thread count goes to stderr,
 * so stdout does not depend on the machine.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bpred/bpred.hh"
#include "sim/experiment.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "trace/trace_stats.hh"

namespace
{

using namespace ddsc;

using WorkloadSet = std::vector<const WorkloadSpec *>;
using Tweak = void (*)(MachineConfig &);
using Columns = std::vector<std::string>;
using StatsSet = std::vector<const SchedStats *>;

/** One table: what `bench_paper NAME` selects and prints. */
struct Table
{
    const char *name;       ///< the old binary's name without "bench_"
    const char *title;      ///< the banner line
    /** Every cell print() reads; one prefetch() simulates them all. */
    std::vector<MachineCell> cells;
    std::function<void(ExperimentDriver &)> print;
};

const std::vector<char> kConfigs = {'A', 'B', 'C', 'D', 'E'};

WorkloadSet
all()
{
    return ExperimentDriver::everything();
}

/** Every machine of @p machines over every workload of @p set. */
std::vector<MachineCell>
cellsOf(const WorkloadSet &set, const std::vector<MachineConfig> &machines)
{
    std::vector<MachineCell> cells;
    for (const WorkloadSpec *spec : set)
        for (const MachineConfig &machine : machines)
            cells.push_back({spec, machine});
    return cells;
}

/** The paper machines of @p configs at every paper width. */
std::vector<MachineConfig>
paperMachines(const std::string &configs)
{
    std::vector<MachineConfig> machines;
    for (const char config : configs)
        for (const unsigned w : MachineConfig::paperWidths())
            machines.push_back(MachineConfig::paper(config, w));
    return machines;
}

/** The cells of @p configs at every paper width over @p set. */
std::vector<MachineCell>
paperCells(const WorkloadSet &set, const char *configs)
{
    return cellsOf(set, paperMachines(configs));
}

/** Configuration D at width @p w with @p tweak applied. */
MachineConfig
variantOfD(unsigned w, const std::function<void(MachineConfig &)> &tweak)
{
    MachineConfig config = MachineConfig::paper('D', w);
    tweak(config);
    return config;
}

/** Harmonic-mean IPC of @p config over all six workloads. */
double
hmeanIpcFor(ExperimentDriver &driver, const MachineConfig &config)
{
    std::vector<double> ipcs;
    for (const WorkloadSpec &spec : allWorkloads())
        ipcs.push_back(driver.statsFor(spec, config).ipc());
    return harmonicMean(ipcs);
}

/** "w=4" ... "w=2k" after @p first: the header of a table by width. */
Columns
widthHeader(const char *first)
{
    Columns header = {first};
    for (const unsigned w : MachineConfig::paperWidths())
        header.push_back("w=" + MachineConfig::widthLabel(w));
    return header;
}

/** Figures 2-7: one harmonic-mean @p metric of configurations A..E
 *  (hmeanIpc or hmeanSpeedup) per paper width, under the paper's
 *  Section 4 legend. */
void
printConfigMatrix(ExperimentDriver &driver, const WorkloadSet &set,
                  double (ExperimentDriver::*metric)(
                      const WorkloadSet &, char, unsigned))
{
    std::printf("  A: base\n"
                "  B: base + real load-speculation\n"
                "  C: base + d-collapsing\n"
                "  D: base + d-collapsing + real load-spec\n"
                "  E: base + d-collapsing + ideal load-spec\n\n");
    TextTable table;
    table.header(widthHeader("config"));
    for (const char config : kConfigs) {
        Columns row = {std::string(1, config)};
        for (const unsigned w : MachineConfig::paperWidths())
            row.push_back(TextTable::num((driver.*metric)(set, config, w)));
        table.row(std::move(row));
    }
    std::printf("%s", table.render().c_str());
}

/** Tables 3/4: load-speculation behaviour under configuration D. */
void
printLoadSpecTable(ExperimentDriver &driver, const WorkloadSet &set)
{
    TextTable table;
    table.header({"Issue Width", "Ready (%)", "Predicted Correctly (%)",
                  "Predicted Incorrectly (%)", "Not Predicted (%)"});
    for (const unsigned w : MachineConfig::paperWidths()) {
        table.row({
            MachineConfig::widthLabel(w),
            TextTable::num(driver.meanLoadClassPct(
                set, 'D', w, LoadClass::Ready)),
            TextTable::num(driver.meanLoadClassPct(
                set, 'D', w, LoadClass::PredictedCorrect)),
            TextTable::num(driver.meanLoadClassPct(
                set, 'D', w, LoadClass::PredictedIncorrect)),
            TextTable::num(driver.meanLoadClassPct(
                set, 'D', w, LoadClass::NotPredicted)),
        });
    }
    std::printf("%s", table.render().c_str());
}

/** Tables 5/6: top collapsed signatures by width for configuration D. */
void
printSignatureTable(ExperimentDriver &driver, unsigned group_size,
                    std::size_t top_n)
{
    // Rank by the widest machine, then report that signature across
    // all widths, mirroring the tables' layout.
    const CollapseStats widest = driver.mergedCollapse(all(), 'D', 2048);
    const auto ranked = widest.topSignatures(group_size, top_n);

    TextTable table;
    Columns header = {"Operation Types"};
    for (const unsigned w : {2048u, 32u, 16u, 8u, 4u})
        header.push_back(MachineConfig::widthLabel(w));
    table.header(std::move(header));

    for (const auto &[signature, pct_widest] : ranked) {
        Columns row = {signature};
        for (const unsigned w : {2048u, 32u, 16u, 8u, 4u}) {
            const CollapseStats merged =
                driver.mergedCollapse(all(), 'D', w);
            const auto &sig_map = group_size == 2
                ? merged.pairSignatures() : merged.tripleSignatures();
            const auto total = group_size == 2
                ? merged.pairEvents() : merged.tripleEvents();
            const auto it = sig_map.find(signature);
            row.push_back(TextTable::num(
                it == sig_map.end()
                    ? 0.0
                    : percent(static_cast<double>(it->second),
                              static_cast<double>(total))));
        }
        table.row(std::move(row));
    }
    std::printf("%s", table.render().c_str());
}

/** The cells of the per-width extension tables: D and its @p tweak
 *  variant at every paper width, plus @p also's paper machines, over
 *  all workloads. */
std::vector<MachineCell>
variantCells(Tweak tweak, const char *also = "")
{
    std::vector<MachineConfig> machines =
        paperMachines(std::string("D") + also);
    for (const unsigned w : MachineConfig::paperWidths())
        machines.push_back(variantOfD(w, tweak));
    return cellsOf(all(), machines);
}

/** The per-width extension tables: per paper width, D's and its
 *  @p tweak variant's harmonic-mean IPC over all workloads and their
 *  ratio, then the columns @p extra derives from the variant's
 *  per-workload stats. */
void
printVariantOfD(ExperimentDriver &driver, Columns header, Tweak tweak,
                const std::function<Columns(unsigned, const StatsSet &)>
                    &extra)
{
    TextTable table;
    table.header(std::move(header));
    for (const unsigned w : MachineConfig::paperWidths()) {
        const MachineConfig variant = variantOfD(w, tweak);
        std::vector<double> d_ipcs, variant_ipcs;
        StatsSet stats;
        for (const WorkloadSpec &spec : allWorkloads()) {
            d_ipcs.push_back(driver.stats(spec, 'D', w).ipc());
            stats.push_back(&driver.statsFor(spec, variant));
            variant_ipcs.push_back(stats.back()->ipc());
        }
        const double d = harmonicMean(d_ipcs);
        const double v = harmonicMean(variant_ipcs);
        Columns row = {MachineConfig::widthLabel(w), TextTable::num(d),
                       TextTable::num(v), TextTable::num(v / d, 3)};
        for (std::string &cell : extra(w, stats))
            row.push_back(std::move(cell));
        table.row(std::move(row));
    }
    std::printf("%s", table.render().c_str());
}

/** @p part summed over @p stats as a percentage of @p whole's sum. */
std::string
pctOfSums(const StatsSet &stats, std::uint64_t SchedStats::*part,
          std::uint64_t SchedStats::*whole, int digits)
{
    std::uint64_t p = 0, w = 0;
    for (const SchedStats *s : stats) {
        p += s->*part;
        w += s->*whole;
    }
    return TextTable::num(percent(static_cast<double>(p),
                                  static_cast<double>(w)), digits);
}

void
printTable1(ExperimentDriver &)
{
    TextTable table;
    table.header({"Name", "Paper Name", "Pointer-Chasing",
                  "Trace Size (K)", "Checksum"});
    for (const WorkloadSpec &spec : allWorkloads()) {
        std::uint32_t checksum = 0;
        VectorTraceSource trace = traceWorkload(spec, 0, &checksum);
        table.row({
            spec.name,
            spec.paperName,
            spec.pointerChasing ? "yes" : "no",
            TextTable::num(static_cast<double>(trace.size()) / 1000.0, 0),
            std::to_string(checksum),
        });
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: 026.compress 88M, 008.espresso 250M, "
                "023.eqntott 250M, 022.li 207M, 099.go 122M, "
                "132.ijpeg 250M (truncated at 250M)\n");
}

void
printTable2(ExperimentDriver &driver)
{
    TextTable table;
    table.header({"Name", "Conditional Branches (%)",
                  "Predicted Correctly (%)"});
    for (const WorkloadSpec &spec : allWorkloads()) {
        const std::unique_ptr<TraceSource> trace =
            driver.trace(spec).cursor();
        TraceStats mix;
        auto predictor = makePaperPredictor();
        std::uint64_t branches = 0, correct = 0;
        TraceRecord rec;
        while (trace->next(rec)) {
            mix.account(rec);
            if (rec.isCondBranch()) {
                ++branches;
                if (predictor->predictAndUpdate(rec.pc, rec.taken))
                    ++correct;
            }
        }
        table.row({
            spec.name,
            TextTable::num(mix.pctCondBranches(), 1),
            TextTable::num(percent(static_cast<double>(correct),
                                   static_cast<double>(branches)), 1),
        });
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: compress 13.2%%/89.7%%, espresso 18.5%%/94.1%%, "
                "eqntott 27.5%%/96.0%%, li 15.8%%/96.8%%, "
                "go 13.5%%/83.7%%, ijpeg 8.97%%/92.8%%\n");
}

void
printFig8(ExperimentDriver &driver)
{
    TextTable table;
    table.header(widthHeader("benchmark"));

    for (const WorkloadSpec &spec : allWorkloads()) {
        Columns row = {spec.name};
        for (const unsigned w : MachineConfig::paperWidths()) {
            row.push_back(TextTable::num(
                driver.stats(spec, 'D', w).pctCollapsed(), 1));
        }
        table.row(std::move(row));
    }
    Columns all_row = {"ALL"};
    for (const unsigned w : MachineConfig::paperWidths())
        all_row.push_back(
            TextTable::num(driver.pctCollapsed(all(), 'D', w), 1));
    table.row(std::move(all_row));
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: 29%% at the narrow widths rising to 47%% at "
                "2k\n");
}

void
printFig9(ExperimentDriver &driver)
{
    TextTable table;
    table.header(widthHeader("category"));

    for (unsigned c = 0; c < kNumCollapseCategories; ++c) {
        const auto category = static_cast<CollapseCategory>(c);
        Columns row{std::string(collapseCategoryName(category))};
        for (const unsigned w : MachineConfig::paperWidths()) {
            const CollapseStats merged =
                driver.mergedCollapse(all(), 'D', w);
            row.push_back(TextTable::num(merged.pctOf(category), 1));
        }
        table.row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: 3-1 65-82%% (w<=32), 4-1 13-30%%, 0-op "
                "5-10%%\n");
}

void
printFig10(ExperimentDriver &driver)
{
    const std::uint64_t edges[] = {1, 2, 4, 8, 16};
    TextTable table;
    table.header({"width", "d=1 (%)", "d=2-3 (%)", "d=4-7 (%)",
                  "d=8-15 (%)", "d>=16 (%)", "cum<8 (%)"});
    for (const unsigned w : MachineConfig::paperWidths()) {
        const CollapseStats merged = driver.mergedCollapse(all(), 'D', w);
        const auto fractions = merged.distances().bucketFractions(edges);
        table.row({
            MachineConfig::widthLabel(w),
            TextTable::num(100.0 * fractions[0], 1),
            TextTable::num(100.0 * fractions[1], 1),
            TextTable::num(100.0 * fractions[2], 1),
            TextTable::num(100.0 * fractions[3], 1),
            TextTable::num(100.0 * fractions[4], 1),
            TextTable::num(100.0 * merged.distances().cumulativeAt(7), 1),
        });
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: majority non-consecutive for widths > 8, but "
                "distance < 8 almost always, even at 2k\n");
}

constexpr unsigned kAblationWidth = 16;

/** The ablated variants of D at kAblationWidth, by row label. */
const std::pair<const char *, Tweak> kAblations[] = {
    {"no zero-operand detection",
     [](MachineConfig &c) { c.rules.zeroOpDetection = false; }},
    {"pairs only (no triples)",
     [](MachineConfig &c) { c.rules.maxInstructions = 2; }},
    {"3-1 device only", [](MachineConfig &c) { c.rules.maxOperands = 3; }},
    {"confidence threshold 0",
     [](MachineConfig &c) { c.addrConfidenceThreshold = 0; }},
    {"confidence threshold 2",
     [](MachineConfig &c) { c.addrConfidenceThreshold = 2; }},
    {"window = 1x width",
     [](MachineConfig &c) { c.windowSize = kAblationWidth; }},
    {"window = 4x width",
     [](MachineConfig &c) { c.windowSize = 4 * kAblationWidth; }},
    {"2 kB branch predictor",
     [](MachineConfig &c) { c.bpredIndexBits = 11; }},
    {"64 kB branch predictor",
     [](MachineConfig &c) { c.bpredIndexBits = 16; }},
};

std::vector<MachineCell>
ablationCells()
{
    std::vector<MachineConfig> machines = {
        MachineConfig::paper('D', kAblationWidth)};
    for (const auto &[label, tweak] : kAblations)
        machines.push_back(variantOfD(kAblationWidth, tweak));
    return cellsOf(all(), machines);
}

void
printAblation(ExperimentDriver &driver)
{
    TextTable table;
    table.header({"variant", "IPC", "vs paper-D"});
    const double d_ipc =
        hmeanIpcFor(driver, MachineConfig::paper('D', kAblationWidth));
    table.row({"paper D (reference)", TextTable::num(d_ipc), "1.000"});
    for (const auto &[label, tweak] : kAblations) {
        const double ipc =
            hmeanIpcFor(driver, variantOfD(kAblationWidth, tweak));
        table.row({label, TextTable::num(ipc),
                   TextTable::num(ipc / d_ipc, 3)});
    }
    std::printf("%s", table.render().c_str());
}

constexpr unsigned kAddrPredWidth = 16;

std::vector<MachineConfig>
addrPredMachines()
{
    std::vector<MachineConfig> machines;
    for (const AddrPredKind kind : {AddrPredKind::LastValue,
                                    AddrPredKind::TwoDelta,
                                    AddrPredKind::Context}) {
        machines.push_back(variantOfD(
            kAddrPredWidth,
            [kind](MachineConfig &c) { c.addrPredKind = kind; }));
    }
    return machines;
}

std::vector<MachineCell>
addrPredCells()
{
    std::vector<MachineConfig> machines = addrPredMachines();
    machines.push_back(MachineConfig::paper('E', kAddrPredWidth));
    return cellsOf(all(), machines);
}

void
printAddrPredFuture(ExperimentDriver &driver)
{
    TextTable table;
    table.header({"benchmark",
                  "last-val corr%", "IPC",
                  "two-delta corr%", "IPC",
                  "context corr%", "IPC",
                  "ideal IPC"});

    for (const WorkloadSpec &spec : allWorkloads()) {
        Columns row = {spec.name};
        for (const MachineConfig &config : addrPredMachines()) {
            const SchedStats &stats = driver.statsFor(spec, config);
            row.push_back(TextTable::num(
                stats.loadClassPct(LoadClass::PredictedCorrect), 1));
            row.push_back(TextTable::num(stats.ipc()));
        }
        row.push_back(TextTable::num(
            driver.stats(spec, 'E', kAddrPredWidth).ipc()));
        table.row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Expected: context >= two-delta >= last-value on "
                "regular codes; all far below ideal on pointer "
                "chasing.\n");
}

constexpr Tweak withNodeElimination = [](MachineConfig &c) {
    c.nodeElimination = true;
};
constexpr Tweak withValuePrediction = [](MachineConfig &c) {
    c.loadValuePrediction = true;
};
constexpr Tweak withRealCti = [](MachineConfig &c) {
    c.realCtiPrediction = true;
};

/** The four collapsing regimes of D: full (the paper's model),
 *  within-bb, consecutive, and both (the [10, 18] model). */
const Tweak kRegimes[] = {
    [](MachineConfig &) {},
    [](MachineConfig &c) { c.rules.sameBasicBlockOnly = true; },
    [](MachineConfig &c) { c.rules.maxCollapseDistance = 1; },
    [](MachineConfig &c) {
        c.rules.sameBasicBlockOnly = true;
        c.rules.maxCollapseDistance = 1;
    },
};

std::vector<MachineCell>
priorWorkCells()
{
    std::vector<MachineConfig> machines;
    for (const unsigned w : MachineConfig::paperWidths())
        for (const Tweak tweak : kRegimes)
            machines.push_back(variantOfD(w, tweak));
    return cellsOf(all(), machines);
}

void
printPriorWork(ExperimentDriver &driver)
{
    TextTable table;
    table.header({"width", "full (paper)", "within-bb", "consecutive",
                  "consecutive+bb", "paper gain"});

    for (const unsigned w : MachineConfig::paperWidths()) {
        Columns row = {MachineConfig::widthLabel(w)};
        std::vector<double> ipcs;
        for (const Tweak tweak : kRegimes) {
            ipcs.push_back(hmeanIpcFor(driver, variantOfD(w, tweak)));
            row.push_back(TextTable::num(ipcs.back()));
        }
        row.push_back(TextTable::num(ipcs.front() / ipcs.back(), 3));
        table.row(std::move(row));
    }
    std::printf("%s", table.render().c_str());
    std::printf("\n'paper gain' is the paper's model over the [10,18] "
                "restrictions; the paper\npredicts the advantage grows "
                "with width (figure 10: most collapsed pairs are\n"
                "non-consecutive beyond width 8).\n");
}

void
printBpredCompare(ExperimentDriver &driver)
{
    TextTable table;
    table.header({"benchmark", "bimodal15", "gshare15", "local",
                  "bimodal13/gshare14"});

    for (const WorkloadSpec &spec : allWorkloads()) {
        // Fresh predictors per benchmark, sized near 8 kBytes:
        // 2^15 2-bit counters = 8 kB for the single-table designs;
        // local uses 2^12 10-bit histories (5 kB) + 2^10 counters.
        std::vector<std::unique_ptr<BranchPredictor>> preds;
        preds.push_back(std::make_unique<BimodalPredictor>(15));
        preds.push_back(std::make_unique<GsharePredictor>(15));
        preds.push_back(std::make_unique<LocalPredictor>(10, 12));
        preds.push_back(std::make_unique<CombiningPredictor>(13));

        std::vector<std::uint64_t> hits(preds.size(), 0);
        std::uint64_t branches = 0;

        const std::unique_ptr<TraceSource> trace =
            driver.trace(spec).cursor();
        TraceRecord rec;
        while (trace->next(rec)) {
            if (!rec.isCondBranch())
                continue;
            ++branches;
            for (std::size_t p = 0; p < preds.size(); ++p) {
                if (preds[p]->predictAndUpdate(rec.pc, rec.taken))
                    ++hits[p];
            }
        }

        Columns row = {spec.name};
        for (const std::uint64_t h : hits) {
            row.push_back(TextTable::num(
                percent(static_cast<double>(h),
                        static_cast<double>(branches)), 2));
        }
        table.row(std::move(row));
    }
    std::printf("%s", table.render().c_str());
}

/** Every table, in EXPERIMENTS.md's order. */
const std::vector<Table> &
tables()
{
    static const std::vector<Table> list = {
        // Table 1 reproduction: benchmark characteristics.
        //
        // Paper: benchmark name, input file, flags, trace size
        // (millions).  Here: the analogue's name, what it models,
        // whether it is in the pointer-chasing subset, and the dynamic
        // trace length at default scale.  Paper trace sizes were
        // 88-250M; ours are scaled down to keep a full matrix runnable
        // in minutes but preserve the behaviours the mechanisms key on.
        {"table1_benchmarks", "Table 1: Benchmark Characteristics",
         {}, printTable1},
        // Table 2 reproduction: benchmark branch characteristics.
        //
        // Paper: per benchmark, the percentage of conditional branches
        // in the trace and the fraction predicted correctly by the
        // 8 kByte bimodal13/gshare14 combining predictor.
        {"table2_branches", "Table 2: Benchmark Branch Characteristics",
         {}, printTable2},
        // Figure 2 reproduction: harmonic-mean IPC of configurations
        // A..E at issue widths 4, 8, 16, 32, and 2k over all six
        // benchmarks.
        //
        // Expected shape (paper): E > D > C > B > A at every width; B
        // adds little over A at small widths; the E-D gap grows with
        // width (ideal vs realistic address prediction).
        {"fig2_ipc",
         "Figure 2: IPC for the Different Configurations and Issue "
         "Widths (all benchmarks, harmonic mean)",
         paperCells(all(), "ABCDE"),
         [](ExperimentDriver &d) {
             printConfigMatrix(d, all(), &ExperimentDriver::hmeanIpc);
         }},
        // Figure 3 reproduction: harmonic-mean speedup over the base
        // superscalar machine (A) for configurations B..E at widths
        // 4..2k.
        //
        // Paper anchors: D reaches 1.20 / 1.35 / 1.51 / 1.66 at widths
        // 4/8/16/32 and ~1.9 at 2k; E spans 1.25 (w=4) to 2.95
        // (w=2k); the speedup of D roughly equals the sum of the
        // separate gains of B and C; collapsing (C) contributes the
        // majority.
        {"fig3_speedup",
         "Figure 3: SpeedUp over the Superscalar Base Machine (all "
         "benchmarks, harmonic mean)",
         paperCells(all(), "ABCDE"),
         [](ExperimentDriver &d) {
             printConfigMatrix(d, all(), &ExperimentDriver::hmeanSpeedup);
             std::printf("\npaper anchors (D): 1.20 @w4, 1.35 @w8, "
                         "1.51 @w16, 1.66 @w32; (E): 1.25 @w4 .. 2.95 "
                         "@w2k\n");
         }},
        // Figure 4 reproduction: harmonic-mean IPC for the
        // pointer-chasing benchmarks (go, li), configurations A..E,
        // widths 4..2k.
        //
        // Expected shape: realistic load-speculation is nearly useless
        // here (stride prediction fails on pointer chains) while ideal
        // speculation still gains substantially.
        {"fig4_ipc_pc",
         "Figure 4: IPC for the \"Pointer Chasing\" Benchmarks (go, li)",
         paperCells(workloadSubset(true), "ABCDE"),
         [](ExperimentDriver &d) {
             printConfigMatrix(d, workloadSubset(true),
                               &ExperimentDriver::hmeanIpc);
         }},
        // Figure 5 reproduction: speedup over base for the
        // pointer-chasing benchmarks (go, li).
        //
        // Paper anchors: realistic load-speculation alone (B) gains
        // only 5-9% at widths 4-32; collapsing gains are smaller than
        // on the full set; the drop from ideal (E) to realistic (D) is
        // pronounced.
        {"fig5_speedup_pc",
         "Figure 5: SpeedUp over Base for the \"Pointer Chasing\" "
         "Benchmarks (go, li)",
         paperCells(workloadSubset(true), "ABCDE"),
         [](ExperimentDriver &d) {
             printConfigMatrix(d, workloadSubset(true),
                               &ExperimentDriver::hmeanSpeedup);
             std::printf("\npaper anchors: B gains only 1.05-1.09 at "
                         "widths 4-32 on this subset\n");
         }},
        // Figure 6 reproduction: harmonic-mean IPC for the
        // non-pointer-chasing benchmarks (compress, espresso, eqntott,
        // ijpeg).
        {"fig6_ipc_npc",
         "Figure 6: IPC for the non \"Pointer Chasing\" Benchmarks "
         "(compress, espresso, eqntott, ijpeg)",
         paperCells(workloadSubset(false), "ABCDE"),
         [](ExperimentDriver &d) {
             printConfigMatrix(d, workloadSubset(false),
                               &ExperimentDriver::hmeanIpc);
         }},
        // Figure 7 reproduction: speedup over base for the
        // non-pointer-chasing benchmarks.
        //
        // Paper anchors: D reaches 1.23-1.8 at widths 4-32 on this
        // subset; speedups from realistic load-speculation are higher
        // than on the full mix; the E-D gap is smaller than for the
        // pointer-chasing programs; collapsing still contributes the
        // majority.
        {"fig7_speedup_npc",
         "Figure 7: SpeedUp over Base for the non \"Pointer Chasing\" "
         "Benchmarks",
         paperCells(workloadSubset(false), "ABCDE"),
         [](ExperimentDriver &d) {
             printConfigMatrix(d, workloadSubset(false),
                               &ExperimentDriver::hmeanSpeedup);
             std::printf("\npaper anchors (D): 1.23-1.8 at widths "
                         "4-32\n");
         }},
        // Table 3 reproduction: load-speculation behaviour for the
        // pointer-chasing benchmarks under configuration D (mean
        // percentage of dynamic loads per class, by issue width).
        //
        // Paper: ready 30-40%, predicted-correctly 12-27% (falling
        // with width), predicted-incorrectly ~5%, not-predicted
        // 38-44%.
        {"table3_loadspec_pc",
         "Table 3: Load-Speculation Behavior for Pointer Chasing "
         "Benchmarks with Configuration D",
         paperCells(workloadSubset(true), "D"),
         [](ExperimentDriver &d) {
             printLoadSpecTable(d, workloadSubset(true));
             std::printf("\npaper (w4 row): ready 30.2, correct 26.7, "
                         "incorrect 4.8, not-predicted 38.3\n");
         }},
        // Table 4 reproduction: load-speculation behaviour for the
        // non-pointer-chasing benchmarks under configuration D.
        //
        // Paper: many more loads predicted correctly (28-57%) and far
        // fewer not predicted (~20%) than for the pointer-chasing
        // subset; the ready fraction grows with window size as address
        // generation collapses.
        {"table4_loadspec_npc",
         "Table 4: Load-Speculation Behavior for non-Chasing Pointer "
         "Benchmarks with Configuration D",
         paperCells(workloadSubset(false), "D"),
         [](ExperimentDriver &d) {
             printLoadSpecTable(d, workloadSubset(false));
             std::printf("\npaper (w4 row): ready 20.7, correct 57.0, "
                         "incorrect 2.2, not-predicted 20.2\n");
         }},
        // Figure 8 reproduction: percentage of dynamic instructions
        // collapsed under configuration D, by issue width, per
        // benchmark and aggregate.
        //
        // Paper: 29-47% of instructions collapse, growing with issue
        // width.
        {"fig8_collapsed",
         "Figure 8: Instructions D-Collapsed (configuration D)",
         paperCells(all(), "D"), printFig8},
        // Figure 9 reproduction: contribution of the three collapsing
        // mechanisms (3-1, 4-1, zero-operand detection) under
        // configuration D.
        //
        // Paper: 3-1 dominates with 65-82% at widths <= 32; 4-1
        // contributes 13-30%; 0-op detection 5-10%.
        {"fig9_categories",
         "Figure 9: Contribution of the three Collapsing Mechanisms for "
         "the D Configuration",
         paperCells(all(), "D"), printFig9},
        // Figure 10 reproduction: distance between collapsed
        // instructions under configuration D, bucketed as in the
        // paper's discussion (consecutive, short-range, and >= 8).
        //
        // Paper: at widths > 8 the majority of collapsed pairs are not
        // consecutive, yet the distance is almost always below 8 even
        // at 2k.
        {"fig10_distance",
         "Figure 10: Distance between D-Collapsed Instructions for the D "
         "Configuration",
         paperCells(all(), "D"), printFig10},
        // Table 5 reproduction: the most frequently collapsed pair
        // (3-1 style) dependence sequences under configuration D, as a
        // percentage of all collapsed pairs, by issue width.
        //
        // Paper's top rows: arrr-brc and arri-brc (~12-17%),
        // arri-arri, arr0-brc, shri-ldrr, mvi-lgri, mvi-ldri,
        // arrr-arrr, ...
        {"table5_sigs31",
         "Table 5: Collapsed 3-1 (pair) Dependences, % of all collapsed "
         "pairs (configuration D)",
         paperCells(all(), "D"),
         [](ExperimentDriver &d) {
             printSignatureTable(d, 2, 12);
             std::printf("\npaper top rows: arrr-brc 12.7, arri-brc "
                         "12.4, arri-arri 8.0, arr0-brc 7.1, shri-ldrr "
                         "5.1, mvi-lgri 5.0 (at 2k)\n");
         }},
        // Table 6 reproduction: the most frequently collapsed triple
        // (4-1 style) dependence sequences under configuration D, as a
        // percentage of all collapsed triples, by issue width.
        //
        // Paper's top rows: arri-arri-arri (18% at 2k, vanishing at
        // w=4), lgr0-lgr0-arrr, arri-arri-ldrr, arrr-arrr-arrr,
        // arrr-shri-arrr, ...
        {"table6_sigs41",
         "Table 6: Collapsed 4-1 (triple) Dependences, % of all "
         "collapsed triples (configuration D)",
         paperCells(all(), "D"),
         [](ExperimentDriver &d) {
             printSignatureTable(d, 3, 13);
             std::printf("\npaper top rows (at 2k): arri-arri-arri "
                         "18.0, lgr0-lgr0-arrr 6.6, arri-arri-ldrr 6.2, "
                         "arrr-arrr-arrr 6.0\n");
         }},
        // Ablation: quantifies the design choices DESIGN.md calls out,
        // all at issue width 16 on the full benchmark set
        // (harmonic-mean IPC):
        //
        //  - zero-operand detection on/off (how much 0-op buys);
        //  - triples on/off (pairs-only collapsing, the prior-work
        //    model);
        //  - a 3-1-only device (maxOperands = 3);
        //  - address-prediction confidence threshold 0/1/3 ("always
        //    use a prediction" vs the paper's ">1" vs "fully saturated
        //    only");
        //  - window/width ratio 1x/2x/4x (the paper fixes 2x);
        //  - branch predictor size 2 kB vs 8 kB vs perfect-sized 64 kB.
        {"ablation",
         "Ablations (configuration D, width 16, harmonic-mean IPC over "
         "all benchmarks)",
         ablationCells(), printAblation},
        // Extension: node elimination (paper Figure 1.f).
        //
        // The paper observes that a collapsed-away producer whose
        // result is not needed elsewhere "need not be executed".  This
        // table quantifies that: configuration D with and without node
        // elimination, per issue width over all benchmarks --
        // harmonic-mean IPC plus the fraction of dynamic instructions
        // eliminated.
        {"node_elimination",
         "Extension: node elimination on top of configuration D",
         variantCells(withNodeElimination),
         [](ExperimentDriver &d) {
             printVariantOfD(
                 d, {"width", "IPC D", "IPC D+elim", "speedup",
                     "eliminated (%)"},
                 withNodeElimination,
                 [](unsigned, const StatsSet &s) -> Columns {
                     return {pctOfSums(s,
                                       &SchedStats::eliminatedInstructions,
                                       &SchedStats::instructions, 2)};
                 });
         }},
        // Future work: alternative load-address predictors.
        //
        // The paper's conclusion calls for load-speculation mechanisms
        // that work on both pointer-chasing and non-pointer-chasing
        // codes.  This table swaps the two-delta stride table for a
        // last-value predictor and an order-2 context (FCM) predictor
        // and reports, per benchmark at width 16 under configuration
        // D, the predicted-correctly load share and the IPC.  Ideal
        // speculation (E) bounds the attainable gain.
        {"addrpred_future",
         "Future work: load-address predictor alternatives "
         "(configuration D, width 16)",
         addrPredCells(), printAddrPredFuture},
        // Extension: load-value prediction (paper Figure 1.d).
        //
        // The paper evaluates address prediction only; its
        // introduction notes that d-speculation "can also be used to
        // predict data values such as those loaded from memory".  This
        // table adds a last-value load-value predictor on top of
        // configuration D and reports, per issue width, the
        // harmonic-mean IPC with and without value prediction plus the
        // hit/wrong rates -- and contrasts against ideal address
        // speculation (E), which value prediction can beat when values
        // are invariant.
        {"value_prediction",
         "Extension: load-value prediction on top of configuration D",
         variantCells(withValuePrediction, "E"),
         [](ExperimentDriver &d) {
             printVariantOfD(
                 d, {"width", "IPC D", "IPC D+VP", "speedup", "IPC E",
                     "VP hit %", "VP wrong %"},
                 withValuePrediction,
                 [&d](unsigned w, const StatsSet &s) -> Columns {
                     return {TextTable::num(d.hmeanIpc(all(), 'E', w)),
                             pctOfSums(s, &SchedStats::valuePredHits,
                                       &SchedStats::loads, 1),
                             pctOfSums(s, &SchedStats::valuePredWrong,
                                       &SchedStats::loads, 1)};
                 });
         }},
        // Ablation: what is the paper's "all other branches and jumps
        // are assumed to be always predicted correctly" idealization
        // worth?
        //
        // Runs configuration D with realistic return/indirect
        // prediction (a 16-entry return-address stack and a 512-entry
        // last-target buffer) and reports the harmonic-mean IPC
        // against the idealized machine, plus the CTI misprediction
        // rates, per issue width.
        {"cti_ablation",
         "Ablation: realistic call/return/indirect prediction (vs the "
         "paper's perfect-CTI assumption)",
         variantCells(withRealCti),
         [](ExperimentDriver &d) {
             printVariantOfD(
                 d, {"width", "IPC D (perfect CTI)", "IPC D (real CTI)",
                     "ratio", "CTI mispredict %"},
                 withRealCti,
                 [](unsigned, const StatsSet &s) -> Columns {
                     return {pctOfSums(s, &SchedStats::ctiMispredicts,
                                       &SchedStats::ctiPredictions, 2)};
                 });
         }},
        // Prior-work comparison.
        //
        // The interlock-collapsing studies the paper builds on ([10,
        // 18]) restricted collapsing to *consecutive instructions
        // within a single basic block*.  This table quantifies what the
        // paper's relaxations buy, running configuration D at each
        // issue width under four collapsing regimes:
        //
        //   full          the paper's model (any distance, across
        //                 blocks)
        //   within-bb     cross-basic-block collapsing disabled
        //   consecutive   only adjacent dynamic instructions may
        //                 collapse
        //   prior work    both restrictions (the [10, 18] model)
        {"prior_work",
         "Prior-work comparison: collapsing restrictions (configuration "
         "D, harmonic-mean IPC)",
         priorWorkCells(), printPriorWork},
        // Predictor comparison: accuracy of the component predictors
        // (bimodal, gshare, local, combining) on every benchmark's
        // conditional branch stream, all at roughly the paper's
        // 8 kByte budget.  Explains why the paper picked the combining
        // scheme and quantifies what the harder go/eqntott streams
        // cost each design.
        {"bpred_compare",
         "Branch predictor comparison at ~8 kB (conditional branches "
         "only)",
         {}, printBpredCompare},
    };
    return list;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr, "usage: bench_paper [NAME...]\n"
                         "tables (default: all, in this order):\n");
    for (const Table &table : tables())
        std::fprintf(stderr, "  %-20s %s\n", table.name, table.title);
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<const Table *> selected;
    for (int i = 1; i < argc; ++i) {
        const Table *match = nullptr;
        for (const Table &table : tables())
            if (std::strcmp(argv[i], table.name) == 0)
                match = &table;
        if (!match)
            usage();
        selected.push_back(match);
    }
    if (selected.empty())
        for (const Table &table : tables())
            selected.push_back(&table);

    ExperimentDriver driver;
    if (driver.jobs() > 1)
        std::fprintf(stderr, "(cells simulated on %u worker threads)\n",
                     driver.jobs());
    std::vector<MachineCell> cells;
    for (const Table *table : selected)
        cells.insert(cells.end(), table->cells.begin(), table->cells.end());
    driver.prefetch(cells);

    const std::size_t simulated = driver.simulatedCells();
    for (std::size_t t = 0; t < selected.size(); ++t) {
        if (t > 0)
            std::printf("\n");
        std::printf("=== %s ===\n", selected[t]->title);
        if (driver.traceLimit() != 0) {
            std::printf("(traces truncated to %llu instructions via "
                        "DDSC_TRACE_LIMIT)\n",
                        static_cast<unsigned long long>(
                            driver.traceLimit()));
        }
        selected[t]->print(driver);
    }
    // A printer that read a cell its table does not list simulated it
    // here, one cell at a time: the list is what the one prefetch runs.
    if (driver.simulatedCells() != simulated) {
        std::fprintf(stderr,
                     "bench_paper: printing simulated %zu cells that no "
                     "table lists\n",
                     driver.simulatedCells() - simulated);
        return 1;
    }
    return 0;
}
