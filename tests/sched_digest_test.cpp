/**
 * @file
 * Tier-1 pin of the committed simulation results: recomputes every
 * test-scale cell of bench_sched's matrix (A-E and the module configs
 * F/G, each at widths 4, 8, 16 and 2k over the six workloads) through
 * the driver's default path and compares its digestSchedStats() value
 * with the `perCell` / `perCellModules` rows of the committed
 * BENCH_sched.json.  A change to any simulated statistic of any of
 * those 168 cells fails here, not only in the bench smoke job.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/sched_stats.hh"
#include "sim/experiment.hh"

#ifndef DDSC_BENCH_SCHED_JSON
#error "DDSC_BENCH_SCHED_JSON must name the committed BENCH_sched.json"
#endif

namespace ddsc
{
namespace
{

/** The "cell" -> "digest" rows of one array of BENCH_sched.json
 *  (bench_sched writes one row per line). */
std::map<std::string, std::string>
committedDigests(const std::string &array)
{
    std::ifstream in(DDSC_BENCH_SCHED_JSON);
    EXPECT_TRUE(in.good()) << "cannot read " << DDSC_BENCH_SCHED_JSON;
    std::map<std::string, std::string> rows;
    bool inside = false;
    std::string line;
    const auto field = [&](const std::string &name) {
        const std::string key = "\"" + name + "\": \"";
        const std::size_t at = line.find(key);
        if (at == std::string::npos)
            return std::string();
        const std::size_t from = at + key.size();
        return line.substr(from, line.find('"', from) - from);
    };
    while (std::getline(in, line)) {
        if (line.find("\"" + array + "\": [") != std::string::npos) {
            inside = true;
            continue;
        }
        if (!inside)
            continue;
        if (line.find(']') != std::string::npos &&
            line.find('{') == std::string::npos)
            break;
        rows[field("cell")] = field("digest");
    }
    return rows;
}

void
expectCommitted(const std::string &configs, const std::string &array,
                std::size_t want_cells)
{
    const std::map<std::string, std::string> committed =
        committedDigests(array);
    ASSERT_EQ(committed.size(), want_cells) << array;

    ExperimentDriver driver(0, /*test_scale=*/true);
    const std::vector<ExperimentCell> cells = ExperimentDriver::cellsFor(
        ExperimentDriver::everything(), configs, {4, 8, 16, 2048});
    ASSERT_EQ(cells.size(), want_cells);
    driver.prefetch(cells);
    for (const ExperimentCell &cell : cells) {
        const std::string key = cell.spec->name + "/" + cell.config +
            "/" + MachineConfig::widthLabel(cell.width);
        char digest[17];
        std::snprintf(digest, sizeof digest, "%016" PRIx64,
                      digestSchedStats(driver.stats(
                          *cell.spec, cell.config, cell.width)));
        const auto it = committed.find(key);
        ASSERT_NE(it, committed.end()) << key << " not in " << array;
        EXPECT_EQ(digest, it->second) << key;
    }
}

TEST(SchedDigests, PaperCellsMatchBenchSched)
{
    expectCommitted("ABCDE", "perCell", 120);
}

TEST(SchedDigests, ModuleCellsMatchBenchSched)
{
    expectCommitted("FG", "perCellModules", 48);
}

} // anonymous namespace
} // namespace ddsc
