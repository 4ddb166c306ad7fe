/**
 * @file
 * Prior-work comparison bench.
 *
 * The interlock-collapsing studies the paper builds on ([10, 18])
 * restricted collapsing to *consecutive instructions within a single
 * basic block*.  This bench quantifies what the paper's relaxations
 * buy, running configuration D at each issue width under four
 * collapsing regimes:
 *
 *   full          the paper's model (any distance, across blocks)
 *   within-bb     cross-basic-block collapsing disabled
 *   consecutive   only adjacent dynamic instructions may collapse
 *   prior work    both restrictions (the [10, 18] model)
 */

#include <cstdio>

#include "bench_common.hh"

namespace
{

using namespace ddsc;

double
hmean(ExperimentDriver &driver, const MachineConfig &config)
{
    std::vector<double> ipcs;
    for (const WorkloadSpec &spec : allWorkloads())
        ipcs.push_back(driver.statsFor(spec, config).ipc());
    return harmonicMean(ipcs);
}

} // anonymous namespace

int
main()
{
    using namespace ddsc;
    ExperimentDriver driver;
    bench::banner("Prior-work comparison: collapsing restrictions "
                  "(configuration D, harmonic-mean IPC)", driver);

    TextTable table;
    table.header({"width", "full (paper)", "within-bb", "consecutive",
                  "consecutive+bb", "paper gain"});

    for (const unsigned w : MachineConfig::paperWidths()) {
        const MachineConfig full = MachineConfig::paper('D', w);

        MachineConfig bb_only = full;
        bb_only.rules.sameBasicBlockOnly = true;

        MachineConfig adjacent = full;
        adjacent.rules.maxCollapseDistance = 1;

        MachineConfig prior = full;
        prior.rules.sameBasicBlockOnly = true;
        prior.rules.maxCollapseDistance = 1;

        const double ipc_full = hmean(driver, full);
        const double ipc_bb = hmean(driver, bb_only);
        const double ipc_adj = hmean(driver, adjacent);
        const double ipc_prior = hmean(driver, prior);

        table.row({
            MachineConfig::widthLabel(w),
            TextTable::num(ipc_full),
            TextTable::num(ipc_bb),
            TextTable::num(ipc_adj),
            TextTable::num(ipc_prior),
            TextTable::num(ipc_full / ipc_prior, 3),
        });
    }
    std::printf("%s", table.render().c_str());
    std::printf("\n'paper gain' is the paper's model over the [10,18] "
                "restrictions; the paper\npredicts the advantage grows "
                "with width (figure 10: most collapsed pairs are\n"
                "non-consecutive beyond width 8).\n");
    return 0;
}
