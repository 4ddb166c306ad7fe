/**
 * @file
 * Extension bench: node elimination (paper Figure 1.f).
 *
 * The paper observes that a collapsed-away producer whose result is
 * not needed elsewhere "need not be executed".  This bench quantifies
 * that: configuration D with and without node elimination, per issue
 * width over all benchmarks -- harmonic-mean IPC plus the fraction of
 * dynamic instructions eliminated.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace ddsc;
    ExperimentDriver driver;
    bench::banner("Extension: node elimination on top of "
                  "configuration D", driver);

    TextTable table;
    table.header({"width", "IPC D", "IPC D+elim", "speedup",
                  "eliminated (%)"});

    for (const unsigned w : MachineConfig::paperWidths()) {
        MachineConfig elim_config = MachineConfig::paper('D', w);
        elim_config.nodeElimination = true;

        std::vector<double> base_ipcs, elim_ipcs;
        std::uint64_t eliminated = 0, total = 0;
        for (const WorkloadSpec &spec : allWorkloads()) {
            base_ipcs.push_back(driver.stats(spec, 'D', w).ipc());
            const SchedStats &elim = driver.statsFor(spec, elim_config);
            elim_ipcs.push_back(elim.ipc());
            eliminated += elim.eliminatedInstructions;
            total += elim.instructions;
        }
        const double base = harmonicMean(base_ipcs);
        const double with_elim = harmonicMean(elim_ipcs);
        table.row({
            MachineConfig::widthLabel(w),
            TextTable::num(base),
            TextTable::num(with_elim),
            TextTable::num(with_elim / base, 3),
            TextTable::num(percent(static_cast<double>(eliminated),
                                   static_cast<double>(total)), 2),
        });
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
