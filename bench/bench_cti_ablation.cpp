/**
 * @file
 * Ablation bench: what is the paper's "all other branches and jumps
 * are assumed to be always predicted correctly" idealization worth?
 *
 * Runs configuration D with realistic return/indirect prediction (a
 * 16-entry return-address stack and a 512-entry last-target buffer)
 * and reports the harmonic-mean IPC against the idealized machine,
 * plus the CTI misprediction rates, per issue width.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace ddsc;
    ExperimentDriver driver;
    bench::banner("Ablation: realistic call/return/indirect prediction "
                  "(vs the paper's perfect-CTI assumption)", driver);

    TextTable table;
    table.header({"width", "IPC D (perfect CTI)", "IPC D (real CTI)",
                  "ratio", "CTI mispredict %"});

    for (const unsigned w : MachineConfig::paperWidths()) {
        MachineConfig real = MachineConfig::paper('D', w);
        real.realCtiPrediction = true;

        std::vector<double> ideal_ipcs, real_ipcs;
        std::uint64_t predictions = 0, mispredicts = 0;
        for (const WorkloadSpec &spec : allWorkloads()) {
            ideal_ipcs.push_back(driver.stats(spec, 'D', w).ipc());
            const SchedStats &stats = driver.statsFor(spec, real);
            real_ipcs.push_back(stats.ipc());
            predictions += stats.ctiPredictions;
            mispredicts += stats.ctiMispredicts;
        }
        const double ideal = harmonicMean(ideal_ipcs);
        const double realistic = harmonicMean(real_ipcs);
        table.row({
            MachineConfig::widthLabel(w),
            TextTable::num(ideal),
            TextTable::num(realistic),
            TextTable::num(realistic / ideal, 3),
            TextTable::num(percent(static_cast<double>(mispredicts),
                                   static_cast<double>(predictions)),
                           2),
        });
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
