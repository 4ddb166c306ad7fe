/**
 * @file
 * Extension bench: load-value prediction (paper Figure 1.d).
 *
 * The paper evaluates address prediction only; its introduction notes
 * that d-speculation "can also be used to predict data values such as
 * those loaded from memory".  This bench adds a last-value load-value
 * predictor on top of configuration D and reports, per issue width,
 * the harmonic-mean IPC with and without value prediction plus the
 * hit/wrong rates -- and contrasts against ideal address speculation
 * (E), which value prediction can beat when values are invariant.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace ddsc;
    ExperimentDriver driver;
    bench::banner("Extension: load-value prediction on top of "
                  "configuration D", driver);

    TextTable table;
    table.header({"width", "IPC D", "IPC D+VP", "speedup", "IPC E",
                  "VP hit %", "VP wrong %"});

    for (const unsigned w : MachineConfig::paperWidths()) {
        MachineConfig vp_config = MachineConfig::paper('D', w);
        vp_config.loadValuePrediction = true;

        std::vector<double> d_ipcs, vp_ipcs, e_ipcs;
        std::uint64_t hits = 0, wrong = 0, loads = 0;
        for (const WorkloadSpec &spec : allWorkloads()) {
            d_ipcs.push_back(driver.stats(spec, 'D', w).ipc());
            e_ipcs.push_back(driver.stats(spec, 'E', w).ipc());
            const SchedStats &vp = driver.statsFor(spec, vp_config);
            vp_ipcs.push_back(vp.ipc());
            hits += vp.valuePredHits;
            wrong += vp.valuePredWrong;
            loads += vp.loads;
        }
        const double d = harmonicMean(d_ipcs);
        const double vp = harmonicMean(vp_ipcs);
        table.row({
            MachineConfig::widthLabel(w),
            TextTable::num(d),
            TextTable::num(vp),
            TextTable::num(vp / d, 3),
            TextTable::num(harmonicMean(e_ipcs)),
            TextTable::num(percent(static_cast<double>(hits),
                                   static_cast<double>(loads)), 1),
            TextTable::num(percent(static_cast<double>(wrong),
                                   static_cast<double>(loads)), 1),
        });
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
