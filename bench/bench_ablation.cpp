/**
 * @file
 * Ablation bench: quantifies the design choices DESIGN.md calls out,
 * all at issue width 16 on the full benchmark set (harmonic-mean IPC):
 *
 *  - zero-operand detection on/off (how much 0-op buys);
 *  - triples on/off (pairs-only collapsing, the prior-work model);
 *  - a 3-1-only device (maxOperands = 3);
 *  - address-prediction confidence threshold 0/1/3 ("always use a
 *    prediction" vs the paper's ">1" vs "fully saturated only");
 *  - window/width ratio 1x/2x/4x (the paper fixes 2x);
 *  - branch predictor size 2 kB vs 8 kB vs perfect-sized 64 kB.
 */

#include <cstdio>

#include "bench_common.hh"

namespace
{

using namespace ddsc;

double
hmeanIpcFor(ExperimentDriver &driver, const MachineConfig &config)
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
    bench::banner("Ablations (configuration D, width 16, harmonic-mean "
                  "IPC over all benchmarks)", driver);

    constexpr unsigned kWidth = 16;
    TextTable table;
    table.header({"variant", "IPC", "vs paper-D"});

    const MachineConfig base_d = MachineConfig::paper('D', kWidth);
    const double d_ipc = hmeanIpcFor(driver, base_d);
    auto report = [&](const std::string &name,
                      const MachineConfig &config) {
        const double ipc = hmeanIpcFor(driver, config);
        table.row({name, TextTable::num(ipc),
                   TextTable::num(ipc / d_ipc, 3)});
    };

    table.row({"paper D (reference)", TextTable::num(d_ipc), "1.000"});

    {
        MachineConfig cfg = base_d;
        cfg.rules.zeroOpDetection = false;
        report("no zero-operand detection", cfg);
    }
    {
        MachineConfig cfg = base_d;
        cfg.rules.maxInstructions = 2;
        report("pairs only (no triples)", cfg);
    }
    {
        MachineConfig cfg = base_d;
        cfg.rules.maxOperands = 3;
        report("3-1 device only", cfg);
    }
    {
        MachineConfig cfg = base_d;
        cfg.addrConfidenceThreshold = 0;
        report("confidence threshold 0", cfg);
    }
    {
        MachineConfig cfg = base_d;
        cfg.addrConfidenceThreshold = 2;
        report("confidence threshold 2", cfg);
    }
    {
        MachineConfig cfg = base_d;
        cfg.windowSize = kWidth;
        report("window = 1x width", cfg);
    }
    {
        MachineConfig cfg = base_d;
        cfg.windowSize = 4 * kWidth;
        report("window = 4x width", cfg);
    }
    {
        MachineConfig cfg = base_d;
        cfg.bpredIndexBits = 11;
        report("2 kB branch predictor", cfg);
    }
    {
        MachineConfig cfg = base_d;
        cfg.bpredIndexBits = 16;
        report("64 kB branch predictor", cfg);
    }

    std::printf("%s", table.render().c_str());
    return 0;
}
