/**
 * @file
 * Future-work bench: alternative load-address predictors.
 *
 * The paper's conclusion calls for load-speculation mechanisms that
 * work on both pointer-chasing and non-pointer-chasing codes.  This
 * bench swaps the two-delta stride table for a last-value predictor
 * and an order-2 context (FCM) predictor and reports, per benchmark at
 * width 16 under configuration D, the predicted-correctly load share
 * and the IPC.  Ideal speculation (E) bounds the attainable gain.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace ddsc;
    ExperimentDriver driver;
    bench::banner("Future work: load-address predictor alternatives "
                  "(configuration D, width 16)", driver);

    constexpr unsigned kWidth = 16;
    const AddrPredKind kinds[] = {
        AddrPredKind::LastValue,
        AddrPredKind::TwoDelta,
        AddrPredKind::Context,
    };

    TextTable table;
    table.header({"benchmark",
                  "last-val corr%", "IPC",
                  "two-delta corr%", "IPC",
                  "context corr%", "IPC",
                  "ideal IPC"});

    for (const WorkloadSpec &spec : allWorkloads()) {
        std::vector<std::string> row = {spec.name};
        for (const AddrPredKind kind : kinds) {
            MachineConfig config = MachineConfig::paper('D', kWidth);
            config.addrPredKind = kind;
            const SchedStats &stats = driver.statsFor(spec, config);
            row.push_back(TextTable::num(
                stats.loadClassPct(LoadClass::PredictedCorrect), 1));
            row.push_back(TextTable::num(stats.ipc()));
        }
        row.push_back(TextTable::num(
            driver.stats(spec, 'E', kWidth).ipc()));
        table.row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Expected: context >= two-delta >= last-value on "
                "regular codes; all far below ideal on pointer "
                "chasing.\n");
    return 0;
}
