/**
 * @file
 * The four workloads.  runWorkload() measures one untraced run (the
 * end-to-end metrics) or, with Options::trace, one traced run (the
 * per-layer metrics, spans, counts and the layer-sum reconciliation).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run @p opts.workload; throws on set-up failure. */
RunResult runWorkload(const Options &opts);

/** Print the sweep_paper digest table computed by the per-cell
 *  (unbatched) driver path, for perfbench/data/sweep_digests.txt. */
int emitSweepDigests();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
