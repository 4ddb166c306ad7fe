/**
 * @file
 * One-pass multi-cell simulation: a single streaming SpecFrontEnd
 * pass over one workload trace feeds any number of back-end window
 * engines whose configs share a front-end fingerprint (typically the
 * width sweep of one paper configuration, or {A, C, E} together since
 * none of them trains a load predictor).
 *
 * runBatchedGroup() is how every cell is simulated: ExperimentDriver
 * runs its sweeps (ddsc-sim's included), its single cells, and their
 * retries through runBatchedGroupWithRetry() below, and bench_sched
 * times the same path.  Per-cell results do not depend on the
 * grouping or the chunk size, and equal the naive reference engine's
 * (tests/batched_equiv_test.cpp is the oracle); only wallNanos
 * differs, carrying each cell's own back-end time plus an equal share
 * of the single front-end pass.
 *
 * Fault containment: the "cell-throw"/"cell-stall" injection hooks
 * fire per cell inside the batch, and a cell that throws mid-batch is
 * dropped from the group without disturbing its siblings (each
 * back-end owns all its window state; the front-end is read-only to
 * them).  runBatchedGroupWithRetry() retries such a cell alone for its
 * remaining attempts.
 */

#ifndef DDSC_SIM_BATCHED_HH
#define DDSC_SIM_BATCHED_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/frontend.hh"
#include "core/sched_stats.hh"
#include "support/cancel.hh"
#include "trace/source.hh"

namespace ddsc
{

/** Outcome of one cell of a batched group. */
struct BatchedCellResult
{
    SchedStats stats;           ///< valid when ok
    bool ok = false;
    /** The cell's CancelToken fired mid-pass: its partial window was
     *  discarded and it must be neither retried nor quarantined
     *  (distinct from !ok && !cancelled, a real failure). */
    bool cancelled = false;
    std::string error;          ///< what the feed threw when !ok
};

/** Outcome of one front-end pass over a group of cells. */
struct BatchedGroupResult
{
    std::vector<BatchedCellResult> cells;   ///< parallel to configs
    std::uint64_t frontEndNanos = 0;        ///< one shared pass
    FrontEndTrainCounts trainCounts;        ///< post-pass totals
};

/** Times a cell is attempted before it is given up as failed. */
constexpr unsigned kCellAttempts = 3;

/**
 * Run every (config, key) cell over @p trace with one shared
 * front-end pass.  All configs must agree on frontEndFingerprint()
 * (asserted).  @p keys label the cells for fault-injection hooks and
 * error messages, parallel to @p configs.  The trace is consumed
 * through one fresh cursor, so in-memory and mmap'd traces feed the
 * pass identically.
 *
 * @p tokens, when non-empty, is parallel to @p configs: each cell's
 * token is checked at every chunk boundary (and polled inside the
 * back-end), so a cancelled cell stops consuming its back-end within
 * one chunk while its siblings ride the same front-end pass to
 * completion.  When every cell is gone (cancelled or failed) the
 * front-end pass itself stops.  An empty vector means no cell can be
 * cancelled — the pre-cancellation behaviour.
 */
BatchedGroupResult runBatchedGroup(
    const SharedTrace &trace,
    const std::vector<MachineConfig> &configs,
    const std::vector<std::string> &keys,
    std::size_t chunk = kBatchedChunk,
    const std::vector<support::CancelToken> &tokens = {});

/**
 * runBatchedGroup() with bounded retry, the driver's one
 * fault-containment policy.  A cell that fails in the shared pass is
 * retried alone, as a one-cell group over a fresh cursor, until it
 * has had kCellAttempts attempts: a transient fault recovers
 * (warning "cell '<key>' recovered on attempt N of 3") and a
 * persistent one comes back !ok with the last attempt's error (each
 * failure warns "cell '<key>' failed (attempt N of 3): <error>").  A
 * cancelled cell is not a failure: it is never retried, since the
 * same token would only cancel it again.
 */
BatchedGroupResult runBatchedGroupWithRetry(
    const SharedTrace &trace,
    const std::vector<MachineConfig> &configs,
    const std::vector<std::string> &keys,
    std::size_t chunk = kBatchedChunk,
    const std::vector<support::CancelToken> &tokens = {});

} // namespace ddsc

#endif // DDSC_SIM_BATCHED_HH
