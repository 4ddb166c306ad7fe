/**
 * @file
 * The experiment-matrix query: one struct describing "which slice of
 * the A..E matrix, aggregated how", the code that runs it against an
 * ExperimentDriver, and the renderer that turns the answer into the
 * exact bytes ddsc-matrix prints.
 *
 * This is the layer ddsc-matrix and the ddsc-served/ddsc-client pair
 * share.  Byte-identity between a served sweep and a fresh CLI sweep
 * is not an aspiration enforced by tests alone: both paths parse into
 * the same MatrixQuery, aggregate through the same runMatrixQuery(),
 * and render through the same MatrixResult::render(), so the only
 * thing the wire adds is transport.  The structs carry little-endian
 * wire codecs (support/wire.hh) for exactly that reason.
 */

#ifndef DDSC_SIM_MATRIX_QUERY_HH
#define DDSC_SIM_MATRIX_QUERY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "support/wire.hh"

namespace ddsc
{

/**
 * One matrix request: the slice (set x configs x widths) and the
 * aggregation metric.  Mirrors the ddsc-matrix flags one-to-one.
 */
struct MatrixQuery
{
    std::string set = "all";        ///< all | pc | npc
    std::string configs = "ABCDE";  ///< subset of A..E, in print order
    std::vector<unsigned> widths = MachineConfig::paperWidths();
    std::string metric = "ipc";     ///< ipc | speedup | collapsed
    /** Serving only: how long the client is willing to wait, in
     *  milliseconds (0 = forever).  Bounds the *wait*, not the
     *  simulation — an expired cell keeps computing and lands in the
     *  server's cache for the next request. */
    std::uint64_t deadlineMs = 0;

    /** Every set validate() accepts, in ddsc-matrix's --set order. */
    static const std::vector<std::string> &knownSets();

    /** Every metric validate() accepts, in ddsc-matrix's --metric
     *  order. */
    static const std::vector<std::string> &knownMetrics();

    /** False (with a reason) when any field is out of range; the
     *  server turns this into a typed BadRequest error. */
    bool validate(std::string *why = nullptr) const;

    /** The workload set the query names. */
    std::vector<const WorkloadSpec *> workloads() const;

    /** configs plus the base machine 'A' when the metric needs it. */
    std::string neededConfigs() const;

    /** Every cell the query must resolve (workloads x neededConfigs x
     *  widths). */
    std::vector<ExperimentCell> cells() const;

    void encode(std::string &out) const;
    bool decode(support::wire::Reader &in);
};

/** Parse a --widths list such as "4,8,2k": positive decimal widths,
 *  or "2k" for 2048.  Empty when any entry is anything else ("4x",
 *  "-4", "", "0"), which ddsc-matrix and ddsc-client treat as a usage
 *  error.  Range checks stay in MatrixQuery::validate(). */
std::vector<unsigned> parseWidths(const std::string &list);

/** Per-request serving counters (all zero for a plain CLI run). */
struct MatrixSummary
{
    std::uint64_t cells = 0;        ///< unique cells the query needed
    std::uint64_t simulated = 0;    ///< cells this request computed
    std::uint64_t storeHits = 0;    ///< cells served from the store
    std::uint64_t coalesced = 0;    ///< cells single-flighted onto
                                    ///< another request's simulation
    double cellSeconds = 0.0;       ///< summed scheduler wall time

    void encode(std::string &out) const;
    bool decode(support::wire::Reader &in);
};

/**
 * The answer to a MatrixQuery: one aggregated value per
 * (config, width), row-major in the query's config order.  A cell
 * whose aggregate touched a quarantined simulation is invalid and
 * renders as "n/a", with the underlying failures listed.
 */
struct MatrixResult
{
    MatrixQuery query;              ///< echoed for self-description
    std::vector<double> values;     ///< configs x widths, row-major
    std::vector<std::uint8_t> valid;///< parallel to values
    MatrixSummary summary;
    std::vector<CellFailure> quarantined;
    /** True when a shutdown request interrupted the sweep before all
     *  cells resolved; values are absent. */
    bool interrupted = false;

    /**
     * Exactly what ddsc-matrix prints on stdout for this query: the
     * CSV block or the metric header plus the text table.  Status,
     * timing, and quarantine reporting are stderr concerns left to
     * the tools.
     */
    std::string render(bool csv) const;

    void encode(std::string &out) const;
    bool decode(support::wire::Reader &in);
};

/** The stderr block ddsc-matrix and ddsc-client print for quarantined
 *  cells ("" when none). */
std::string quarantineSummary(const std::vector<CellFailure> &cells,
                              const std::string &tool);

/** Wire codec for one CellFailure (shared by MatrixResult and the
 *  fleet CellsReply). */
void encodeCellFailure(std::string &out, const CellFailure &f);
bool decodeCellFailure(support::wire::Reader &in, CellFailure &f);

/**
 * Aggregate @p query from already-resolved per-cell stats: the value
 * grid, the quarantine list (cells for which @p stats threw
 * CellQuarantined, sorted by key), and summary.cells/cellSeconds.
 * summary.simulated/storeHits are the caller's to fill — it knows
 * where the cells came from.
 *
 * runMatrixQuery() funnels through this with the driver's stats();
 * the fleet router calls it with a lookup over shard-returned cell
 * summaries (encodeCellSummary below).  One reduction path is what
 * makes a routed sweep byte-identical to a local one.
 */
MatrixResult aggregateMatrixResult(const MatrixQuery &query,
                                   const CellStatsFn &stats);

/** Encoded size of one cell summary: four little-endian u64s. */
constexpr std::size_t kCellSummaryBytes = 32;

/**
 * Wire codec for one cell's summary: exactly the SchedStats fields
 * aggregateMatrixResult() reads — instructions, cycles,
 * collapse.collapsedInstructions() and wallNanos, in that order.  The
 * fleet CellsReply carries this instead of the whole record, and the
 * router merges the decoded summaries through the same
 * aggregateMatrixResult(), so a routed sweep stays byte-identical to
 * a local one.  decodeCellSummary() resets every other field of @p s
 * to zero.  A metric that reads another field must add it here;
 * router_test's summary oracle merges every known metric from full
 * records and from summaries and fails when the two disagree.
 */
void encodeCellSummary(std::string &out, const SchedStats &s);
bool decodeCellSummary(support::wire::Reader &in, SchedStats &s);

/**
 * Resolve every cell of @p query against @p driver and aggregate.
 *
 * @param prefetch how to resolve the cell set; defaults to
 *        driver.prefetch().  ddsc-served passes its single-flight
 *        CellRegistry here so concurrent identical requests share one
 *        simulation.
 *
 * If a shutdown request made the (interruptible) driver skip cells,
 * the result comes back with interrupted = true and no values rather
 * than re-simulating the skipped cells serially.
 */
MatrixResult runMatrixQuery(
    ExperimentDriver &driver, const MatrixQuery &query,
    const std::function<void(const std::vector<ExperimentCell> &)>
        &prefetch = {});

} // namespace ddsc

#endif // DDSC_SIM_MATRIX_QUERY_HH
