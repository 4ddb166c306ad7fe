/**
 * @file
 * Experiment driver: runs the paper's configuration matrix over the
 * workload set with trace and result caching, and provides the
 * aggregations the paper reports (harmonic-mean IPC and speedup over
 * the base machine, merged collapse statistics, mean load-class
 * percentages).
 *
 * The driver is parallel: every (workload, config, width) cell is an
 * independent LimitScheduler run over an immutable cached trace, so
 * prefetch() farms missing cells out to one persistent, driver-owned
 * thread pool (`--jobs` / $DDSC_JOBS, default hardware_concurrency)
 * and the aggregation helpers prefetch their whole cell set before
 * reducing serially; a stats()/statsFor() miss is a one-cell
 * prefetch.  prefetch() may be called from several threads
 * at once (the ddsc-served sessions do): each call waits only for its
 * own batch, every batch shares the same workers, and trace
 * materialization is latched per workload (TraceStore) — concurrent
 * requests for the same workload share one VM build while distinct
 * workloads build in parallel.  Concurrent calls
 * racing on the *same* missing cell may both simulate it (last write
 * is a no-op; results are identical) — the serving layer's
 * CellRegistry exists to single-flight that case.
 * Results are bit-identical to a serial run regardless of job count
 * (tests/parallel_equiv_test.cpp is the oracle): each cell is computed
 * by the same deterministic scheduler over a private trace cursor, and
 * the reductions always read cells in the caller-given set order.
 *
 * The environment variable DDSC_TRACE_LIMIT truncates every workload
 * trace the driver builds (an adopted one is used as given) to at
 * most that many instructions — the same rule the paper applied at
 * 250M ("only the first 250 million instructions of each benchmark
 * trace were simulated").  Use it to make quick bench runs cheap.
 *
 * Durability: attachStore() plugs in a persistent ResultStore.  Every
 * finished cell is appended to it immediately, and cells whose stored
 * fingerprint and trace digest still match are served from it without
 * re-simulating, which is what makes an interrupted sweep resumable
 * (--cache-dir/--resume in the tools).
 *
 * Every cell, in a sweep or alone, first attempt or retry, runs on
 * the batched engine (sim/batched.hh): a group of cells sharing a
 * workload and a front-end fingerprint is one streaming front-end
 * pass feeding all their back-end window engines.
 *
 * Fault containment: a cell whose simulation throws no longer kills
 * the whole sweep.  The worker retries it alone up to kCellAttempts
 * times (a transient fault recovers invisibly), then quarantines it;
 * every other cell completes bit-identical to a serial run, and
 * stats() for a quarantined cell throws CellQuarantined instead of
 * returning garbage or silently re-running a known-bad simulation.
 */

#ifndef DDSC_SIM_EXPERIMENT_HH
#define DDSC_SIM_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hh"
#include "core/scheduler.hh"
#include "core/sched_stats.hh"
#include "sim/batched.hh"
#include "sim/result_store.hh"
#include "sim/trace_store.hh"
#include "support/cancel.hh"
#include "support/thread_pool.hh"
#include "workloads/workloads.hh"

namespace ddsc
{

/** One cell of the experiment matrix. */
struct ExperimentCell
{
    const WorkloadSpec *spec;
    char config;        ///< paper configuration letter A..E
    unsigned width;     ///< issue width
};

/** One cell given by an arbitrary machine (ablations, extensions).
 *  Named by cellKey(), so a paper letter's machine is its paper cell. */
struct MachineCell
{
    const WorkloadSpec *spec;
    MachineConfig config;
};

/** Why one cell is quarantined. */
struct CellFailure
{
    std::string key;        ///< cache key, e.g. "li/D/16"
    std::string message;    ///< what the last attempt threw
    unsigned attempts = 0;  ///< how many times it was tried
};

/** Thrown by stats()/statsFor() for a quarantined cell. */
class CellQuarantined : public std::runtime_error
{
  public:
    explicit CellQuarantined(const CellFailure &f)
        : std::runtime_error("cell '" + f.key + "' is quarantined "
                             "after " + std::to_string(f.attempts) +
                             " failed attempts: " + f.message),
          failure(f)
    {}

    const CellFailure failure;
};

/**
 * Runs and caches simulations of the A..E matrix.
 */
class ExperimentDriver
{
  public:
    /**
     * @param trace_limit 0 = unlimited (or $DDSC_TRACE_LIMIT).
     * @param test_scale build workloads at their small test scale
     *        instead of the default experiment scale (used by the
     *        test suite to keep the matrix cheap).
     * @param jobs worker threads for prefetch(); 0 = $DDSC_JOBS or
     *        hardware_concurrency, 1 = fully serial.
     */
    explicit ExperimentDriver(std::uint64_t trace_limit = 0,
                              bool test_scale = false,
                              unsigned jobs = 0);

    /** Worker threads used by prefetch() (>= 1). */
    unsigned jobs() const { return jobs_; }

    /** Change the worker-thread count (0 = default policy).  Rebuilds
     *  the shared pool; safe only between sweeps, not during a
     *  prefetch(). */
    void setJobs(unsigned jobs);

    /**
     * Make prefetch() honour support::shutdownRequested(): workers
     * skip cells they have not started yet, so the call returns
     * promptly with every *finished* cell published (and flushed to
     * the attached store).  Off by default — a draining ddsc-served
     * wants the opposite, to finish its in-flight cells.
     */
    void setInterruptible(bool on) { interruptible_ = on; }

    /**
     * Grouped prefetch (default on): missing cells that share a
     * workload and a front-end fingerprint are simulated as one group
     * — a single streaming SpecFrontEnd pass feeding all their
     * back-end window engines — instead of one front-end pass per
     * cell.  The paper matrix needs two passes per workload
     * ({A, C, E} and {B, D}) to cover all 25 cells.  setBatched(false)
     * makes every cell its own group on the same engine; per-cell
     * results are bit-identical either way (wallNanos excepted).  No
     * tool or server sets it; it survives for perfbench's digest
     * emitter (`ddsc-perfbench --emit-digests`), which calls
     * setBatched(false).
     */
    void setBatched(bool on) { batched_ = on; }
    bool batched() const { return batched_; }

    /** Times a cell simulation is attempted before quarantine. */
    static constexpr unsigned kCellAttempts = ddsc::kCellAttempts;

    /**
     * Plug in a persistent result cache (nullptr detaches).  Not
     * owned; must outlive the driver or the next attachStore().  Safe
     * only between sweeps, not during a prefetch().
     */
    void attachStore(ResultStore *store) { store_ = store; }

    /** The attached store (nullptr when none). */
    ResultStore *store() const { return store_; }

    /** Cells served from the attached store instead of simulated. */
    std::size_t storeHits() const;

    /** Cells actually simulated by this driver (cache misses that were
     *  not store hits).  The serving layer's single-flight tests use
     *  this as ground truth: K concurrent identical requests must
     *  raise it by the number of *unique* cells only. */
    std::size_t simulatedCells() const;

    /** Snapshot of the quarantined cells, sorted by key.  Empty means
     *  every requested cell simulated cleanly. */
    std::vector<CellFailure> quarantineReport() const;

    /** Number of quarantined cells (cheaper than quarantineReport()
     *  when only the count is wanted, e.g. a health probe). */
    std::size_t quarantineCount() const;

    /**
     * Quarantine @p key from outside the simulation path — the
     * serving watchdog uses this for a cell stuck past its hard
     * budget.  The quarantine is *provisional*: should the stuck
     * simulation ever finish, its published result clears the entry
     * again (see prefetch()/statsFor()), so a transient stall
     * self-heals while a true hang degrades to the same n/a
     * aggregation as any other poisoned cell.  No-op when the cell is
     * already cached or quarantined.
     */
    void quarantineCell(const std::string &key,
                        const std::string &message);

    /** Largest scheduler wall time of any cached cell, in
     *  nanoseconds (0 with an empty cache).  Feeds the serving
     *  watchdog's adaptive budget: a cell in flight for many times
     *  the slowest cell ever observed is stuck, not slow. */
    std::uint64_t maxCellWallNanos() const;

    /**
     * Simulate every not-yet-cached cell of @p cells concurrently on
     * up to jobs() threads, filling the result cache.  Subsequent
     * stats()/aggregation calls for those cells are cache hits.  Safe
     * to call with duplicate or already-cached cells.
     */
    void prefetch(const std::vector<ExperimentCell> &cells);

    /** As above for arbitrary machines, each named by cellKey():
     *  later statsFor() calls, and stats() calls for the paper
     *  machines among them, are cache hits. */
    void prefetch(const std::vector<MachineCell> &cells);

    /**
     * As above with per-cell cancellation: @p tokens is parallel to
     * @p cells (empty = no cancellation; asserted otherwise).  A cell
     * whose token fires mid-simulation stops consuming its worker
     * within one chunk, discards its partial state, and is left
     * *unresolved* — neither cached, nor quarantined, nor appended to
     * the store — so the next request that wants it re-runs it
     * cleanly.  Sibling cells of the same batched group are
     * unaffected, exactly like the fault-containment path.  When the
     * same cell appears twice the first occurrence's token governs it.
     */
    void prefetch(const std::vector<ExperimentCell> &cells,
                  const std::vector<support::CancelToken> &tokens);

    /** Enumerate @p set x @p configs x @p widths as cells. */
    static std::vector<ExperimentCell>
    cellsFor(const std::vector<const WorkloadSpec *> &set,
             const std::string &configs,
             const std::vector<unsigned> &widths);

    /** Simulate (cached) one workload under one configuration.  A
     *  miss is a one-cell prefetch().  @p token, when valid, cancels a
     *  simulation this call itself runs (cache and store hits never
     *  cancel); the cell is left unresolved and CellCancelled is
     *  thrown with the token's reason.  An interruptible driver after
     *  a shutdown request skips the miss the same way. */
    const SchedStats &stats(const WorkloadSpec &spec, char config,
                            unsigned width,
                            const support::CancelToken &token = {});

    /** True when the cell is already cached or quarantined — i.e. a
     *  stats() call would not have to simulate.  Lets callers detect
     *  an interrupted prefetch() without triggering serial
     *  re-simulation. */
    bool cellResolved(const WorkloadSpec &spec, char config,
                      unsigned width) const;

    /** True when answering stats() for the cell needs no fresh
     *  simulation: it is cached, quarantined, or present in the
     *  attached store.  The admission controller's brownout mode uses
     *  this to keep answering already-computed cells while shedding
     *  fresh work.  The store probe is by key only (no staleness
     *  check) — a stale record admits one request that then simulates,
     *  an acceptable heuristic error under overload.  Cheap: never
     *  materializes a trace. */
    bool cellDurable(const WorkloadSpec &spec, char config,
                     unsigned width) const;

    /** As above with an arbitrary MachineConfig (ablation studies),
     *  cached under cellKey(spec.name, config): a paper letter's
     *  machine is its paper cell, any other machine a cell of its own.
     *  @param token as in stats(). */
    const SchedStats &statsFor(const WorkloadSpec &spec,
                               const MachineConfig &config,
                               const support::CancelToken &token = {});

    /** Harmonic-mean IPC over @p set (paper Figures 2, 4, 6). */
    double hmeanIpc(const std::vector<const WorkloadSpec *> &set,
                    char config, unsigned width);

    /** Harmonic mean of per-benchmark speedups versus configuration A
     *  at the same width (paper Figures 3, 5, 7). */
    double hmeanSpeedup(const std::vector<const WorkloadSpec *> &set,
                        char config, unsigned width);

    /** Collapse statistics merged across @p set (Figures 8-10 and
     *  Tables 5-6 aggregate over all benchmarks). */
    CollapseStats mergedCollapse(
        const std::vector<const WorkloadSpec *> &set, char config,
        unsigned width);

    /** Aggregate percentage of instructions collapsed (Figure 8). */
    double pctCollapsed(const std::vector<const WorkloadSpec *> &set,
                        char config, unsigned width);

    /** Arithmetic mean over @p set of a load-class percentage under
     *  configuration D-style runs (Tables 3 and 4). */
    double meanLoadClassPct(const std::vector<const WorkloadSpec *> &set,
                            char config, unsigned width, LoadClass cls);

    /** The trace (cached; truncated unless adopted) for one
     *  workload; read it through cursor(). */
    const SharedTrace &trace(const WorkloadSpec &spec);

    /** Content digest of trace(spec), computed exactly once per
     *  workload (TraceStore latches it).  Keys the persistent result
     *  store together with the machine fingerprint. */
    std::uint64_t traceDigest(const WorkloadSpec &spec);

    /**
     * Serve @p trace as @p spec's trace, so cells of @p spec sweep it
     * instead of a VM build: ddsc-sim runs its --workload, --asm and
     * --trace inputs through here.  The trace is used as given (the
     * trace limit never truncates it, and it is neither rescaled nor
     * spilled); cells are named and stored under spec.name.  @p spec
     * must outlive the driver.  Dies when spec's trace is already
     * built.
     */
    void adoptTrace(const WorkloadSpec &spec,
                    std::unique_ptr<const SharedTrace> trace);

    /**
     * Spill VM-generated traces to DDSCTRC v4 files under @p dir and
     * serve them mmap'd (--trace-dir in the tools): peak RSS becomes
     * one workload's vector during generation instead of the whole
     * corpus, and the residency budget below can evict cold traces.
     * "" restores in-memory traces.  Affects only workloads not yet
     * materialized — set it before the first sweep.
     */
    void setTraceDir(const std::string &dir);

    /** Page-residency budget over mapped traces in MiB, enforced by
     *  LRU eviction at cell start (--trace-budget-mb; 0 = unlimited).
     *  In-memory traces are not charged. */
    void setTraceBudgetMb(std::uint64_t mb);

    /** Residency counters for the health endpoint. */
    TraceResidencyManager::Counters traceResidency() const;

    /** Pointers to all six workloads. */
    static std::vector<const WorkloadSpec *> everything();

    /** The configured trace limit (0 = none). */
    std::uint64_t traceLimit() const { return traceLimit_; }

    /** Number of cached cells (safe to call during a prefetch). */
    std::size_t cachedCells() const;

    /** Cumulative scheduler wall time of the cells this driver
     *  simulated, in seconds (store hits ran elsewhere and count
     *  nothing) — compare against elapsed time to see the parallel
     *  speedup.  Safe to call during a prefetch. */
    double cachedCellSeconds() const;

  private:
    /** The cached stats for @p key, nullptr on a miss; throws
     *  CellQuarantined for a quarantined cell. */
    const SchedStats *cached(const std::string &key) const;

    /** One cell on its way through resolve(). */
    struct PendingCell
    {
        const WorkloadSpec *spec;
        std::string key;
        MachineConfig config;
        support::CancelToken token;     ///< null when uncancellable
    };

    /** The one cell path, under every prefetch() and every
     *  stats()/statsFor() miss: store lookup, one batched group per
     *  (trace, front-end fingerprint) on the pool, then store append
     *  and cache publish, quarantine on failure, nothing on cancel. */
    void resolve(const std::vector<PendingCell> &cells);

    /** A stats()/statsFor() miss: resolve @p cell alone, then return
     *  it or throw CellQuarantined / CellCancelled. */
    const SchedStats &resolveOne(PendingCell cell);

    /** The shared worker pool, created on first use with jobs_
     *  threads.  Persistent across prefetch() calls so concurrent
     *  batches (ddsc-served sessions) share one set of workers
     *  instead of spawning pools per sweep. */
    support::ThreadPool &pool();

    std::uint64_t traceLimit_;
    bool testScale_;
    unsigned jobs_;
    bool interruptible_ = false;
    bool batched_ = true;
    std::unique_ptr<support::ThreadPool> pool_;
    /** Guards pool_ creation only; traces live in traceStore_, which
     *  latches materialization per workload so unrelated workloads no
     *  longer serialize behind one lock. */
    mutable std::mutex poolMutex_;
    /** Owns the workload traces (build-once, digest-once, optional
     *  spill-to-v4 + mmap, residency budget). */
    TraceStore traceStore_;
    std::map<std::string, SchedStats> cache_;
    /** cache key -> why the cell is poisoned. */
    std::map<std::string, CellFailure> quarantine_;
    ResultStore *store_ = nullptr;      ///< optional, not owned
    std::size_t storeHits_ = 0;
    std::size_t simulated_ = 0;         ///< cells actually run
    std::uint64_t simulatedNanos_ = 0;  ///< their summed wallNanos
    /** Guards cache_ / quarantine_ / storeHits_ / simulated_ /
     *  simulatedNanos_ during parallel prefetch (mutable: const
     *  observers lock it too). */
    mutable std::mutex mutex_;
};

/** The one spelling of a paper cell's name, "<workload>/<letter>/
 *  <width>" (e.g. "li/D/16"): the key of the driver cache, the store,
 *  the registry's flights, the fleet merge, quarantine reports and
 *  DDSC_FAULT addresses.  MachineConfig::paper() is a pure function
 *  of letter and width, so the name is the machine. */
std::string paperCellKey(std::string_view workload, char letter,
                         unsigned width);

/** The name of the cell (@p workload, @p config).  A machine whose
 *  name is one known letter and whose fingerprint equals that of
 *  MachineConfig::paper(letter, issueWidth) is the paper cell,
 *  paperCellKey(workload, letter, issueWidth); any other machine is
 *  "<workload>/<config.name>/<config.fingerprint()>".  The fingerprint
 *  covers every knob and contains '|', so distinct machines get
 *  distinct names and the second form never equals a paperCellKey(). */
std::string cellKey(std::string_view workload,
                    const MachineConfig &config);

/** Parse $DDSC_TRACE_LIMIT (0 when unset/invalid/trailing garbage;
 *  out-of-range values clamp to UINT64_MAX = effectively unlimited). */
std::uint64_t envTraceLimit();

/**
 * Per-cell stats access for the aggregation helpers below: return the
 * stats for (workload, config, width) or throw CellQuarantined.  The
 * local path binds ExperimentDriver::stats(); the fleet router binds
 * a lookup over the per-cell summaries its shards ship back (see
 * encodeCellSummary in sim/matrix_query.hh) — both aggregate
 * through the same functions, which is what makes a routed sweep
 * byte-identical to a fresh local one.
 */
using CellStatsFn = std::function<const SchedStats &(
    const WorkloadSpec &, char config, unsigned width)>;

/** Harmonic-mean IPC over @p set (paper Figures 2, 4, 6). */
double hmeanIpcOver(const std::vector<const WorkloadSpec *> &set,
                    char config, unsigned width,
                    const CellStatsFn &stats);

/** Harmonic mean of per-benchmark speedups versus configuration A at
 *  the same width (paper Figures 3, 5, 7). */
double hmeanSpeedupOver(const std::vector<const WorkloadSpec *> &set,
                        char config, unsigned width,
                        const CellStatsFn &stats);

/** Collapse statistics merged across @p set. */
CollapseStats mergedCollapseOver(
    const std::vector<const WorkloadSpec *> &set, char config,
    unsigned width, const CellStatsFn &stats);

/** Aggregate percentage of instructions collapsed (Figure 8). */
double pctCollapsedOver(const std::vector<const WorkloadSpec *> &set,
                        char config, unsigned width,
                        const CellStatsFn &stats);

/** Arithmetic mean over @p set of a load-class percentage. */
double meanLoadClassPctOver(
    const std::vector<const WorkloadSpec *> &set, char config,
    unsigned width, LoadClass cls, const CellStatsFn &stats);

} // namespace ddsc

#endif // DDSC_SIM_EXPERIMENT_HH
