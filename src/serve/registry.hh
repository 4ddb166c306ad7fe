/**
 * @file
 * Single-flight cell registry: when several concurrent requests need
 * the same not-yet-computed cell, exactly one of them simulates it
 * and the rest wait for that result.
 *
 * The ExperimentDriver is already safe under concurrent prefetch()
 * calls, but "safe" there means "both callers compute the cell and
 * the second publish is a no-op" — correct, and exactly the
 * duplicated work a resident server exists to avoid.  The registry
 * closes that gap: each request first claims the cells nobody else is
 * flying, simulates its claimed batch through the shared driver, and
 * then waits for the cells other requests claimed.  A flight is keyed
 * by the driver's name for its cell, paperCellKey(): one registry
 * serves one driver, which latches one trace per workload, so a
 * fingerprint or trace digest would add nothing.
 *
 * Deadlines bound the *wait*, never the computation: a request whose
 * deadline expires while another request is still simulating its cell
 * reports expiry and leaves, and the simulation lands in the driver
 * cache for whoever asks next.  A claimed batch is always driven to
 * resolution (cache or quarantine) by its owner, so waiters cannot
 * deadlock on an abandoned claim — the owner releases and notifies
 * even when the driver throws.
 *
 * Stall detection: every claim records when it took off, and the
 * server's watchdog thread calls watchdogSweep() periodically.  A
 * claim in flight longer than the *soft* budget is marked stalled:
 * every waiter (current and future) is failed immediately with
 * CellStalled — a typed, retryable condition — instead of hanging on
 * the condition variable for as long as the owner is stuck.  A claim
 * past the *hard* budget is reported back so the server can
 * quarantine the cell through the driver's quarantineReport() path:
 * from then on the cell aggregates as n/a like any other poisoned
 * cell, and if the owner ever does finish, its published result
 * clears the quarantine again.
 *
 * Cancellation: every claim owns a CancelToken — a child of the
 * claiming request's token, so a request whose deadline expires (or
 * that is cancelled outright) stops *its own* claimed simulations
 * within one chunk, while flights claimed by other requests are
 * untouched.  A flight past the watchdog's *cancel* budget (the
 * escalation rung above quarantine) has its token fired too: the
 * stuck worker is actively reclaimed instead of abandoned.  A
 * cancelled cell is left unresolved — never quarantined, never
 * retried here — and the next request that wants it re-runs it
 * cleanly; the thrower is the typed CellCancelled.
 */

#ifndef DDSC_SERVE_REGISTRY_HH
#define DDSC_SERVE_REGISTRY_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace ddsc::serve
{

/** How one resolve() call went. */
struct ResolveOutcome
{
    /** Cells this request did not compute because another in-flight
     *  request already was — the single-flight savings. */
    std::size_t coalesced = 0;
    /** True when the deadline expired before every cell resolved;
     *  the result must not be aggregated. */
    bool deadlineExpired = false;
};

/**
 * Thrown to a waiter when the cell it is waiting on was marked
 * stalled by the watchdog.  The serving layer turns this into the
 * typed (and retryable) ErrCode::Stalled — the owner may still
 * finish the cell and cache it for the retry.
 */
class CellStalled : public std::runtime_error
{
  public:
    CellStalled(const std::string &cache_key, std::uint64_t age_ms,
                std::uint64_t budget_ms)
        : std::runtime_error(
              "cell '" + cache_key + "' stalled: in flight for " +
              std::to_string(age_ms) + " ms (watchdog budget " +
              std::to_string(budget_ms) + " ms); retry shortly"),
          key(cache_key)
    {}

    const std::string key;
};

/** One stalled claim, as reported by watchdogSweep(). */
struct StalledFlight
{
    std::string cacheKey;       ///< driver cache key, e.g. "li/D/16"
    std::uint64_t ageMs = 0;    ///< time in flight when detected
};

/** What one watchdog sweep found (newly detected only — a claim is
 *  reported soft-stalled once, hard-stalled once, cancelled once). */
struct WatchdogReport
{
    std::vector<StalledFlight> stalled;      ///< past the soft budget
    std::vector<StalledFlight> hardStalled;  ///< past the hard budget
    /** Past the cancel budget: the flight's token was fired, so its
     *  owner's simulation unwinds at the next chunk boundary and the
     *  worker thread comes back. */
    std::vector<StalledFlight> cancelled;
};

/**
 * Single-flights cell resolution for one shared ExperimentDriver.
 * Thread-safe; one instance per server.
 */
class CellRegistry
{
  public:
    explicit CellRegistry(ExperimentDriver &driver) : driver_(driver)
    {}

    /**
     * Resolve every cell in @p cells (simulate, load from store, or
     * wait for another request's in-flight simulation), bounded by
     * @p deadline_ms of waiting (0 = wait forever).
     *
     * @p token, when valid, is the requesting session's cancel token:
     * each cell this request *claims* simulates under a child of it,
     * so the request's deadline or an explicit cancel stops exactly
     * its own claimed flights (within one chunk) — coalesced waits
     * are still bounded by @p deadline_ms alone, and flights owned by
     * other requests run on.
     *
     * @throws CellStalled when a cell this request would wait on has
     *         been marked stalled by the watchdog.
     * @throws CellCancelled when one of this request's own claimed
     *         simulations was cancelled (its deadline, or the
     *         watchdog's cancel rung).  The cell stays unresolved.
     */
    ResolveOutcome resolve(const std::vector<ExperimentCell> &cells,
                           std::uint64_t deadline_ms,
                           const support::CancelToken &token = {});

    /**
     * Scan the in-flight claims: mark (and report) claims older than
     * @p soft_budget_ms as stalled, waking every waiter so it can
     * fail with CellStalled; report claims older than
     * @p hard_budget_ms once for the caller to quarantine.  Claims
     * older than @p cancel_budget_ms (0 = never) get their flight
     * token fired — the escalation from "warn the waiters" through
     * "presume poisoned" to "take the worker back".  Called from the
     * server's watchdog thread.
     */
    WatchdogReport watchdogSweep(std::uint64_t soft_budget_ms,
                                 std::uint64_t hard_budget_ms,
                                 std::uint64_t cancel_budget_ms = 0);

    /** Total cells coalesced since construction. */
    std::uint64_t coalescedTotal() const;

    /** Cells in flight right now (the registry depth). */
    std::uint64_t inflightDepth() const;

    /** In-flight cells currently marked stalled. */
    std::uint64_t stalledCount() const;

  private:
    /** One in-flight claim, keyed by paperCellKey() ("li/D/16"). */
    struct Flight
    {
        std::chrono::steady_clock::time_point start;
        /** Child of the owner's request token; fired by the owner's
         *  deadline or the watchdog's cancel rung.  Always valid. */
        support::CancelToken token;
        bool stalled = false;       ///< past the soft budget
        bool quarantined = false;   ///< reported past the hard budget
        bool cancelSent = false;    ///< cancel rung fired already
        std::uint64_t budgetMs = 0; ///< the budget it overran (for
                                    ///< the CellStalled message)
    };

    ExperimentDriver &driver_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<std::string, Flight> inflight_;
    std::uint64_t coalescedTotal_ = 0;
};

} // namespace ddsc::serve

#endif // DDSC_SERVE_REGISTRY_HH
