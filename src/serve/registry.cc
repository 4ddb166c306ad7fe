#include "registry.hh"

#include <chrono>
#include <set>

namespace ddsc::serve
{

namespace
{

std::uint64_t
ageMsOf(std::chrono::steady_clock::time_point start,
        std::chrono::steady_clock::time_point now)
{
    using std::chrono::duration_cast;
    using std::chrono::milliseconds;
    return static_cast<std::uint64_t>(
        duration_cast<milliseconds>(now - start).count());
}

} // namespace

ResolveOutcome
CellRegistry::resolve(const std::vector<ExperimentCell> &cells,
                      std::uint64_t deadline_ms,
                      const support::CancelToken &token)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(deadline_ms);

    ResolveOutcome out;

    // Materialize and digest each workload's trace before claiming
    // anything, outside the lock: a flight's age, which the watchdog
    // holds against its budgets, must not include trace generation.
    std::set<const WorkloadSpec *> workloads;
    std::vector<std::string> keys;
    keys.reserve(cells.size());
    for (const ExperimentCell &cell : cells) {
        if (workloads.insert(cell.spec).second)
            driver_.traceDigest(*cell.spec);
        keys.push_back(
            paperCellKey(cell.spec->name, cell.config, cell.width));
    }

    // Every flight this request claims simulates under its own child
    // token: the request's deadline (or an explicit cancel, or the
    // watchdog's cancel rung) stops exactly these flights.  A null
    // request token still yields a live per-flight token so the
    // watchdog can reclaim a stalled flight nobody is bounding.
    auto flightToken = [&]() {
        return token.valid() ? token.child()
                             : support::CancelToken::make();
    };

    // Claim every unresolved cell nobody else is flying.
    std::vector<ExperimentCell> claimed;
    std::vector<std::string> claimedKeys;
    std::vector<support::CancelToken> claimedTokens;
    std::vector<std::size_t> waitFor;   // indexes into cells/keys
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Stalled flights fail the whole request up front, before it
        // claims anything: while the stuck owner is still in flight,
        // "the cell is quarantined" (hard budget) must read as the
        // typed, retryable Stalled — the owner may yet publish and
        // clear the quarantine — not as a silent n/a aggregation.
        // Checked before any claim so a throw leaks no owned flights.
        for (const std::string &key : keys) {
            const auto flight = inflight_.find(key);
            if (flight != inflight_.end() && flight->second.stalled)
                throw CellStalled(
                    flight->first,
                    ageMsOf(flight->second.start, Clock::now()),
                    flight->second.budgetMs);
        }
        std::set<std::string> mine;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const ExperimentCell &cell = cells[i];
            if (driver_.cellResolved(*cell.spec, cell.config,
                                     cell.width))
                continue;
            if (mine.count(keys[i]))
                continue;
            if (inflight_.count(keys[i])) {
                ++out.coalesced;
                ++coalescedTotal_;
                waitFor.push_back(i);
                continue;
            }
            support::CancelToken flight_token = flightToken();
            inflight_.emplace(keys[i],
                              Flight{Clock::now(), flight_token});
            mine.insert(keys[i]);
            claimed.push_back(cell);
            claimedKeys.push_back(keys[i]);
            claimedTokens.push_back(std::move(flight_token));
        }
    }

    auto release = [&](const std::vector<std::string> &batch) {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const std::string &key : batch)
            inflight_.erase(key);
        cv_.notify_all();
    };

    if (!claimed.empty()) {
        try {
            driver_.prefetch(claimed, claimedTokens);
        } catch (...) {
            release(claimedKeys);
            throw;
        }
        release(claimedKeys);
        // prefetch() leaves a cancelled cell unresolved (neither
        // cached nor quarantined) and returns normally; surface it
        // here as the typed CellCancelled.  Claims are already
        // released, so siblings and later requests are unaffected.
        for (std::size_t c = 0; c < claimed.size(); ++c) {
            const ExperimentCell &cell = claimed[c];
            if (claimedTokens[c].cancelled() &&
                !driver_.cellResolved(*cell.spec, cell.config,
                                      cell.width))
                throw CellCancelled(claimedKeys[c],
                                    claimedTokens[c].reason());
        }
    }

    // Wait for the cells other requests are computing.  An owner that
    // threw releases its claim with the cell unresolved; the waiter
    // then adopts the claim and computes the cell itself rather than
    // waiting forever.  A claim the watchdog marked stalled fails the
    // waiter immediately with CellStalled — checked *before* the
    // resolved test so a hard-stall quarantine (which makes the cell
    // "resolved") still surfaces as the typed, retryable condition.
    for (const std::size_t i : waitFor) {
        const ExperimentCell &cell = cells[i];
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            auto flight = inflight_.find(keys[i]);
            if (flight != inflight_.end() && flight->second.stalled)
                throw CellStalled(
                    flight->first,
                    ageMsOf(flight->second.start, Clock::now()),
                    flight->second.budgetMs);
            if (driver_.cellResolved(*cell.spec, cell.config,
                                     cell.width))
                break;
            if (flight == inflight_.end()) {
                support::CancelToken adopted = flightToken();
                inflight_.emplace(keys[i],
                                  Flight{Clock::now(), adopted});
                lock.unlock();
                try {
                    driver_.prefetch({cell}, {adopted});
                } catch (...) {
                    release({keys[i]});
                    throw;
                }
                release({keys[i]});
                if (adopted.cancelled() &&
                    !driver_.cellResolved(*cell.spec, cell.config,
                                          cell.width))
                    throw CellCancelled(keys[i], adopted.reason());
                lock.lock();
                continue;
            }
            if (deadline_ms == 0) {
                cv_.wait(lock);
            } else if (cv_.wait_until(lock, deadline) ==
                       std::cv_status::timeout) {
                out.deadlineExpired = true;
                return out;
            }
        }
    }
    return out;
}

WatchdogReport
CellRegistry::watchdogSweep(std::uint64_t soft_budget_ms,
                            std::uint64_t hard_budget_ms,
                            std::uint64_t cancel_budget_ms)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();

    WatchdogReport report;
    bool marked = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &[key, flight] : inflight_) {
            const std::uint64_t age = ageMsOf(flight.start, now);
            if (!flight.stalled && age >= soft_budget_ms) {
                flight.stalled = true;
                flight.budgetMs = soft_budget_ms;
                marked = true;
                report.stalled.push_back({key, age});
            }
            if (flight.stalled && !flight.quarantined &&
                age >= hard_budget_ms) {
                flight.quarantined = true;
                report.hardStalled.push_back({key, age});
            }
            // The last rung: past the cancel budget the flight is
            // not just presumed dead, its worker is taken back.  The
            // owner unwinds with CellCancelled at the next chunk; the
            // provisional quarantine from the hard rung stays (the
            // cell never published), preserving the deterministic n/a
            // aggregation until a later request re-runs it cleanly.
            if (cancel_budget_ms > 0 && !flight.cancelSent &&
                age >= cancel_budget_ms) {
                flight.cancelSent = true;
                flight.token.cancel(
                    "watchdog cancelled stalled flight '" + key +
                    "' after " + std::to_string(age) + " ms");
                report.cancelled.push_back({key, age});
            }
        }
    }
    // Wake every waiter so those parked on a newly-stalled claim can
    // fail with CellStalled instead of waiting out the owner.
    if (marked)
        cv_.notify_all();
    return report;
}

std::uint64_t
CellRegistry::coalescedTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return coalescedTotal_;
}

std::uint64_t
CellRegistry::inflightDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return inflight_.size();
}

std::uint64_t
CellRegistry::stalledCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t n = 0;
    for (const auto &[key, flight] : inflight_)
        if (flight.stalled)
            ++n;
    return n;
}

} // namespace ddsc::serve
