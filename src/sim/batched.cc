#include "batched.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/scheduler.hh"
#include "support/fault.hh"
#include "support/logging.hh"

namespace ddsc
{

namespace
{

std::uint64_t
nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * The injected "cell-stall": hold the cell in flight for
 * $DDSC_FAULT_STALL_MS (default 400 ms), so the deadline,
 * single-flight, and watchdog tests can widen their race windows
 * deterministically.  The sleep is sliced and polls @p token: the
 * watchdog's active cancel exists to reclaim exactly such a stuck
 * flight, so a firing token throws CancelledError within 20 ms.
 */
void
injectedStall(const support::CancelToken &token)
{
    static const unsigned stall_ms = [] {
        const char *v = std::getenv("DDSC_FAULT_STALL_MS");
        if (v && std::isdigit(static_cast<unsigned char>(v[0])))
            return static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        return 400u;
    }();
    for (unsigned slept = 0; slept < stall_ms; slept += 20) {
        if (token.valid())
            token.throwIfCancelled();
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min(20u, stall_ms - slept)));
    }
}

} // anonymous namespace

BatchedGroupResult
runBatchedGroup(const SharedTrace &trace,
                const std::vector<MachineConfig> &configs,
                const std::vector<std::string> &keys,
                std::size_t chunk,
                const std::vector<support::CancelToken> &tokens)
{
    ddsc_assert(configs.size() == keys.size(),
                "batched group: %zu configs but %zu keys",
                configs.size(), keys.size());
    ddsc_assert(tokens.empty() || tokens.size() == configs.size(),
                "batched group: %zu configs but %zu cancel tokens",
                configs.size(), tokens.size());
    ddsc_assert(!configs.empty(), "batched group: no cells");
    ddsc_assert(chunk > 0, "batched group: zero chunk");
    const std::string fe_fp = configs.front().frontEndFingerprint();
    for (const MachineConfig &config : configs) {
        ddsc_assert(config.frontEndFingerprint() == fe_fp,
                    "batched group mixes front-end fingerprints "
                    "('%s' vs '%s')", fe_fp.c_str(),
                    config.frontEndFingerprint().c_str());
        ddsc_assert(!config.naiveEngine,
                    "batched group cannot run the naive engine");
    }

    BatchedGroupResult out;
    out.cells.resize(configs.size());

    // One back-end per cell.  `alive` drops a cell the moment its feed
    // throws; its siblings keep consuming the same batches untouched.
    std::vector<std::unique_ptr<LimitScheduler>> scheds;
    std::vector<char> alive(configs.size(), 1);
    std::vector<std::uint64_t> beNanos(configs.size(), 0);
    scheds.reserve(configs.size());
    for (const MachineConfig &config : configs)
        scheds.push_back(std::make_unique<LimitScheduler>(config));
    for (std::size_t i = 0; i < scheds.size(); ++i) {
        if (!tokens.empty())
            scheds[i]->setCancel(tokens[i]);
        scheds[i]->beginBatched();
    }

    SpecFrontEnd fe(configs.front());
    // The fingerprint does not cover collapsing (it is back-end-only
    // state), so a group can mix collapsing and plain cells; emit the
    // collapse-detection columns whenever any consumer needs them.
    bool any_collapsing = false;
    for (const MachineConfig &config : configs)
        any_collapsing = any_collapsing || config.collapsing;
    fe.setCollapseColumns(any_collapsing);
    FrontEndBatch batch;
    const std::unique_ptr<TraceSource> view = trace.cursor();

    const auto failCell = [&](std::size_t i, const char *what) {
        alive[i] = 0;
        scheds[i].reset();
        out.cells[i].ok = false;
        out.cells[i].error = what;
    };

    // A cancelled cell leaves the same way a failed one does — its
    // partial back-end state dies with the scheduler — but is flagged
    // so the caller neither retries nor quarantines it.
    const auto cancelCell = [&](std::size_t i, const std::string &why) {
        failCell(i, why.empty() ? "cancelled" : why.c_str());
        out.cells[i].cancelled = true;
    };

    const auto feedCell = [&](std::size_t i, bool finish) {
        if (!alive[i])
            return;
        // The chunk boundary is the cancellation latency bound: a
        // fired token stops this cell here, before another chunk of
        // back-end work, while the siblings keep consuming the pass.
        if (!tokens.empty() && tokens[i].valid() &&
            tokens[i].cancelled()) {
            cancelCell(i, tokens[i].reason());
            return;
        }
        const std::uint64_t start = nowNanos();
        try {
            // The injection hooks are checked per feed, so persistent
            // ("cell-throw:<tag>") faults fire mid-batch: the failure
            // lands while sibling back-ends are part-way through the
            // very same front-end pass.
            if (support::faultShouldFire("cell-throw", keys[i].c_str()))
                throw std::runtime_error(
                    "injected fault: cell-throw at '" + keys[i] + "'");
            if (support::faultShouldFire("cell-stall", keys[i].c_str()))
                injectedStall(tokens.empty() ? support::CancelToken()
                                             : tokens[i]);
            if (finish) {
                out.cells[i].stats = scheds[i]->finishBatched();
                out.cells[i].ok = true;
            } else {
                scheds[i]->feedBatched(batch);
            }
        } catch (const support::CancelledError &e) {
            // The back-end's own intra-chunk poll fired.
            cancelCell(i, e.what());
        } catch (const std::exception &e) {
            failCell(i, e.what());
        } catch (...) {
            failCell(i, "unknown exception");
        }
        beNanos[i] += nowNanos() - start;
    };

    const auto anyAlive = [&]() {
        for (const char a : alive)
            if (a)
                return true;
        return false;
    };

    std::uint64_t fe_nanos = 0;
    for (;;) {
        // Once every consumer is gone (cancelled or failed) the
        // front-end pass has no one to feed: stop decoding too,
        // instead of burning the worker on annotations nobody reads.
        if (!anyAlive())
            break;
        const std::uint64_t fill_start = nowNanos();
        const std::size_t filled = fe.fill(*view, batch, chunk);
        fe_nanos += nowNanos() - fill_start;
        if (filled == 0)
            break;
        for (std::size_t i = 0; i < configs.size(); ++i)
            feedCell(i, false);
    }
    for (std::size_t i = 0; i < configs.size(); ++i)
        feedCell(i, true);

    out.frontEndNanos = fe_nanos;
    out.trainCounts = fe.trainCounts();
    // Each cell's wall time is its own back-end work plus an equal
    // share of the single front-end pass: summing per-cell wallNanos
    // over a sweep still accounts every nanosecond exactly once.
    const std::uint64_t fe_share = fe_nanos / configs.size();
    for (std::size_t i = 0; i < configs.size(); ++i)
        if (out.cells[i].ok)
            out.cells[i].stats.wallNanos = beNanos[i] + fe_share;
    return out;
}

BatchedGroupResult
runBatchedGroupWithRetry(const SharedTrace &trace,
                         const std::vector<MachineConfig> &configs,
                         const std::vector<std::string> &keys,
                         std::size_t chunk,
                         const std::vector<support::CancelToken> &tokens)
{
    BatchedGroupResult out =
        runBatchedGroup(trace, configs, keys, chunk, tokens);
    for (std::size_t i = 0; i < out.cells.size(); ++i) {
        BatchedCellResult &cell = out.cells[i];
        unsigned attempt = 1;
        while (!cell.ok && !cell.cancelled) {
            warn("cell '%s' failed (attempt %u of %u): %s",
                 keys[i].c_str(), attempt, kCellAttempts,
                 cell.error.c_str());
            if (++attempt > kCellAttempts)
                break;
            cell = runBatchedGroup(
                       trace, {configs[i]}, {keys[i]}, chunk,
                       {tokens.empty() ? support::CancelToken()
                                       : tokens[i]})
                       .cells.front();
            if (cell.ok) {
                warn("cell '%s' recovered on attempt %u of %u",
                     keys[i].c_str(), attempt, kCellAttempts);
            }
        }
    }
    return out;
}

} // namespace ddsc
