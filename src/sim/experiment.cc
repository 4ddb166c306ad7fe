#include "experiment.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <set>
#include <utility>

#include "support/logging.hh"
#include "support/shutdown.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

namespace ddsc
{

std::uint64_t
envTraceLimit()
{
    const char *value = std::getenv("DDSC_TRACE_LIMIT");
    if (!value)
        return 0;
    // Insist on a plain decimal count: strtoull alone would skip
    // leading whitespace and silently wrap negatives to huge values.
    if (!std::isdigit(static_cast<unsigned char>(value[0]))) {
        warn("ignoring malformed DDSC_TRACE_LIMIT='%s'", value);
        return 0;
    }
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0') {
        warn("ignoring malformed DDSC_TRACE_LIMIT='%s'", value);
        return 0;
    }
    if (errno == ERANGE) {
        warn("DDSC_TRACE_LIMIT='%s' out of range; treating as unlimited",
             value);
        return std::numeric_limits<std::uint64_t>::max();
    }
    return parsed;
}

ExperimentDriver::ExperimentDriver(std::uint64_t trace_limit,
                                   bool test_scale, unsigned jobs)
    : traceLimit_(trace_limit != 0 ? trace_limit : envTraceLimit()),
      testScale_(test_scale),
      jobs_(jobs != 0 ? jobs : support::ThreadPool::defaultJobs())
{
    traceStore_.configure(traceLimit_, testScale_);
}

void
ExperimentDriver::setJobs(unsigned jobs)
{
    jobs_ = jobs != 0 ? jobs : support::ThreadPool::defaultJobs();
    std::lock_guard<std::mutex> lock(poolMutex_);
    pool_.reset();      // next prefetch() rebuilds at the new size
}

support::ThreadPool &
ExperimentDriver::pool()
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    if (!pool_)
        pool_ = std::make_unique<support::ThreadPool>(jobs_);
    return *pool_;
}

const SharedTrace &
ExperimentDriver::trace(const WorkloadSpec &spec)
{
    return traceStore_.get(spec);
}

std::uint64_t
ExperimentDriver::traceDigest(const WorkloadSpec &spec)
{
    return traceStore_.digest(spec);
}

void
ExperimentDriver::adoptTrace(const WorkloadSpec &spec,
                             std::unique_ptr<const SharedTrace> trace)
{
    traceStore_.adopt(spec.name, std::move(trace));
}

void
ExperimentDriver::setTraceDir(const std::string &dir)
{
    traceStore_.setSpillDir(dir);
}

void
ExperimentDriver::setTraceBudgetMb(std::uint64_t mb)
{
    traceStore_.setBudgetBytes(mb * 1024 * 1024);
}

TraceResidencyManager::Counters
ExperimentDriver::traceResidency() const
{
    return traceStore_.residency();
}

std::string
paperCellKey(std::string_view workload, char letter, unsigned width)
{
    return std::string(workload) + '/' + letter + '/' +
           std::to_string(width);
}

const SchedStats *
ExperimentDriver::cached(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end())
        return &it->second;
    const auto bad = quarantine_.find(key);
    if (bad != quarantine_.end())
        throw CellQuarantined(bad->second);
    return nullptr;
}

std::string
cellKey(std::string_view workload, const MachineConfig &config)
{
    const std::string fingerprint = config.fingerprint();
    if (config.name.size() == 1 &&
        MachineConfig::isKnownConfig(config.name[0]) &&
        fingerprint == MachineConfig::paper(config.name[0],
                                            config.issueWidth)
                           .fingerprint()) {
        return paperCellKey(workload, config.name[0], config.issueWidth);
    }
    return std::string(workload) + '/' + config.name + '/' + fingerprint;
}

const SchedStats &
ExperimentDriver::resolveOne(PendingCell cell)
{
    resolve({cell});
    if (const SchedStats *hit = cached(cell.key))
        return *hit;
    // Neither cached nor quarantined: the cell was cancelled or
    // skipped, and the next request that wants it simulates it from
    // scratch.
    throw CellCancelled(cell.key, cell.token.cancelled()
                                      ? cell.token.reason()
                                      : "shutdown requested");
}

const SchedStats &
ExperimentDriver::statsFor(const WorkloadSpec &spec,
                           const MachineConfig &config,
                           const support::CancelToken &token)
{
    std::string key = cellKey(spec.name, config);
    if (const SchedStats *hit = cached(key))
        return *hit;
    return resolveOne({&spec, std::move(key), config, token});
}

const SchedStats &
ExperimentDriver::stats(const WorkloadSpec &spec, char config,
                        unsigned width,
                        const support::CancelToken &token)
{
    std::string key = paperCellKey(spec.name, config, width);
    if (const SchedStats *hit = cached(key))
        return *hit;
    return resolveOne({&spec, std::move(key),
                       MachineConfig::paper(config, width), token});
}

bool
ExperimentDriver::cellResolved(const WorkloadSpec &spec, char config,
                               unsigned width) const
{
    const std::string key = paperCellKey(spec.name, config, width);
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.find(key) != cache_.end() ||
           quarantine_.find(key) != quarantine_.end();
}

bool
ExperimentDriver::cellDurable(const WorkloadSpec &spec, char config,
                              unsigned width) const
{
    // Key-only store probe: staleness (fingerprint/digest drift) is
    // caught at real lookup time; here a false positive just admits
    // one request that then simulates — fine for a brownout check.
    return cellResolved(spec, config, width) ||
           (store_ != nullptr &&
            store_->contains(paperCellKey(spec.name, config, width)));
}

std::vector<ExperimentCell>
ExperimentDriver::cellsFor(const std::vector<const WorkloadSpec *> &set,
                           const std::string &configs,
                           const std::vector<unsigned> &widths)
{
    std::vector<ExperimentCell> cells;
    cells.reserve(set.size() * configs.size() * widths.size());
    for (const WorkloadSpec *spec : set)
        for (const char config : configs)
            for (const unsigned width : widths)
                cells.push_back({spec, config, width});
    return cells;
}

void
ExperimentDriver::prefetch(const std::vector<ExperimentCell> &cells)
{
    prefetch(cells, {});
}

void
ExperimentDriver::prefetch(const std::vector<ExperimentCell> &cells,
                           const std::vector<support::CancelToken> &tokens)
{
    ddsc_assert(tokens.empty() || tokens.size() == cells.size(),
                "prefetch: %zu cells but %zu cancel tokens",
                cells.size(), tokens.size());
    std::vector<PendingCell> pending;
    pending.reserve(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const ExperimentCell &cell = cells[c];
        ddsc_assert(cell.spec != nullptr, "null workload in cell");
        pending.push_back(
            {cell.spec, paperCellKey(cell.spec->name, cell.config,
                                     cell.width),
             MachineConfig::paper(cell.config, cell.width),
             tokens.empty() ? support::CancelToken() : tokens[c]});
    }
    resolve(pending);
}

void
ExperimentDriver::prefetch(const std::vector<MachineCell> &cells)
{
    std::vector<PendingCell> pending;
    pending.reserve(cells.size());
    for (const MachineCell &cell : cells) {
        ddsc_assert(cell.spec != nullptr, "null workload in cell");
        pending.push_back({cell.spec, cellKey(cell.spec->name, cell.config),
                           cell.config, {}});
    }
    resolve(pending);
}

void
ExperimentDriver::resolve(const std::vector<PendingCell> &cells)
{
    struct Task
    {
        const PendingCell *cell;
        const SharedTrace *trace;
        std::string fingerprint;    ///< for the store only
        std::uint64_t digest;       ///< for the store only
    };

    // Enumerate the missing cells and materialize their traces from
    // this thread (trace generation runs the VM and is kept serial;
    // it is shared across the 25 cells of each workload anyway).
    // Cells found intact in the attached persistent store are copied
    // into the in-memory cache here and never reach the workers —
    // this is what --resume resumes.  Quarantined cells are skipped
    // too: a known-poisoned simulation is not retried every sweep.
    // The fingerprint and digest key the store, so they are built
    // only when one is attached.
    std::vector<Task> missing;
    std::set<std::string> queued;
    for (const PendingCell &cell : cells) {
        if (!queued.insert(cell.key).second)
            continue;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (cache_.find(cell.key) != cache_.end())
                continue;
            if (quarantine_.find(cell.key) != quarantine_.end())
                continue;
        }
        const SharedTrace &src = trace(*cell.spec);
        std::string fingerprint =
            store_ ? cell.config.fingerprint() : std::string();
        const std::uint64_t digest = store_ ? traceDigest(*cell.spec) : 0;
        if (store_) {
            const SchedStats *stored =
                store_->lookup(cell.key, fingerprint, digest);
            if (stored) {
                // A concurrent prefetch may have cached this cell
                // between our cache check and here; only the emplace
                // that actually lands counts as a hit, so storeHits()
                // never exceeds the number of unique cells loaded.
                std::lock_guard<std::mutex> lock(mutex_);
                if (cache_.emplace(cell.key, *stored).second)
                    ++storeHits_;
                continue;
            }
        }
        missing.push_back({&cell, &src, std::move(fingerprint), digest});
    }
    if (missing.empty())
        return;

    // Group the missing cells by (workload, front-end fingerprint):
    // each group is one streaming front-end pass feeding all its
    // back-end window engines, so the paper matrix costs two trace
    // decodes per workload instead of 25.  Groups are the pool tasks
    // (sibling cells of a group share one pass by construction), and
    // runBatchedGroupWithRetry() contains worker exceptions: a
    // throwing cell is retried alone, then reported failed, and never
    // takes its siblings or the sweep down with it.  Each task writes
    // only its own cells' result slots, so the computation is
    // race-free by construction; the shared cache is filled
    // afterwards, under the mutex, in enumeration order.  Waiting on
    // this batch's own futures (rather than pool.wait()) is what lets
    // several prefetch() calls share the workers: each caller blocks
    // only until *its* cells are done.
    std::vector<std::vector<std::size_t>> groups;
    {
        std::map<std::pair<const SharedTrace *, std::string>,
                 std::size_t> index;
        for (std::size_t i = 0; i < missing.size(); ++i) {
            // setBatched(false) keys every cell apart: one-cell groups.
            const std::string fp = batched_
                ? missing[i].cell->config.frontEndFingerprint()
                : std::to_string(i);
            const auto [it, inserted] = index.try_emplace(
                {missing[i].trace, fp}, groups.size());
            if (inserted)
                groups.emplace_back();
            groups[it->second].push_back(i);
        }
    }
    std::vector<BatchedCellResult> results(missing.size());
    // Cells an interruptible driver never started are published like
    // cancelled ones — neither cached, nor quarantined, nor appended
    // to the store — so the next request re-runs them cleanly.
    std::vector<char> skipped(missing.size(), 0);
    support::ThreadPool &workers = pool();
    std::vector<std::future<void>> batch;
    batch.reserve(groups.size());
    for (const std::vector<std::size_t> &group : groups) {
        batch.push_back(workers.submit([&]() {
            // An interruptible driver (the CLI tools after Ctrl-C)
            // abandons cells it has not started; whatever already
            // finished is still published and flushed below.
            if (interruptible_ && support::shutdownRequested()) {
                for (const std::size_t i : group)
                    skipped[i] = 1;
                return;
            }
            std::vector<MachineConfig> configs;
            std::vector<std::string> keys;
            std::vector<support::CancelToken> group_tokens;
            configs.reserve(group.size());
            keys.reserve(group.size());
            group_tokens.reserve(group.size());
            for (const std::size_t i : group) {
                configs.push_back(missing[i].cell->config);
                keys.push_back(missing[i].cell->key);
                group_tokens.push_back(missing[i].cell->token);
            }
            // LRU-touch at execution (not enumeration) time, so the
            // residency budget tracks the order traces are actually
            // swept in.
            traceStore_.touch(*missing[group[0]].trace);
            BatchedGroupResult out = runBatchedGroupWithRetry(
                *missing[group[0]].trace, configs, keys, kBatchedChunk,
                group_tokens);
            for (std::size_t k = 0; k < group.size(); ++k)
                results[group[k]] = std::move(out.cells[k]);
        }));
    }
    for (std::future<void> &done : batch)
        done.get();

    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < missing.size(); ++i) {
        const std::string &key = missing[i].cell->key;
        if (skipped[i] || results[i].cancelled)
            continue;   // neither cached nor quarantined: never ran,
                        // or its partial state was discarded; the
                        // cell re-runs cleanly on the next request
        if (!results[i].ok) {
            quarantine_.emplace(
                key, CellFailure{key, results[i].error, kCellAttempts});
            continue;
        }
        // Persist before publishing, in enumeration order: a kill
        // between cells loses at most the one record being written,
        // and the store contents are deterministic for a given sweep.
        if (store_) {
            store_->append(key, missing[i].fingerprint,
                           missing[i].digest, results[i].stats);
        }
        ++simulated_;
        simulatedNanos_ += results[i].stats.wallNanos;
        // The finished result clears any provisional watchdog
        // quarantine applied while this cell was stuck in flight.
        quarantine_.erase(key);
        cache_.emplace(key, std::move(results[i].stats));
    }
}

std::size_t
ExperimentDriver::simulatedCells() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return simulated_;
}

std::size_t
ExperimentDriver::storeHits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return storeHits_;
}

std::size_t
ExperimentDriver::quarantineCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantine_.size();
}

void
ExperimentDriver::quarantineCell(const std::string &key,
                                 const std::string &message)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (cache_.find(key) != cache_.end())
        return;     // already finished: nothing to poison
    quarantine_.emplace(key, CellFailure{key, message, 0});
}

std::uint64_t
ExperimentDriver::maxCellWallNanos() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t max = 0;
    for (const auto &[key, stats] : cache_)
        if (stats.wallNanos > max)
            max = stats.wallNanos;
    return max;
}

std::vector<CellFailure>
ExperimentDriver::quarantineReport() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<CellFailure> report;
    report.reserve(quarantine_.size());
    for (const auto &[key, failure] : quarantine_)
        report.push_back(failure);
    return report;
}

double
ExperimentDriver::cachedCellSeconds() const
{
    // Callers may poll progress while a prefetch() is publishing on
    // another thread; reading unlocked would be a data race.
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<double>(simulatedNanos_) * 1e-9;
}

std::size_t
ExperimentDriver::cachedCells() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

// The aggregation math lives in these free functions so the local
// driver and the fleet router reduce cells through the *same* code:
// the driver binds stats() below, the router binds a lookup over
// shard-returned stats, and both produce identical doubles (hence
// identical rendered bytes) by construction.

double
hmeanIpcOver(const std::vector<const WorkloadSpec *> &set, char config,
             unsigned width, const CellStatsFn &stats)
{
    std::vector<double> ipcs;
    ipcs.reserve(set.size());
    for (const WorkloadSpec *spec : set)
        ipcs.push_back(stats(*spec, config, width).ipc());
    return harmonicMean(ipcs);
}

double
hmeanSpeedupOver(const std::vector<const WorkloadSpec *> &set,
                 char config, unsigned width, const CellStatsFn &stats)
{
    std::vector<double> speedups;
    speedups.reserve(set.size());
    for (const WorkloadSpec *spec : set) {
        const double base = stats(*spec, 'A', width).ipc();
        const double that = stats(*spec, config, width).ipc();
        ddsc_assert(base > 0.0, "zero base IPC for %s",
                    spec->name.c_str());
        speedups.push_back(that / base);
    }
    return harmonicMean(speedups);
}

CollapseStats
mergedCollapseOver(const std::vector<const WorkloadSpec *> &set,
                   char config, unsigned width,
                   const CellStatsFn &stats)
{
    CollapseStats merged;
    for (const WorkloadSpec *spec : set)
        merged.merge(stats(*spec, config, width).collapse);
    return merged;
}

double
pctCollapsedOver(const std::vector<const WorkloadSpec *> &set,
                 char config, unsigned width, const CellStatsFn &stats)
{
    std::uint64_t collapsed = 0;
    std::uint64_t total = 0;
    for (const WorkloadSpec *spec : set) {
        const SchedStats &s = stats(*spec, config, width);
        collapsed += s.collapse.collapsedInstructions();
        total += s.instructions;
    }
    return percent(static_cast<double>(collapsed),
                   static_cast<double>(total));
}

double
meanLoadClassPctOver(const std::vector<const WorkloadSpec *> &set,
                     char config, unsigned width, LoadClass cls,
                     const CellStatsFn &stats)
{
    std::vector<double> pcts;
    pcts.reserve(set.size());
    for (const WorkloadSpec *spec : set)
        pcts.push_back(stats(*spec, config, width).loadClassPct(cls));
    return arithmeticMean(pcts);
}

namespace
{

/** The driver's own aggregations prefetch their cell set, then reduce
 *  it through stats() hits. */
CellStatsFn
statsOf(ExperimentDriver &driver)
{
    return [&driver](const WorkloadSpec &s, char c,
                     unsigned w) -> const SchedStats & {
        return driver.stats(s, c, w);
    };
}

} // anonymous namespace

double
ExperimentDriver::hmeanIpc(const std::vector<const WorkloadSpec *> &set,
                           char config, unsigned width)
{
    prefetch(cellsFor(set, std::string(1, config), {width}));
    return hmeanIpcOver(set, config, width, statsOf(*this));
}

double
ExperimentDriver::hmeanSpeedup(
    const std::vector<const WorkloadSpec *> &set, char config,
    unsigned width)
{
    prefetch(cellsFor(set, std::string("A") + config, {width}));
    return hmeanSpeedupOver(set, config, width, statsOf(*this));
}

CollapseStats
ExperimentDriver::mergedCollapse(
    const std::vector<const WorkloadSpec *> &set, char config,
    unsigned width)
{
    prefetch(cellsFor(set, std::string(1, config), {width}));
    return mergedCollapseOver(set, config, width, statsOf(*this));
}

double
ExperimentDriver::pctCollapsed(
    const std::vector<const WorkloadSpec *> &set, char config,
    unsigned width)
{
    prefetch(cellsFor(set, std::string(1, config), {width}));
    return pctCollapsedOver(set, config, width, statsOf(*this));
}

double
ExperimentDriver::meanLoadClassPct(
    const std::vector<const WorkloadSpec *> &set, char config,
    unsigned width, LoadClass cls)
{
    prefetch(cellsFor(set, std::string(1, config), {width}));
    return meanLoadClassPctOver(set, config, width, cls, statsOf(*this));
}

std::vector<const WorkloadSpec *>
ExperimentDriver::everything()
{
    std::vector<const WorkloadSpec *> set;
    for (const WorkloadSpec &spec : allWorkloads())
        set.push_back(&spec);
    return set;
}

} // namespace ddsc
