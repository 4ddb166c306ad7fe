#include "router.hh"

#include <map>
#include <thread>

#include "core/config.hh"
#include "sim/matrix_query.hh"
#include "support/logging.hh"
#include "support/portfile.hh"

namespace ddsc::serve
{

namespace
{

/** Per-shard health/info probes answer from memory; a shard that
 *  cannot do so within this budget counts as restarting. */
constexpr int kProbeTimeoutMs = 2000;

/** ServerError::what() leads with "code: "; strip it so re-wrapping
 *  the message in a new typed error does not stack prefixes. */
std::string
stripCodePrefix(net::ErrCode code, const std::string &what)
{
    const std::string prefix = std::string(errCodeName(code)) + ": ";
    if (what.rfind(prefix, 0) == 0)
        return what.substr(prefix.size());
    return what;
}

} // anonymous namespace

unsigned
shardForCell(char config, unsigned width, std::size_t shard_count)
{
    ddsc_assert(shard_count > 0, "empty fleet");
    // The paper machine's fingerprint decides placement, so a shard's
    // store holds exactly its own columns.  FNV-1a's xor-multiply
    // step, but not FNV-1a's seed: see router.hh before touching it.
    const std::string fp =
        MachineConfig::paper(config, width).fingerprint();
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : fp) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return static_cast<unsigned>(h % shard_count);
}

Router::Router(const RouterOptions &opts, FleetState &fleet)
    : opts_(opts),
      fleet_(fleet),
      loop_(*this, "router", opts.port, opts.backlog, opts.maxSessions)
{
    ddsc_assert(fleet_.count() > 0, "router needs at least one shard");
}

bool
Router::handleRequest(Connection &conn, const net::Frame &frame)
{
    if (frame.type != net::MsgType::MatrixRequest)
        return false;
    // Budget accounting starts the moment the frame is in hand:
    // everything from here on — decode, validation, fan-out — spends
    // the client's end-to-end budget.
    const std::chrono::steady_clock::time_point arrival =
        std::chrono::steady_clock::now();
    MatrixQuery query;
    support::wire::Reader reader(frame.payload);
    if (!query.decode(reader))
        return conn.sendError(net::ErrCode::BadRequest,
                              "malformed MatrixRequest payload");
    std::string why;
    if (!query.validate(&why))
        return conn.sendError(net::ErrCode::BadRequest, why);
    if (draining())
        return conn.sendError(net::ErrCode::Draining,
                              "router is draining; retry elsewhere");

    MatrixResult result;
    try {
        result = routeMatrix(query, arrival);
    } catch (const net::ServerError &e) {
        // Deadline/Stalled/Cancelled propagated from a shard (or the
        // pre-fan-out budget check), already typed.
        return conn.sendError(e.code,
                              stripCodePrefix(e.code, e.what()));
    } catch (const std::exception &e) {
        return conn.sendError(net::ErrCode::Internal, e.what());
    }

    std::string payload;
    result.encode(payload);
    if (!conn.reply(net::MsgType::MatrixReply, payload))
        return false;
    requestsServed_.fetch_add(1);
    return true;
}

MatrixResult
Router::routeMatrix(const MatrixQuery &query,
                    std::chrono::steady_clock::time_point arrival)
    const
{
    const std::size_t K = fleet_.count();
    const std::vector<ExperimentCell> cells = query.cells();

    // v5 budget decrement: forward what is *left* of the end-to-end
    // budget, not the original figure — each hop spends from the same
    // purse.  A request already out of budget is answered with the
    // typed Deadline here, before any shard burns work on it; a still
    // viable one is floored so routing overhead cannot starve it.
    std::uint64_t forwarded = 0;
    if (query.deadlineMs > 0) {
        const std::uint64_t elapsed = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - arrival)
                .count());
        if (elapsed >= query.deadlineMs)
            throw net::ServerError(
                net::ErrCode::Deadline,
                "budget of " + std::to_string(query.deadlineMs) +
                    " ms was exhausted at the router before fan-out");
        forwarded = std::max(query.deadlineMs - elapsed, kShardFloorMs);
    }

    std::vector<net::CellsBatch> batches(K);
    for (const ExperimentCell &cell : cells) {
        net::CellRef ref;
        ref.workload = cell.spec->name;
        ref.config = cell.config;
        ref.width = cell.width;
        batches[shardForCell(cell.config, cell.width, K)]
            .cells.push_back(std::move(ref));
    }

    // Fan out: one thread per owning shard, each with its own client
    // so a retry against one shard's next generation never blocks the
    // others.  A shard-level failure degrades to per-cell typed
    // failures below instead of failing the whole request.
    struct ShardOutcome
    {
        bool hasReply = false;
        net::CellsReplyMsg reply;
        bool propagate = false;     ///< typed Deadline/Stalled
        net::ErrCode code = net::ErrCode::Internal;
        std::string error;
    };
    std::vector<ShardOutcome> outcomes(K);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < K; ++i) {
        if (batches[i].cells.empty())
            continue;
        batches[i].deadlineMs = forwarded;
        threads.emplace_back([this, i, &batches, &outcomes]() {
            ShardOutcome &out = outcomes[i];
            const ShardSlot &slot = *fleet_.shards[i];
            if (slot.broken.load()) {
                out.error = "shard " + std::to_string(i) +
                            " is broken (restart limit hit)";
                return;
            }
            try {
                net::Client client(
                    [&slot]() {
                        return support::readPortFile(slot.portFile);
                    },
                    opts_.shardTimeoutMs, opts_.retry);
                out.reply = client.cells(batches[i]);
                out.hasReply = true;
            } catch (const net::ServerError &e) {
                if (e.code == net::ErrCode::Deadline ||
                    e.code == net::ErrCode::Stalled ||
                    e.code == net::ErrCode::Cancelled) {
                    // Same retry semantics as a single server: the
                    // client decides whether to wait longer (or, for
                    // Cancelled, to come back with a bigger budget).
                    out.propagate = true;
                    out.code = e.code;
                    out.error = stripCodePrefix(e.code, e.what());
                } else {
                    out.error = "shard " + std::to_string(i) + ": " +
                                e.what();
                }
            } catch (const std::exception &e) {
                out.error = "shard " + std::to_string(i) +
                            " unreachable: " + e.what();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (const ShardOutcome &out : outcomes) {
        if (out.propagate)
            throw net::ServerError(out.code, out.error);
    }

    // Index the shard answers by cell key; anything a shard failed
    // (or never answered) becomes a typed per-cell failure that
    // aggregates as n/a — the quarantine semantics, one level up.
    // The decoded stats are per-cell summaries: exactly the fields
    // aggregateMatrixResult reads.
    std::map<std::string, SchedStats> stats;
    std::map<std::string, CellFailure> failed;
    for (std::size_t i = 0; i < K; ++i) {
        ShardOutcome &out = outcomes[i];
        if (batches[i].cells.empty())
            continue;
        if (out.hasReply) {
            for (net::CellOutcome &cell : out.reply.cells) {
                const std::string key = paperCellKey(
                    cell.cell.workload, cell.cell.config, cell.cell.width);
                if (cell.ok)
                    stats.emplace(key, std::move(cell.stats));
                else
                    failed.emplace(key, std::move(cell.failure));
            }
        } else {
            for (const net::CellRef &ref : batches[i].cells) {
                const std::string key =
                    paperCellKey(ref.workload, ref.config, ref.width);
                failed.emplace(key,
                               CellFailure{key, out.error, 0});
            }
        }
    }

    MatrixResult result = aggregateMatrixResult(
        query,
        [&stats, &failed](const WorkloadSpec &spec, char config,
                          unsigned width) -> const SchedStats & {
            const std::string key = paperCellKey(spec.name, config, width);
            const auto hit = stats.find(key);
            if (hit != stats.end())
                return hit->second;
            const auto bad = failed.find(key);
            if (bad != failed.end())
                throw CellQuarantined(bad->second);
            // A shard reply that omitted a requested cell is a shard
            // bug; fail the cell, not the sweep.
            throw CellQuarantined(
                CellFailure{key, "missing from shard reply", 0});
        });
    for (const ShardOutcome &out : outcomes) {
        if (!out.hasReply)
            continue;
        result.summary.simulated += out.reply.simulated;
        result.summary.storeHits += out.reply.storeHits;
        result.summary.coalesced += out.reply.coalesced;
    }
    return result;
}

net::HealthInfo
Router::healthSnapshot() const
{
    net::HealthInfo health;
    health.uptimeMs = loop_.uptimeMs();
    health.liveSessions = loop_.activeSessions();
    for (std::size_t i = 0; i < fleet_.count(); ++i) {
        const ShardSlot &slot = *fleet_.shards[i];
        net::ShardHealth shard;
        shard.index = static_cast<std::uint32_t>(i);
        shard.generation = slot.generation.load();
        shard.restarts = slot.restarts.load();
        if (slot.broken.load()) {
            shard.state = 2;
        } else {
            const std::uint16_t port =
                support::readPortFile(slot.portFile);
            shard.state = 1;    // until the probe answers
            if (port != 0) {
                try {
                    net::Client probe([port]() { return port; },
                                      kProbeTimeoutMs, {});
                    const net::HealthInfo h = probe.health();
                    shard.state = 0;
                    shard.port = port;
                    shard.stalledCells = h.stalledCells;
                    shard.quarantinedCells = h.quarantinedCells;
                    shard.storeRecords = h.storeRecords;
                    health.quarantinedCells += h.quarantinedCells;
                    health.registryDepth += h.registryDepth;
                    health.stalledCells += h.stalledCells;
                    health.storeRecords += h.storeRecords;
                    health.traceMappedBytes += h.traceMappedBytes;
                    health.traceResidentBytes += h.traceResidentBytes;
                    health.traceBudgetBytes += h.traceBudgetBytes;
                    health.traceEvictions += h.traceEvictions;
                } catch (const std::exception &) {
                    // Between generations (or mid-crash): restarting.
                }
            }
        }
        health.shards.push_back(shard);
    }
    return health;
}

net::ServerInfo
Router::infoSnapshot() const
{
    net::ServerInfo info;
    info.versions = net::Hello::current();
    info.requestsServed = requestsServed_.load();
    info.activeSessions = loop_.activeSessions();
    info.hasStore = opts_.storeRoot.empty() ? 0 : 1;
    info.storePath = opts_.storeRoot;
    for (std::size_t i = 0; i < fleet_.count(); ++i) {
        const ShardSlot &slot = *fleet_.shards[i];
        if (slot.broken.load())
            continue;
        const std::uint16_t port = support::readPortFile(slot.portFile);
        if (port == 0)
            continue;
        try {
            net::Client probe([port]() { return port; },
                              kProbeTimeoutMs, {});
            const net::ServerInfo shard = probe.info();
            info.jobs += shard.jobs;
            info.cachedCells += shard.cachedCells;
            info.simulated += shard.simulated;
            info.storeHits += shard.storeHits;
            info.coalesced += shard.coalesced;
        } catch (const std::exception &) {
        }
    }
    return info;
}

} // namespace ddsc::serve
