/**
 * @file
 * Per-layer probes for the traced runs.  Each probe times calls into
 * one module's public functions on fixed inputs, so the numbers are
 * the same kind of measurement on every workload; the workload's own
 * traced flow (workloads.hh) adds the spans and the reconciliation.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common.hh"
#include "serve/server.hh"
#include "sim/matrix_query.hh"

namespace perfbench
{

/** The nine paper-figure queries: set all/pc/npc x metric
 *  ipc/speedup/collapsed over configs A-E at the paper widths. */
std::vector<ddsc::MatrixQuery> paperQueries();

/** "li/D/16"-style key of one cell. */
std::string cellKey(const ddsc::ExperimentCell &cell);

/**
 * An in-process ddsc-served (serve::Server on its own thread) at
 * kCachedLimit, warmed with the nine paper queries.  The probes use
 * its driver as the warm driver and its port for transport timings.
 */
class WarmServer
{
  public:
    WarmServer();
    ~WarmServer();
    WarmServer(const WarmServer &) = delete;
    WarmServer &operator=(const WarmServer &) = delete;

    ddsc::serve::Server &server() { return *server_; }
    std::uint16_t port() const { return server_->port(); }
    /** Wall seconds the warm-up queries took. */
    double warmSeconds() const { return warmSeconds_; }

  private:
    std::unique_ptr<ddsc::serve::Server> server_;
    std::thread thread_;
    double warmSeconds_ = 0.0;
};

/** Per-shard cell batches the router would send for @p query. */
std::vector<std::vector<ddsc::net::CellRef>>
routerBatches(const ddsc::MatrixQuery &query, std::size_t shards);

/**
 * Run every layer probe and add its metrics to @p out.  @p shard_ports
 * are the servers the router probe sends its per-shard batches to
 * (the fleet's shards on fleet_cached; @p warm twice otherwise).
 */
void probeLayers(const Options &opts, WarmServer &warm,
                 const std::vector<std::uint16_t> &shard_ports,
                 RunResult &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
