#include "session.hh"

#include <chrono>

#include "serve/server.hh"
#include "sim/matrix_query.hh"
#include "support/cancel.hh"
#include "support/fault.hh"

namespace ddsc::serve
{

namespace
{

/** A connection that won't even say Hello within this budget is
 *  holding a session slot hostage; drop it. */
constexpr int kHandshakeTimeoutMs = 30000;

/** Releases an admitted request on every exit path, feeding its
 *  observed service time back into the admission latency EWMA. */
struct AdmitGuard
{
    AdmissionController &adm;
    std::uint64_t connId;
    const AdmissionDecision &d;
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();

    ~AdmitGuard()
    {
        using std::chrono::duration_cast;
        using std::chrono::milliseconds;
        adm.release(connId, d,
                    static_cast<std::uint64_t>(
                        duration_cast<milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count()));
    }
};

/** The per-request cancel token: the client's deadline becomes a live
 *  deadline token; with no deadline the token still exists so the
 *  watchdog's cancel rung can reach the request's claimed flights. */
support::CancelToken
requestToken(std::uint64_t deadline_ms)
{
    return deadline_ms > 0
               ? support::CancelToken::withDeadline(deadline_ms)
               : support::CancelToken::make();
}

} // anonymous namespace

Session::Session(Server &server, net::Fd fd, std::uint64_t id)
    : server_(server), fd_(std::move(fd)), id_(id)
{
}

void
Session::run()
{
    serveLoop();
    // The Session object (and its fd) outlives this thread: the server
    // reaps it later, from the accept thread.  Send FIN now so the
    // peer sees EOF the moment the session ends, not at the reap.
    fd_.shutdownBoth();
}

void
Session::serveLoop()
{
    if (!handshake())
        return;
    for (;;) {
        net::Frame frame;
        const net::ReadStatus status =
            net::readFrame(fd_.get(), frame, -1);
        if (status != net::ReadStatus::Ok)
            return;     // EOF (hang-up or drain), torn, or garbage
        switch (frame.type) {
          case net::MsgType::Ping:
            if (!reply(net::MsgType::Pong, {}))
                return;
            break;
          case net::MsgType::InfoRequest: {
            std::string payload;
            server_.infoSnapshot().encode(payload);
            if (!reply(net::MsgType::InfoReply, payload))
                return;
            break;
          }
          case net::MsgType::HealthRequest: {
            std::string payload;
            server_.healthSnapshot().encode(payload);
            if (!reply(net::MsgType::HealthReply, payload))
                return;
            break;
          }
          case net::MsgType::MatrixRequest:
            if (!handleMatrix(frame))
                return;
            break;
          case net::MsgType::CellsRequest:
            if (!handleCells(frame))
                return;
            break;
          default:
            // A client sending server-side verbs is confused; drop it.
            return;
        }
    }
}

bool
Session::handshake()
{
    net::Frame frame;
    if (net::readFrame(fd_.get(), frame, kHandshakeTimeoutMs) !=
            net::ReadStatus::Ok ||
        frame.type != net::MsgType::Hello)
        return false;
    net::Hello theirs;
    support::wire::Reader reader(frame.payload);
    if (!theirs.decode(reader)) {
        sendError(net::ErrCode::BadRequest, "malformed Hello");
        return false;
    }
    const net::Hello ours = net::Hello::current();
    if (!ours.compatible(theirs)) {
        sendError(net::ErrCode::VersionMismatch,
                  "client speaks protocol " +
                      std::to_string(theirs.protocol) + "/trace v" +
                      std::to_string(theirs.traceFormat) + "/store v" +
                      std::to_string(theirs.storeSchema) +
                      "/fingerprint v" +
                      std::to_string(theirs.fingerprintSchema) +
                      "; server has " + std::to_string(ours.protocol) +
                      "/" + std::to_string(ours.traceFormat) + "/" +
                      std::to_string(ours.storeSchema) + "/" +
                      std::to_string(ours.fingerprintSchema));
        return false;
    }
    std::string payload;
    ours.encode(payload);
    return reply(net::MsgType::HelloOk, payload);
}

bool
Session::handleMatrix(const net::Frame &frame)
{
    MatrixQuery query;
    support::wire::Reader reader(frame.payload);
    if (!query.decode(reader))
        return sendError(net::ErrCode::BadRequest,
                         "malformed MatrixRequest payload");
    std::string why;
    if (!query.validate(&why))
        return sendError(net::ErrCode::BadRequest, why);
    if (server_.draining())
        return sendError(net::ErrCode::Draining,
                         "server is draining; retry elsewhere");

    // Admission: brownout eligibility is "every cell the query needs
    // is durable" — such a request is a cache read, not a simulation.
    bool cached = true;
    for (const ExperimentCell &cell : query.cells()) {
        if (!server_.driver().cellDurable(*cell.spec, cell.config,
                                          cell.width)) {
            cached = false;
            break;
        }
    }
    const AdmissionDecision ticket = server_.admission().admit(
        id_, query.deadlineMs, cached);
    if (!ticket.admitted)
        return sendError(net::ErrCode::Overloaded, ticket.reason,
                         ticket.retryAfterMs);
    AdmitGuard guard{server_.admission(), id_, ticket};

    const support::CancelToken token = requestToken(query.deadlineMs);
    ResolveOutcome outcome;
    MatrixResult result;
    try {
        result = runMatrixQuery(
            server_.driver(), query,
            [&](const std::vector<ExperimentCell> &cells) {
                outcome = server_.registry().resolve(
                    cells, query.deadlineMs, token);
            });
    } catch (const CellCancelled &e) {
        // This request's own claimed simulation was cancelled — its
        // deadline, or the watchdog reclaiming a stalled flight.  Not
        // retryable on the same budget (it would just cancel again)
        // and nothing is quarantined: the cell re-runs cleanly for
        // the next request.
        return sendError(net::ErrCode::Cancelled, e.what());
    } catch (const CellStalled &e) {
        // The watchdog marked a cell this request waited on: typed
        // and retryable — the stuck owner may yet finish and cache
        // it, or the retry recomputes it after the quarantine path
        // settles.
        return sendError(net::ErrCode::Stalled, e.what());
    } catch (const std::exception &e) {
        return sendError(net::ErrCode::Internal, e.what());
    }
    if (outcome.deadlineExpired)
        return sendError(
            net::ErrCode::Deadline,
            "deadline of " + std::to_string(query.deadlineMs) +
                " ms expired before every cell resolved (the cells "
                "keep computing and will be cached)");
    if (result.interrupted)
        return sendError(net::ErrCode::Internal,
                         "sweep did not resolve every cell");
    result.summary.coalesced = outcome.coalesced;

    if (support::faultShouldFire("net-disconnect")) {
        // Mid-response hang-up: the reply is computed but never
        // written; the client sees the connection die.  shutdown, not
        // close — the fd must stay valid for a concurrent drain.
        fd_.shutdownBoth();
        return false;
    }

    std::string payload;
    result.encode(payload);
    if (!reply(net::MsgType::MatrixReply, payload))
        return false;
    server_.countRequest();
    return true;
}

bool
Session::handleCells(const net::Frame &frame)
{
    net::CellsBatch batch;
    support::wire::Reader reader(frame.payload);
    if (!batch.decode(reader))
        return sendError(net::ErrCode::BadRequest,
                         "malformed CellsRequest payload");
    if (batch.cells.empty())
        return sendError(net::ErrCode::BadRequest,
                         "empty cell batch");
    std::vector<ExperimentCell> cells;
    cells.reserve(batch.cells.size());
    for (const net::CellRef &ref : batch.cells) {
        const WorkloadSpec *spec = findWorkloadOrNull(ref.workload);
        if (!spec)
            return sendError(net::ErrCode::BadRequest,
                             "unknown workload '" + ref.workload +
                                 "'");
        if (!MachineConfig::isKnownConfig(ref.config))
            return sendError(net::ErrCode::BadRequest,
                             std::string("unknown configuration '") +
                                 ref.config + "'");
        if (ref.width == 0 || ref.width > 1u << 20)
            return sendError(net::ErrCode::BadRequest,
                             "width " + std::to_string(ref.width) +
                                 " out of range");
        cells.push_back({spec, ref.config, ref.width});
    }
    if (server_.draining())
        return sendError(net::ErrCode::Draining,
                         "server is draining; retry elsewhere");

    ExperimentDriver &driver = server_.driver();
    bool cached = true;
    for (const ExperimentCell &cell : cells) {
        if (!driver.cellDurable(*cell.spec, cell.config,
                                cell.width)) {
            cached = false;
            break;
        }
    }
    const AdmissionDecision ticket = server_.admission().admit(
        id_, batch.deadlineMs, cached);
    if (!ticket.admitted)
        return sendError(net::ErrCode::Overloaded, ticket.reason,
                         ticket.retryAfterMs);
    AdmitGuard guard{server_.admission(), id_, ticket};

    const support::CancelToken token = requestToken(batch.deadlineMs);
    const std::size_t hits0 = driver.storeHits();
    const std::size_t sims0 = driver.simulatedCells();
    ResolveOutcome outcome;
    try {
        outcome = server_.registry().resolve(cells, batch.deadlineMs,
                                             token);
    } catch (const CellCancelled &e) {
        return sendError(net::ErrCode::Cancelled, e.what());
    } catch (const CellStalled &e) {
        return sendError(net::ErrCode::Stalled, e.what());
    } catch (const std::exception &e) {
        return sendError(net::ErrCode::Internal, e.what());
    }
    if (outcome.deadlineExpired)
        return sendError(
            net::ErrCode::Deadline,
            "deadline of " + std::to_string(batch.deadlineMs) +
                " ms expired before every cell resolved (the cells "
                "keep computing and will be cached)");
    for (const ExperimentCell &cell : cells) {
        if (!driver.cellResolved(*cell.spec, cell.config, cell.width))
            return sendError(net::ErrCode::Internal,
                             "sweep did not resolve every cell");
    }

    // Each ok cell is encoded straight from the driver's cached
    // record: only its summary crosses the wire, so nothing is copied.
    net::CellsReplyMsg msg;
    msg.simulated = driver.simulatedCells() - sims0;
    msg.storeHits = driver.storeHits() - hits0;
    msg.coalesced = outcome.coalesced;
    std::string payload;
    msg.encode(payload, cells.size(),
               [&](std::size_t i, std::string &out) {
                   try {
                       net::CellOutcome::encodeOk(
                           out, batch.cells[i],
                           driver.stats(*cells[i].spec, cells[i].config,
                                        cells[i].width));
                   } catch (const CellQuarantined &e) {
                       net::CellOutcome::encodeFailed(
                           out, batch.cells[i], e.failure);
                   }
               });

    if (support::faultShouldFire("net-disconnect")) {
        // Same mid-response hang-up as handleMatrix: the router sees
        // the connection die after the shard did the work, and must
        // retry against the (cached) result.
        fd_.shutdownBoth();
        return false;
    }

    if (!reply(net::MsgType::CellsReply, payload))
        return false;
    server_.countRequest();
    return true;
}

bool
Session::reply(net::MsgType type, std::string_view payload)
{
    return net::writeFrame(fd_.get(), type, payload);
}

bool
Session::sendError(net::ErrCode code, const std::string &message,
                   std::uint64_t retry_after_ms)
{
    net::ErrorMsg err;
    err.code = code;
    err.message = message;
    err.retryAfterMs = retry_after_ms;
    std::string payload;
    err.encode(payload);
    return reply(net::MsgType::Error, payload);
}

} // namespace ddsc::serve
