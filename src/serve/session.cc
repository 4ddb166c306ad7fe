#include "session.hh"

#include <chrono>
#include <optional>
#include <string>

#include "serve/server.hh"
#include "sim/matrix_query.hh"
#include "support/cancel.hh"
#include "support/fault.hh"

namespace ddsc::serve
{

namespace
{

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

/** A request that ends in a typed error frame instead of a reply. */
struct Failure
{
    net::ErrCode code;
    std::string message;
};

} // anonymous namespace

Session::Session(Server &server, Connection &conn)
    : server_(server), conn_(conn)
{
}

template <typename Resolve, typename Encode>
bool
Session::serve(const std::vector<ExperimentCell> &cells,
               std::uint64_t deadline_ms, net::MsgType reply_type,
               Resolve &&resolve, Encode &&encode)
{
    if (server_.draining())
        return conn_.sendError(net::ErrCode::Draining,
                               "server is draining; retry elsewhere");

    // Admission: brownout eligibility is "every cell the request needs
    // is durable" — such a request is a cache read, not a simulation.
    bool cached = true;
    for (const ExperimentCell &cell : cells) {
        if (!server_.driver().cellDurable(*cell.spec, cell.config,
                                          cell.width)) {
            cached = false;
            break;
        }
    }
    const AdmissionDecision ticket =
        server_.admission().admit(conn_.id, deadline_ms, cached);
    if (!ticket.admitted)
        return conn_.sendError(net::ErrCode::Overloaded, ticket.reason,
                               ticket.retryAfterMs);

    // The request holds its slot while its reply payload or error is
    // computed, and gives it back before any frame is written: a
    // client that holds its reply may send its next request at once,
    // and must not be shed by the request that was just answered.
    std::string payload;
    const std::optional<Failure> failure = [&]() -> std::optional<Failure> {
        AdmitGuard guard{server_.admission(), conn_.id, ticket};

        // The client's deadline becomes a live deadline token; with no
        // deadline the token still exists so the watchdog's cancel
        // rung can reach the request's claimed flights.
        const support::CancelToken token =
            deadline_ms > 0
                ? support::CancelToken::withDeadline(deadline_ms)
                : support::CancelToken::make();
        ResolveOutcome outcome;
        try {
            outcome = resolve(token);
        } catch (const CellCancelled &e) {
            // This request's own claimed simulation was cancelled —
            // its deadline, or the watchdog reclaiming a stalled
            // flight.  Not retryable on the same budget (it would just
            // cancel again) and nothing is quarantined: the cell
            // re-runs cleanly for the next request.
            return Failure{net::ErrCode::Cancelled, e.what()};
        } catch (const CellStalled &e) {
            // The watchdog marked a cell this request waited on: typed
            // and retryable — the stuck owner may yet finish and cache
            // it, or the retry recomputes it after the quarantine path
            // settles.
            return Failure{net::ErrCode::Stalled, e.what()};
        } catch (const std::exception &e) {
            return Failure{net::ErrCode::Internal, e.what()};
        }
        if (outcome.deadlineExpired)
            return Failure{
                net::ErrCode::Deadline,
                "deadline of " + std::to_string(deadline_ms) +
                    " ms expired before every cell resolved (the cells "
                    "keep computing and will be cached)"};
        if (!encode(outcome, payload))
            return Failure{net::ErrCode::Internal,
                           "sweep did not resolve every cell"};
        return std::nullopt;
    }();
    if (failure)
        return conn_.sendError(failure->code, failure->message);

    if (support::faultShouldFire("net-disconnect")) {
        // Mid-response hang-up: the reply is computed but never
        // written; the client (or the router, which must retry
        // against the now-cached result) sees the connection die.
        // shutdown, not close — the fd must stay valid for a
        // concurrent drain.
        conn_.fd.shutdownBoth();
        return false;
    }

    if (!conn_.reply(reply_type, payload))
        return false;
    server_.countRequest();
    return true;
}

bool
Session::handleMatrix(const net::Frame &frame)
{
    MatrixQuery query;
    support::wire::Reader reader(frame.payload);
    if (!query.decode(reader))
        return conn_.sendError(net::ErrCode::BadRequest,
                               "malformed MatrixRequest payload");
    std::string why;
    if (!query.validate(&why))
        return conn_.sendError(net::ErrCode::BadRequest, why);

    MatrixResult result;
    return serve(
        query.cells(), query.deadlineMs, net::MsgType::MatrixReply,
        [&](const support::CancelToken &token) {
            ResolveOutcome outcome;
            result = runMatrixQuery(
                server_.driver(), query,
                [&](const std::vector<ExperimentCell> &cells) {
                    outcome = server_.registry().resolve(
                        cells, query.deadlineMs, token);
                });
            return outcome;
        },
        [&](const ResolveOutcome &outcome, std::string &payload) {
            if (result.interrupted)
                return false;
            result.summary.coalesced = outcome.coalesced;
            result.encode(payload);
            return true;
        });
}

bool
Session::handleCells(const net::Frame &frame)
{
    net::CellsBatch batch;
    support::wire::Reader reader(frame.payload);
    if (!batch.decode(reader))
        return conn_.sendError(net::ErrCode::BadRequest,
                               "malformed CellsRequest payload");
    if (batch.cells.empty())
        return conn_.sendError(net::ErrCode::BadRequest,
                               "empty cell batch");
    std::vector<ExperimentCell> cells;
    cells.reserve(batch.cells.size());
    for (const net::CellRef &ref : batch.cells) {
        const WorkloadSpec *spec = findWorkloadOrNull(ref.workload);
        if (!spec)
            return conn_.sendError(net::ErrCode::BadRequest,
                                   "unknown workload '" +
                                       ref.workload + "'");
        if (!MachineConfig::isKnownConfig(ref.config))
            return conn_.sendError(
                net::ErrCode::BadRequest,
                std::string("unknown configuration '") + ref.config +
                    "'");
        if (ref.width == 0 || ref.width > 1u << 20)
            return conn_.sendError(net::ErrCode::BadRequest,
                                   "width " +
                                       std::to_string(ref.width) +
                                       " out of range");
        cells.push_back({spec, ref.config, ref.width});
    }

    ExperimentDriver &driver = server_.driver();
    std::size_t hits0 = 0;
    std::size_t sims0 = 0;
    return serve(
        cells, batch.deadlineMs, net::MsgType::CellsReply,
        [&](const support::CancelToken &token) {
            hits0 = driver.storeHits();
            sims0 = driver.simulatedCells();
            return server_.registry().resolve(cells, batch.deadlineMs,
                                              token);
        },
        [&](const ResolveOutcome &outcome, std::string &payload) {
            for (const ExperimentCell &cell : cells) {
                if (!driver.cellResolved(*cell.spec, cell.config,
                                         cell.width))
                    return false;
            }
            // Each ok cell is encoded straight from the driver's
            // cached record: only its summary crosses the wire, so
            // nothing is copied.
            net::CellsReplyMsg msg;
            msg.simulated = driver.simulatedCells() - sims0;
            msg.storeHits = driver.storeHits() - hits0;
            msg.coalesced = outcome.coalesced;
            msg.encode(payload, cells.size(),
                       [&](std::size_t i, std::string &out) {
                           try {
                               net::CellOutcome::encodeOk(
                                   out, batch.cells[i],
                                   driver.stats(*cells[i].spec,
                                                cells[i].config,
                                                cells[i].width));
                           } catch (const CellQuarantined &e) {
                               net::CellOutcome::encodeFailed(
                                   out, batch.cells[i], e.failure);
                           }
                       });
            return true;
        });
}

} // namespace ddsc::serve
