/**
 * @file
 * The server's request verbs: one MatrixRequest or CellsRequest on a
 * served connection, decoded, admitted, resolved through the
 * single-flight registry, and answered.  The accept loop
 * (accept_loop.hh) owns the connection, the handshake and the probes,
 * and hands each request frame here.
 *
 * Draining never yanks a request mid-reply: the loop half-closes the
 * connection, the request currently executing finishes and its reply
 * is written, and the session's next read sees EOF.
 */

#ifndef DDSC_SERVE_SESSION_HH
#define DDSC_SERVE_SESSION_HH

#include <cstdint>
#include <vector>

#include "net/protocol.hh"
#include "serve/accept_loop.hh"
#include "sim/experiment.hh"

namespace ddsc::serve
{

class Server;

class Session
{
  public:
    Session(Server &server, Connection &conn);

    /** Decode, validate and answer one MatrixRequest.  False when
     *  the connection died. */
    bool handleMatrix(const net::Frame &frame);

    /** Decode, validate and answer one CellsRequest (the fleet
     *  router's fan-out unit).  False when the connection died. */
    bool handleCells(const net::Frame &frame);

  private:
    /**
     * The one request path after decoding: refuse while draining,
     * admit (brownout-eligible when every cell is durable), run
     * @p resolve under the request's cancel token, map its failures
     * to typed errors, and reply with what @p encode writes.
     * @p resolve(token) returns the registry's ResolveOutcome;
     * @p encode(outcome, payload) returns false when not every cell
     * resolved.
     */
    template <typename Resolve, typename Encode>
    bool serve(const std::vector<ExperimentCell> &cells,
               std::uint64_t deadline_ms, net::MsgType reply_type,
               Resolve &&resolve, Encode &&encode);

    Server &server_;
    Connection &conn_;
};

} // namespace ddsc::serve

#endif // DDSC_SERVE_SESSION_HH
