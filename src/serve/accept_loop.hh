/**
 * @file
 * The accept loop both serving front-ends run — a single server
 * (serve::Server) and the fleet router (serve::Router) — and the one
 * connection function behind every session.
 *
 * Concurrency model: one accept thread (run()'s) plus one thread per
 * live session.  A session does the version handshake, answers
 * Ping/Info/Health itself, and hands each MatrixRequest and
 * CellsRequest frame to the loop's Owner, until the peer hangs up or
 * the loop drains.  Protocol violations (bad magic, torn frames,
 * unknown types) end the session by dropping the connection — never
 * by taking the front-end down.
 *
 * Overload: at most max_sessions live sessions.  The listener keeps
 * accepting — each excess connection is *shed* with a typed
 * Overloaded error and closed, rather than left to stall in the
 * accept queue wondering whether the server is dead.
 *
 * Drain (stop(), or SIGINT/SIGTERM once
 * support::installShutdownHandler() ran): stop accepting, half-close
 * every live session so the request it is executing finishes and
 * replies while its next read sees EOF, then join every session
 * thread.
 */

#ifndef DDSC_SERVE_ACCEPT_LOOP_HH
#define DDSC_SERVE_ACCEPT_LOOP_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/protocol.hh"
#include "net/socket.hh"

namespace ddsc::serve
{

/** One accepted connection, as the loop hands it to its owner.  The
 *  session thread owns the socket outright; the loop only ever
 *  half-closes it. */
struct Connection
{
    net::Fd fd;
    std::uint64_t id = 0;   ///< 1, 2, ... in accept order

    bool reply(net::MsgType type, std::string_view payload) const;

    /** @p retry_after_ms rides only on retryable sheds (Overloaded);
     *  0 = no hint. */
    bool sendError(net::ErrCode code, const std::string &message,
                   std::uint64_t retry_after_ms = 0) const;
};

class AcceptLoop
{
  public:
    /** What a front-end answers beyond the handshake and Ping. */
    class Owner
    {
      public:
        virtual ~Owner() = default;

        /** InfoReply payload; called from session threads. */
        virtual net::ServerInfo infoSnapshot() const = 0;

        /** HealthReply payload; called from session threads. */
        virtual net::HealthInfo healthSnapshot() const = 0;

        /** Answer one MatrixRequest or CellsRequest frame.  False
         *  ends the session: the connection died, or the verb is not
         *  served here. */
        virtual bool handleRequest(Connection &conn,
                                   const net::Frame &frame) = 0;

        /** The retry-after hint an accept-time shed carries. */
        virtual std::uint64_t retryHintMs() const { return 0; }
    };

    /** Bind 127.0.0.1:@p port (0 = kernel-assigned).  @p role names
     *  the front-end in the shed message ("server", "router"). */
    AcceptLoop(Owner &owner, const char *role, std::uint16_t port,
               int backlog, unsigned max_sessions);
    ~AcceptLoop();

    AcceptLoop(const AcceptLoop &) = delete;
    AcceptLoop &operator=(const AcceptLoop &) = delete;

    /** False when the listener failed to bind (port in use). */
    bool valid() const { return listener_.valid(); }

    /** The bound port (resolves port 0). */
    std::uint16_t port() const { return listener_.port(); }

    /** Accept and serve until a drain is requested, then drain.
     *  Returns with the listener closed and every session joined. */
    void run();

    /** Request a drain from another thread (idempotent). */
    void stop();

    /** True once the drain started. */
    bool draining() const { return draining_.load(); }

    /** Live sessions; readable from any thread. */
    std::uint64_t activeSessions() const { return active_.load(); }

    /** Milliseconds since the listener was bound. */
    std::uint64_t uptimeMs() const;

  private:
    struct Slot
    {
        std::thread thread;
        Connection conn;
        std::atomic<bool> done{false};
    };

    /** Join and drop finished sessions. */
    void reap();

    Owner &owner_;
    const char *role_;
    unsigned maxSessions_;
    net::TcpListener listener_;
    int stopPipe_[2] = {-1, -1};    ///< self-pipe for stop()
    std::atomic<bool> draining_{false};
    std::vector<std::unique_ptr<Slot>> sessions_;   ///< accept thread only
    /** Live session count (sessions_ belongs to the accept thread). */
    std::atomic<std::uint64_t> active_{0};
    std::uint64_t nextId_ = 1;
    const std::chrono::steady_clock::time_point started_ =
        std::chrono::steady_clock::now();
};

} // namespace ddsc::serve

#endif // DDSC_SERVE_ACCEPT_LOOP_HH
