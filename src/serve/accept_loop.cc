#include "accept_loop.hh"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "support/logging.hh"
#include "support/shutdown.hh"

namespace ddsc::serve
{

namespace
{

/** A connection that won't even say Hello within this budget is
 *  holding a session slot hostage; drop it. */
constexpr int kHandshakeTimeoutMs = 30000;

/** Expect Hello, verify versions, answer HelloOk.  False ends the
 *  session (mismatch already answered with a typed error). */
bool
handshake(const Connection &conn)
{
    net::Frame frame;
    if (net::readFrame(conn.fd.get(), frame, kHandshakeTimeoutMs) !=
            net::ReadStatus::Ok ||
        frame.type != net::MsgType::Hello)
        return false;
    net::Hello theirs;
    support::wire::Reader reader(frame.payload);
    if (!theirs.decode(reader)) {
        conn.sendError(net::ErrCode::BadRequest, "malformed Hello");
        return false;
    }
    const net::Hello ours = net::Hello::current();
    if (!ours.compatible(theirs)) {
        conn.sendError(net::ErrCode::VersionMismatch,
                       "client speaks protocol " +
                           std::to_string(theirs.protocol) +
                           "/trace v" +
                           std::to_string(theirs.traceFormat) +
                           "/store v" +
                           std::to_string(theirs.storeSchema) +
                           "/fingerprint v" +
                           std::to_string(theirs.fingerprintSchema) +
                           "; server has " +
                           std::to_string(ours.protocol) + "/" +
                           std::to_string(ours.traceFormat) + "/" +
                           std::to_string(ours.storeSchema) + "/" +
                           std::to_string(ours.fingerprintSchema));
        return false;
    }
    std::string payload;
    ours.encode(payload);
    return conn.reply(net::MsgType::HelloOk, payload);
}

/** The session body: handshake, then answer frames until the
 *  connection ends. */
void
serveConnection(AcceptLoop::Owner &owner, Connection &conn)
{
    if (!handshake(conn))
        return;
    net::Frame frame;
    for (;;) {
        if (net::readFrame(conn.fd.get(), frame, -1) !=
            net::ReadStatus::Ok)
            return;     // EOF (hang-up or drain), torn, or garbage
        std::string payload;
        bool alive = false;
        switch (frame.type) {
          case net::MsgType::Ping:
            alive = conn.reply(net::MsgType::Pong, {});
            break;
          case net::MsgType::InfoRequest:
            owner.infoSnapshot().encode(payload);
            alive = conn.reply(net::MsgType::InfoReply, payload);
            break;
          case net::MsgType::HealthRequest:
            owner.healthSnapshot().encode(payload);
            alive = conn.reply(net::MsgType::HealthReply, payload);
            break;
          case net::MsgType::MatrixRequest:
          case net::MsgType::CellsRequest:
            alive = owner.handleRequest(conn, frame);
            break;
          default:
            // A client sending server-side verbs is confused; drop it.
            return;
        }
        if (!alive)
            return;
    }
}

} // anonymous namespace

bool
Connection::reply(net::MsgType type, std::string_view payload) const
{
    return net::writeFrame(fd.get(), type, payload);
}

bool
Connection::sendError(net::ErrCode code, const std::string &message,
                      std::uint64_t retry_after_ms) const
{
    net::ErrorMsg err;
    err.code = code;
    err.message = message;
    err.retryAfterMs = retry_after_ms;
    std::string payload;
    err.encode(payload);
    return reply(net::MsgType::Error, payload);
}

AcceptLoop::AcceptLoop(Owner &owner, const char *role,
                       std::uint16_t port, int backlog,
                       unsigned max_sessions)
    : owner_(owner),
      role_(role),
      maxSessions_(max_sessions),
      listener_(net::TcpListener::bindLocal(port, backlog))
{
    if (::pipe2(stopPipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
        // Without the self-pipe, stop() could not wake the blocked
        // poll() — a front-end that cannot be told to drain.  pipe2
        // only fails when the process is out of fds, which is not a
        // state to limp along in.
        ddsc_fatal("%s: pipe2 failed: %s", role_, std::strerror(errno));
    }
}

AcceptLoop::~AcceptLoop()
{
    // run() joins every session before returning; a loop destroyed
    // without run() has none.
    for (std::unique_ptr<Slot> &slot : sessions_) {
        if (slot->thread.joinable())
            slot->thread.join();
    }
    for (const int fd : stopPipe_)
        ::close(fd);
}

void
AcceptLoop::run()
{
    for (;;) {
        // poll() ignores the shutdown entry while its fd is -1 (no
        // handler installed).
        pollfd fds[3] = {{listener_.fd(), POLLIN, 0},
                         {stopPipe_[0], POLLIN, 0},
                         {support::shutdownFd(), POLLIN, 0}};
        if (::poll(fds, 3, -1) < 0) {
            if (errno == EINTR)
                continue;       // signal; loop re-checks the pipes
            break;
        }
        if (((fds[1].revents | fds[2].revents) & POLLIN) ||
            support::shutdownRequested())
            break;
        if (!(fds[0].revents & POLLIN))
            continue;
        net::Fd conn = listener_.accept();
        if (!conn.valid())
            continue;

        reap();
        if (active_.load() >= maxSessions_) {
            // Shed: answer *something* so the client knows to back
            // off, instead of letting it stall in a queue.
            const Connection shed{std::move(conn)};
            shed.sendError(net::ErrCode::Overloaded,
                           std::string(role_) + " at capacity (" +
                               std::to_string(maxSessions_) +
                               " sessions); retry shortly",
                           owner_.retryHintMs());
            continue;           // the connection closes here
        }

        auto slot = std::make_unique<Slot>();
        slot->conn.fd = std::move(conn);
        slot->conn.id = nextId_++;
        Slot *raw = slot.get();
        active_.fetch_add(1);
        slot->thread = std::thread([this, raw]() {
            serveConnection(owner_, raw->conn);
            // The slot (and its fd) outlives this thread: the accept
            // thread reaps it later.  Send FIN now so the peer sees
            // EOF the moment the session ends, not at the reap.
            raw->conn.fd.shutdownBoth();
            active_.fetch_sub(1);
            raw->done.store(true);
        });
        sessions_.push_back(std::move(slot));
    }

    // Drain: no new connections, let in-flight requests reply.
    draining_.store(true);
    listener_.close();
    for (std::unique_ptr<Slot> &slot : sessions_) {
        if (!slot->done.load())
            slot->conn.fd.shutdownRead();
    }
    for (std::unique_ptr<Slot> &slot : sessions_) {
        if (slot->thread.joinable())
            slot->thread.join();
    }
    sessions_.clear();
}

void
AcceptLoop::stop()
{
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(stopPipe_[1], &byte, 1);
}

std::uint64_t
AcceptLoop::uptimeMs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started_)
            .count());
}

void
AcceptLoop::reap()
{
    for (std::size_t i = 0; i < sessions_.size();) {
        if (sessions_[i]->done.load()) {
            if (sessions_[i]->thread.joinable())
                sessions_[i]->thread.join();
            sessions_.erase(sessions_.begin() +
                            static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

} // namespace ddsc::serve
