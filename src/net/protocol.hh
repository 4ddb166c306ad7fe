/**
 * @file
 * The DDSN wire protocol: length-prefixed, checksummed frames carrying
 * the serving layer's messages over a byte stream.
 *
 * Frame layout (all integers little-endian, per support/wire.hh):
 *
 *     offset  size  field
 *     ------  ----  --------------------------------------------
 *          0     4  magic "DDSN" (0x4E534444)
 *          4     1  message type (MsgType)
 *          5     4  payload length in bytes
 *          9     4  CRC32 of the payload (IEEE, zlib convention)
 *         13   len  payload (message-specific, support/wire.hh codec)
 *
 * Reading is defensive end to end: a frame with a bad magic, an
 * unknown type, a length above kMaxFramePayload, or a CRC mismatch is
 * rejected without allocating the claimed length, and a connection
 * that dies mid-frame surfaces as Torn rather than blocking forever
 * or yielding a half-parsed message.  Payload decoding then goes
 * through wire::Reader, which never throws and never overreads, so a
 * malicious or corrupted peer can at worst get its connection
 * dropped.
 *
 * Fault points (support/fault.hh):
 *
 *     net-torn-frame   writeFrame: emits roughly half the frame and
 *                      reports failure — the peer observes a torn
 *                      frame exactly as if the writer died mid-send
 *     net-disconnect   checked by the server session just before
 *                      writing a reply; the session closes instead,
 *                      so the client sees a mid-response hang-up
 */

#ifndef DDSC_NET_PROTOCOL_HH
#define DDSC_NET_PROTOCOL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/sched_stats.hh"
#include "sim/experiment.hh"
#include "support/wire.hh"

namespace ddsc::net
{

/** "DDSN" read as a little-endian u32. */
constexpr std::uint32_t kMagic = 0x4E534444u;

/** Frames above this are rejected before allocation.  The full-matrix
 *  reply is a few KiB; 16 MiB is generous headroom, not a target. */
constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/** Bytes before the payload: magic + type + length + crc. */
constexpr std::size_t kFrameHeaderSize = 13;

/** Length-prefixed lists in fleet frames are capped so a corrupted
 *  count is rejected before it can become a giant allocation
 *  (matches the matrix codecs' cap). */
constexpr std::uint32_t kMaxCells = 4096;

enum class MsgType : std::uint8_t
{
    Hello = 1,          ///< client -> server: version handshake
    HelloOk = 2,        ///< server -> client: versions accepted
    MatrixRequest = 3,  ///< client -> server: MatrixQuery
    MatrixReply = 4,    ///< server -> client: MatrixResult
    Ping = 5,           ///< client -> server: liveness probe
    Pong = 6,           ///< server -> client: liveness answer
    InfoRequest = 7,    ///< client -> server: ask for ServerInfo
    InfoReply = 8,      ///< server -> client: ServerInfo
    Error = 9,          ///< server -> client: typed failure
    HealthRequest = 10, ///< client -> server: readiness probe
    HealthReply = 11,   ///< server -> client: HealthInfo
    CellsRequest = 12,  ///< router -> shard: resolve a cell batch
    CellsReply = 13,    ///< shard -> router: per-cell summaries or
                        ///< failures
};

/** True for type bytes this protocol version defines. */
bool knownMsgType(std::uint8_t type);

enum class ErrCode : std::uint8_t
{
    BadRequest = 1,     ///< frame decoded but the query is invalid
    Overloaded = 2,     ///< session limit reached; retry later
    Deadline = 3,       ///< the request's deadline expired while
                        ///< waiting (the cells keep computing)
    VersionMismatch = 4,///< handshake versions incompatible
    Draining = 5,       ///< server is shutting down; not accepting
                        ///< new requests
    Internal = 6,       ///< unexpected server-side failure
    Stalled = 7,        ///< a cell this request waited on exceeded the
                        ///< watchdog budget; retry later (the owner
                        ///< may still finish and cache it)
    Cancelled = 8,      ///< since DDSN v5: the request's own budget
                        ///< expired (or it was explicitly cancelled)
                        ///< while *its* simulation ran; the partial
                        ///< work was discarded, nothing quarantined
};

/** True for codes a client may retry unchanged after a backoff: the
 *  condition is about the *server's current state* (capacity, drain,
 *  a stalled cell), not about the request itself. */
bool errCodeRetryable(ErrCode code);

/** Human-readable name for an error code ("?" for unknown bytes). */
const char *errCodeName(ErrCode code);

/** One decoded frame. */
struct Frame
{
    MsgType type = MsgType::Error;
    std::string payload;
};

/** Version handshake, sent by the client and echoed by the server.
 *  Every field must match for the session to proceed; the versions
 *  all come from support/version.hh. */
struct Hello
{
    std::uint32_t protocol = 0;
    std::uint32_t traceFormat = 0;
    std::uint32_t storeSchema = 0;
    std::uint32_t fingerprintSchema = 0;

    /** A Hello carrying this build's versions. */
    static Hello current();

    /** True when @p other can talk to us (exact match on all
     *  fields). */
    bool compatible(const Hello &other) const;

    void encode(std::string &out) const;
    bool decode(support::wire::Reader &in);
};

/** Error payload.  Since DDSN v5 it carries a retry hint: how long
 *  the server suggests waiting before retrying a retryable code
 *  (0 = no hint, back off blindly).  Overload sheds derive it from
 *  the admission controller's observed cell-latency EWMA.  The field
 *  trails the v4 layout, and wire::Reader zero-fills past the end
 *  without erroring only when asked — decode() treats a missing
 *  trailer as hint 0, so a v5 reader still understands a v4 frame
 *  seen pre-handshake (the overload shed, which fires before version
 *  negotiation). */
struct ErrorMsg
{
    ErrCode code = ErrCode::Internal;
    std::string message;
    std::uint64_t retryAfterMs = 0;

    void encode(std::string &out) const;
    bool decode(support::wire::Reader &in);
};

/** InfoReply payload: a counters snapshot of the running server. */
struct ServerInfo
{
    Hello versions;
    std::uint32_t jobs = 0;          ///< simulation worker threads
    std::uint64_t cachedCells = 0;   ///< cells resident in memory
    std::uint64_t simulated = 0;     ///< cells computed since start
    std::uint64_t storeHits = 0;     ///< cells served from the store
    std::uint64_t coalesced = 0;     ///< cells single-flighted onto
                                     ///< another request's simulation
    std::uint64_t requestsServed = 0;
    std::uint64_t activeSessions = 0;
    std::uint8_t hasStore = 0;
    std::string storePath;

    void encode(std::string &out) const;
    bool decode(support::wire::Reader &in);
};

/**
 * One cell of the experiment matrix, by name — the wire form of an
 * ExperimentCell (which holds a WorkloadSpec pointer that cannot
 * cross a process boundary).
 */
struct CellRef
{
    std::string workload;   ///< WorkloadSpec name, e.g. "li"
    char config = 'A';      ///< paper configuration letter A..E
    std::uint32_t width = 4;

    void encode(std::string &out) const;
    bool decode(support::wire::Reader &in);
};

/**
 * CellsRequest payload: the router's fan-out unit.  A shard resolves
 * the batch through its single-flight registry exactly like a
 * MatrixRequest's cell set — same store, same watchdog, same
 * quarantine semantics — but replies with a per-cell summary
 * (encodeCellSummary) instead of an aggregated grid, so the router can
 * merge columns owned by different shards into one byte-identical
 * MatrixResult.
 */
struct CellsBatch
{
    std::vector<CellRef> cells;
    /** Since DDSN v5 this is the *remaining* end-to-end budget: the
     *  router copies MatrixQuery::deadlineMs, subtracts its own
     *  queueing/elapsed time per hop (never below a per-shard floor),
     *  and the shard treats it as both its wait bound and its own
     *  simulation cancel deadline.  0 = no budget (forever). */
    std::uint64_t deadlineMs = 0;

    void encode(std::string &out) const;
    bool decode(support::wire::Reader &in);
};

/**
 * One resolved cell in a CellsReply: stats on success, a typed
 * failure (quarantine) otherwise.
 *
 * Since DDSN v6 an ok cell crosses the wire as its summary
 * (encodeCellSummary in sim/matrix_query.hh): the fields
 * aggregateMatrixResult() reads, not the whole record.  So after
 * decode(), `stats` holds only instructions, cycles,
 * collapse.collapsedInstructions() and wallNanos; every histogram,
 * signature map and other counter is zero.
 */
struct CellOutcome
{
    CellRef cell;
    std::uint8_t ok = 0;    ///< 1: stats valid; 0: failure valid
    SchedStats stats;
    CellFailure failure;

    void encode(std::string &out) const;
    bool decode(support::wire::Reader &in);

    /** What encode() writes for an ok cell with @p stats, without a
     *  CellOutcome: a shard encodes straight from its driver's
     *  cached record instead of copying it. */
    static void encodeOk(std::string &out, const CellRef &cell,
                         const SchedStats &stats);
    /** What encode() writes for a failed cell. */
    static void encodeFailed(std::string &out, const CellRef &cell,
                             const CellFailure &failure);
};

/** CellsReply payload. */
struct CellsReplyMsg
{
    std::vector<CellOutcome> cells;
    /** This batch's serving counters (simulated/storeHits/coalesced),
     *  summed into the router's MatrixSummary. */
    std::uint64_t simulated = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t coalesced = 0;

    void encode(std::string &out) const;
    bool decode(support::wire::Reader &in);

    /** Appends cell @p i of a reply being encoded. */
    using CellWriter = std::function<void(std::size_t i, std::string &out)>;

    /** encode() with this message's counters around @p n cells that
     *  @p cell writes (through CellOutcome::encodeOk/encodeFailed)
     *  instead of `cells`: the shard's path, which builds no
     *  CellOutcome at all. */
    void encode(std::string &out, std::size_t n,
                const CellWriter &cell) const;
};

/** Per-shard slice of an aggregated fleet health reply. */
struct ShardHealth
{
    std::uint32_t index = 0;
    /** 0 = serving, 1 = restarting (between generations),
     *  2 = broken (flap breaker tripped; not coming back). */
    std::uint8_t state = 0;
    std::uint64_t generation = 0;   ///< restarts of this shard so far
    std::uint64_t restarts = 0;     ///< unclean deaths restarted
    std::uint64_t stalledCells = 0;
    std::uint64_t quarantinedCells = 0;
    std::uint64_t storeRecords = 0;
    std::uint32_t port = 0;         ///< 0 while down

    void encode(std::string &out) const;
    bool decode(support::wire::Reader &in);
};

/** Names for ShardHealth::state. */
const char *shardStateName(std::uint8_t state);

/** HealthReply payload: the readiness/self-healing view of the server
 *  (InfoReply carries the workload counters; this carries what a
 *  supervisor or operator probes for). */
struct HealthInfo
{
    std::uint64_t uptimeMs = 0;      ///< since this process's Server
    std::uint64_t generation = 0;    ///< supervisor restart count
                                     ///< (0 = unsupervised)
    std::uint64_t liveSessions = 0;
    std::uint64_t quarantinedCells = 0;
    std::uint64_t registryDepth = 0; ///< cells in flight right now
    std::uint64_t stalledCells = 0;  ///< in-flight cells past the
                                     ///< watchdog budget
    std::uint64_t storeRecords = 0;  ///< durable cells in the store
    std::uint64_t watchdogBudgetMs = 0; ///< effective soft budget
                                     ///< (0 = adaptive with no
                                     ///< history yet)
    // Since DDSN v3: mapped-trace residency (--trace-dir /
    // --trace-budget-mb; all zero without a trace dir).
    std::uint64_t traceMappedBytes = 0;   ///< all mapped traces
    std::uint64_t traceResidentBytes = 0; ///< charged, not evicted
    std::uint64_t traceBudgetBytes = 0;   ///< 0 = unlimited
    std::uint64_t traceEvictions = 0;     ///< whole-trace evictions
    // Since DDSN v4: per-shard health when the reply comes from a
    // fleet router (empty from a single server; the scalar fields
    // above then aggregate across shards).
    std::vector<ShardHealth> shards;

    void encode(std::string &out) const;
    bool decode(support::wire::Reader &in);
};

/** The full encoded frame for @p type and @p payload. */
std::string encodeFrame(MsgType type, std::string_view payload);

/**
 * Encode and send one frame.  False when the connection is dead —
 * including when the "net-torn-frame" fault point fires, in which
 * case only a prefix of the frame was sent first (the receiving side
 * then exercises its Torn path).
 */
bool writeFrame(int fd, MsgType type, std::string_view payload);

enum class ReadStatus
{
    Ok,       ///< frame delivered
    Eof,      ///< clean hang-up on a frame boundary
    Torn,     ///< connection died mid-frame
    Bad,      ///< magic/type/length/CRC rejected the frame
    Timeout,  ///< the deadline passed first
};

/**
 * Read one frame.  @p timeout_ms bounds the whole read (-1 = block
 * forever).  On anything but Ok the connection should be dropped;
 * Bad and Torn frames never hand partial payloads to the caller.
 */
ReadStatus readFrame(int fd, Frame &out, int timeout_ms = -1);

} // namespace ddsc::net

#endif // DDSC_NET_PROTOCOL_HH
