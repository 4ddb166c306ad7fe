#include "protocol.hh"

#include "sim/matrix_query.hh"
#include "socket.hh"
#include "support/fault.hh"
#include "support/version.hh"

namespace ddsc::net
{

bool
knownMsgType(std::uint8_t type)
{
    return type >= static_cast<std::uint8_t>(MsgType::Hello) &&
           type <= static_cast<std::uint8_t>(MsgType::CellsReply);
}

const char *
errCodeName(ErrCode code)
{
    switch (code) {
      case ErrCode::BadRequest:      return "bad-request";
      case ErrCode::Overloaded:      return "overloaded";
      case ErrCode::Deadline:        return "deadline";
      case ErrCode::VersionMismatch: return "version-mismatch";
      case ErrCode::Draining:        return "draining";
      case ErrCode::Internal:        return "internal";
      case ErrCode::Stalled:         return "stalled";
      case ErrCode::Cancelled:       return "cancelled";
    }
    return "?";
}

bool
errCodeRetryable(ErrCode code)
{
    // BadRequest and VersionMismatch fail the same way forever;
    // Deadline means the *caller's* budget expired (retrying without
    // raising it is the caller's decision, not the transport's), and
    // Cancelled is the same condition observed mid-simulation instead
    // of mid-wait — a retry under the same budget would just cancel
    // again; Internal is a server bug a blind retry would repeat.
    return code == ErrCode::Overloaded || code == ErrCode::Draining ||
           code == ErrCode::Stalled;
}

Hello
Hello::current()
{
    Hello h;
    h.protocol = support::version::kProtocol;
    h.traceFormat = support::version::kTraceFormat;
    h.storeSchema = support::version::kStoreSchema;
    h.fingerprintSchema = support::version::kFingerprintSchema;
    return h;
}

bool
Hello::compatible(const Hello &other) const
{
    return protocol == other.protocol &&
           traceFormat == other.traceFormat &&
           storeSchema == other.storeSchema &&
           fingerprintSchema == other.fingerprintSchema;
}

void
Hello::encode(std::string &out) const
{
    using namespace support::wire;
    putU32(out, protocol);
    putU32(out, traceFormat);
    putU32(out, storeSchema);
    putU32(out, fingerprintSchema);
}

bool
Hello::decode(support::wire::Reader &in)
{
    protocol = in.u32();
    traceFormat = in.u32();
    storeSchema = in.u32();
    fingerprintSchema = in.u32();
    return in.ok();
}

void
ErrorMsg::encode(std::string &out) const
{
    support::wire::putU8(out, static_cast<std::uint8_t>(code));
    support::wire::putString(out, message);
    support::wire::putU64(out, retryAfterMs);
}

bool
ErrorMsg::decode(support::wire::Reader &in)
{
    code = static_cast<ErrCode>(in.u8());
    message = in.str();
    if (!in.ok())
        return false;
    // The retry hint trails the v4 layout; a v4 frame (possible
    // pre-handshake, where the overload shed is written before any
    // version negotiation) simply ends here and means "no hint".  A
    // frame ending 1-7 bytes after the message is neither layout —
    // a torn trailer — and is rejected, not rounded down to v4.
    const std::size_t rem = in.remaining();
    if (rem >= 8) {
        retryAfterMs = in.u64();
    } else if (rem == 0) {
        retryAfterMs = 0;
    } else {
        return false;
    }
    return in.ok();
}

void
ServerInfo::encode(std::string &out) const
{
    using namespace support::wire;
    versions.encode(out);
    putU32(out, jobs);
    putU64(out, cachedCells);
    putU64(out, simulated);
    putU64(out, storeHits);
    putU64(out, coalesced);
    putU64(out, requestsServed);
    putU64(out, activeSessions);
    putU8(out, hasStore);
    putString(out, storePath);
}

bool
ServerInfo::decode(support::wire::Reader &in)
{
    if (!versions.decode(in))
        return false;
    jobs = in.u32();
    cachedCells = in.u64();
    simulated = in.u64();
    storeHits = in.u64();
    coalesced = in.u64();
    requestsServed = in.u64();
    activeSessions = in.u64();
    hasStore = in.u8();
    storePath = in.str();
    return in.ok();
}

void
CellRef::encode(std::string &out) const
{
    using namespace support::wire;
    putString(out, workload);
    putU8(out, static_cast<std::uint8_t>(config));
    putU32(out, width);
}

bool
CellRef::decode(support::wire::Reader &in)
{
    workload = in.str();
    config = static_cast<char>(in.u8());
    width = in.u32();
    return in.ok();
}

void
CellsBatch::encode(std::string &out) const
{
    using namespace support::wire;
    putU32(out, static_cast<std::uint32_t>(cells.size()));
    for (const CellRef &cell : cells)
        cell.encode(out);
    putU64(out, deadlineMs);
}

bool
CellsBatch::decode(support::wire::Reader &in)
{
    const std::uint32_t n = in.u32();
    if (!in.ok() || n > kMaxCells)
        return false;
    cells.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        CellRef cell;
        if (!cell.decode(in))
            return false;
        cells.push_back(std::move(cell));
    }
    deadlineMs = in.u64();
    return in.ok();
}

void
CellOutcome::encodeOk(std::string &out, const CellRef &cell,
                      const SchedStats &stats)
{
    cell.encode(out);
    support::wire::putU8(out, 1);
    encodeCellSummary(out, stats);
}

void
CellOutcome::encodeFailed(std::string &out, const CellRef &cell,
                          const CellFailure &failure)
{
    cell.encode(out);
    support::wire::putU8(out, 0);
    encodeCellFailure(out, failure);
}

void
CellOutcome::encode(std::string &out) const
{
    if (ok)
        encodeOk(out, cell, stats);
    else
        encodeFailed(out, cell, failure);
}

bool
CellOutcome::decode(support::wire::Reader &in)
{
    if (!cell.decode(in))
        return false;
    ok = in.u8();
    if (!in.ok())
        return false;
    if (ok)
        return decodeCellSummary(in, stats);
    return decodeCellFailure(in, failure);
}

void
CellsReplyMsg::encode(std::string &out) const
{
    encode(out, cells.size(), [this](std::size_t i, std::string &o) {
        cells[i].encode(o);
    });
}

void
CellsReplyMsg::encode(std::string &out, std::size_t n,
                      const CellWriter &cell) const
{
    using namespace support::wire;
    putU32(out, static_cast<std::uint32_t>(n));
    for (std::size_t i = 0; i < n; ++i)
        cell(i, out);
    putU64(out, simulated);
    putU64(out, storeHits);
    putU64(out, coalesced);
}

bool
CellsReplyMsg::decode(support::wire::Reader &in)
{
    const std::uint32_t n = in.u32();
    if (!in.ok() || n > kMaxCells)
        return false;
    cells.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        CellOutcome cell;
        if (!cell.decode(in))
            return false;
        cells.push_back(std::move(cell));
    }
    simulated = in.u64();
    storeHits = in.u64();
    coalesced = in.u64();
    return in.ok();
}

void
ShardHealth::encode(std::string &out) const
{
    using namespace support::wire;
    putU32(out, index);
    putU8(out, state);
    putU64(out, generation);
    putU64(out, restarts);
    putU64(out, stalledCells);
    putU64(out, quarantinedCells);
    putU64(out, storeRecords);
    putU32(out, port);
}

bool
ShardHealth::decode(support::wire::Reader &in)
{
    index = in.u32();
    state = in.u8();
    generation = in.u64();
    restarts = in.u64();
    stalledCells = in.u64();
    quarantinedCells = in.u64();
    storeRecords = in.u64();
    port = in.u32();
    return in.ok();
}

const char *
shardStateName(std::uint8_t state)
{
    switch (state) {
      case 0:   return "serving";
      case 1:   return "restarting";
      case 2:   return "broken";
    }
    return "?";
}

void
HealthInfo::encode(std::string &out) const
{
    using namespace support::wire;
    putU64(out, uptimeMs);
    putU64(out, generation);
    putU64(out, liveSessions);
    putU64(out, quarantinedCells);
    putU64(out, registryDepth);
    putU64(out, stalledCells);
    putU64(out, storeRecords);
    putU64(out, watchdogBudgetMs);
    putU64(out, traceMappedBytes);
    putU64(out, traceResidentBytes);
    putU64(out, traceBudgetBytes);
    putU64(out, traceEvictions);
    putU32(out, static_cast<std::uint32_t>(shards.size()));
    for (const ShardHealth &shard : shards)
        shard.encode(out);
}

bool
HealthInfo::decode(support::wire::Reader &in)
{
    uptimeMs = in.u64();
    generation = in.u64();
    liveSessions = in.u64();
    quarantinedCells = in.u64();
    registryDepth = in.u64();
    stalledCells = in.u64();
    storeRecords = in.u64();
    watchdogBudgetMs = in.u64();
    traceMappedBytes = in.u64();
    traceResidentBytes = in.u64();
    traceBudgetBytes = in.u64();
    traceEvictions = in.u64();
    const std::uint32_t n = in.u32();
    if (!in.ok() || n > kMaxCells)
        return false;
    shards.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        ShardHealth shard;
        if (!shard.decode(in))
            return false;
        shards.push_back(shard);
    }
    return in.ok();
}

std::string
encodeFrame(MsgType type, std::string_view payload)
{
    using namespace support::wire;
    std::string frame;
    frame.reserve(kFrameHeaderSize + payload.size());
    putU32(frame, kMagic);
    putU8(frame, static_cast<std::uint8_t>(type));
    putU32(frame, static_cast<std::uint32_t>(payload.size()));
    putU32(frame, crc32(payload.data(), payload.size()));
    frame.append(payload);
    return frame;
}

bool
writeFrame(int fd, MsgType type, std::string_view payload)
{
    const std::string frame = encodeFrame(type, payload);
    if (support::faultShouldFire("net-torn-frame")) {
        // Die mid-send: the peer gets a prefix and must handle the
        // torn tail.  Half the frame always cuts inside the header or
        // payload, never on a frame boundary.
        sendAll(fd, std::string_view(frame).substr(0, frame.size() / 2));
        return false;
    }
    return sendAll(fd, frame);
}

ReadStatus
readFrame(int fd, Frame &out, int timeout_ms)
{
    using namespace support::wire;
    char header[kFrameHeaderSize];
    const std::size_t got =
        recvExact(fd, header, sizeof header, timeout_ms);
    if (got == 0)
        return ReadStatus::Eof;
    if (got < sizeof header)
        return timeout_ms >= 0 ? ReadStatus::Timeout : ReadStatus::Torn;

    Reader reader(std::string_view(header, sizeof header));
    const std::uint32_t magic = reader.u32();
    const std::uint8_t type = reader.u8();
    const std::uint32_t len = reader.u32();
    const std::uint32_t crc = reader.u32();
    if (magic != kMagic || !knownMsgType(type) ||
        len > kMaxFramePayload)
        return ReadStatus::Bad;

    std::string payload(len, '\0');
    if (len > 0) {
        const std::size_t body =
            recvExact(fd, payload.data(), len, timeout_ms);
        if (body < len)
            return timeout_ms >= 0 ? ReadStatus::Timeout
                                   : ReadStatus::Torn;
    }
    if (crc32(payload.data(), payload.size()) != crc)
        return ReadStatus::Bad;

    out.type = static_cast<MsgType>(type);
    out.payload = std::move(payload);
    return ReadStatus::Ok;
}

} // namespace ddsc::net
