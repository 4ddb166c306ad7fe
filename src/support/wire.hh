/**
 * @file
 * Little-endian byte codec and CRC32 for the durability layer.
 *
 * The persistent result cache (src/sim/result_store.cc) and the
 * checksummed trace-file footer both need a tiny, dependency-free way
 * to serialize integers, strings, and maps into a byte buffer and to
 * detect torn or corrupted bytes afterwards.  Everything here is
 * header-only and deterministic: the same values always produce the
 * same bytes, so encoded records can be compared and checksummed.
 *
 * The Reader never throws and never reads out of bounds: any
 * out-of-range read latches ok() to false and yields zero values, so
 * decoding a truncated record degrades into one failed ok() check
 * instead of undefined behaviour.
 */

#ifndef DDSC_SUPPORT_WIRE_HH
#define DDSC_SUPPORT_WIRE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ddsc::support::wire
{

inline void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

inline void
putU32(std::string &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void
putU64(std::string &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** u32 length prefix + raw bytes. */
inline void
putString(std::string &out, std::string_view s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s.data(), s.size());
}

/**
 * Bounds-checked sequential reader over an encoded buffer.  After any
 * failed read, ok() is false and every subsequent read returns zero.
 */
class Reader
{
  public:
    explicit Reader(std::string_view data) : data_(data) {}

    bool ok() const { return ok_; }
    std::size_t remaining() const { return data_.size() - pos_; }

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return static_cast<std::uint8_t>(data_[pos_ - 1]);
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<std::uint8_t>(data_[pos_ - 4 + i]))
                 << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<std::uint8_t>(data_[pos_ - 8 + i]))
                 << (8 * i);
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        if (!take(len))
            return {};
        return std::string(data_.substr(pos_ - len, len));
    }

  private:
    bool
    take(std::size_t n)
    {
        if (!ok_ || data_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    std::string_view data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320, the zlib convention).
 * Chain calls by passing the previous return value as @p seed to
 * checksum data arriving in pieces.
 *
 * Slicing-by-8: eight bytes per step through eight 256-entry tables,
 * table k advancing a byte's contribution past k more zero bytes.
 * Words are assembled byte by byte, so the result does not depend on
 * the host's byte order (compilers fold the shifts into one load).
 */
inline std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t seed = 0)
{
    using Tables = std::array<std::array<std::uint32_t, 256>, 8>;
    static const Tables tables = []() {
        Tables t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < 8; ++k) {
            for (std::uint32_t i = 0; i < 256; ++i) {
                const std::uint32_t c = t[k - 1][i];
                t[k][i] = t[0][c & 0xff] ^ (c >> 8);
            }
        }
        return t;
    }();
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    auto word = [](const std::uint8_t *p) {
        return static_cast<std::uint32_t>(p[0]) |
            static_cast<std::uint32_t>(p[1]) << 8 |
            static_cast<std::uint32_t>(p[2]) << 16 |
            static_cast<std::uint32_t>(p[3]) << 24;
    };
    std::uint32_t crc = seed ^ 0xFFFFFFFFu;
    for (; size >= 8; bytes += 8, size -= 8) {
        const std::uint32_t lo = crc ^ word(bytes);
        const std::uint32_t hi = word(bytes + 4);
        crc = tables[7][lo & 0xff] ^ tables[6][(lo >> 8) & 0xff] ^
            tables[5][(lo >> 16) & 0xff] ^ tables[4][lo >> 24] ^
            tables[3][hi & 0xff] ^ tables[2][(hi >> 8) & 0xff] ^
            tables[1][(hi >> 16) & 0xff] ^ tables[0][hi >> 24];
    }
    for (; size > 0; ++bytes, --size)
        crc = tables[0][(crc ^ *bytes) & 0xff] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

} // namespace ddsc::support::wire

#endif // DDSC_SUPPORT_WIRE_HH
