#include "format.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>

#include "support/logging.hh"
#include "support/wire.hh"

namespace ddsc::trace_format
{

void
rejectLengthBomb(const std::string &path, std::uint64_t count)
{
    // The divisor leaves generous headroom for header, block padding,
    // and footer-table overhead on top of the 40 record bytes.
    constexpr std::uint64_t kMaxRepresentable =
        std::numeric_limits<std::uint64_t>::max() /
        (sizeof(DiskRecord) * 4);
    if (count > kMaxRepresentable) {
        ddsc_fatal("trace file '%s': header promises %llu records, "
                   "whose byte span overflows a 64-bit offset; the "
                   "count field is corrupt (length bomb) and is "
                   "rejected before any offset arithmetic",
                   path.c_str(),
                   static_cast<unsigned long long>(count));
    }
}

V4Geometry
checkV4Layout(const std::string &path, const V4Header &hdr,
              std::uint64_t fileSize)
{
    if (hdr.headerCrc != support::wire::crc32(
            &hdr, offsetof(V4Header, headerCrc), 0))
        ddsc_fatal("trace file '%s': header CRC mismatch; the header "
                   "is corrupt", path.c_str());
    if (hdr.recordBytes != sizeof(DiskRecord))
        ddsc_fatal("trace file '%s': header says %u-byte records but "
                   "this build uses %llu-byte records",
                   path.c_str(), hdr.recordBytes,
                   static_cast<unsigned long long>(sizeof(DiskRecord)));
    if (hdr.blockSize == 0 || hdr.blockSize % kV4HeaderBytes != 0 ||
        hdr.blockSize > kV4MaxBlockSize)
        ddsc_fatal("trace file '%s': invalid block size %u (must be a "
                   "nonzero multiple of %u, at most %u)",
                   path.c_str(), hdr.blockSize, kV4HeaderBytes,
                   kV4MaxBlockSize);
    if (fileSize < kV4HeaderBytes)
        ddsc_fatal("trace file '%s' truncated inside its header page: "
                   "%llu of %u bytes", path.c_str(),
                   static_cast<unsigned long long>(fileSize),
                   kV4HeaderBytes);
    rejectLengthBomb(path, hdr.count);

    V4Geometry geo;
    geo.perBlock = v4RecordsPerBlock(hdr.blockSize);
    geo.numBlocks = hdr.count == 0
        ? 0 : (hdr.count + geo.perBlock - 1) / geo.perBlock;
    geo.footerOff = v4BlockOffset(geo.numBlocks, hdr.blockSize);
    geo.footerBytes = sizeof(V4FooterHead) +
        geo.numBlocks * sizeof(std::uint32_t) + sizeof(std::uint32_t);
    const std::uint64_t expected = geo.footerOff + geo.footerBytes;
    if (fileSize < expected) {
        if (fileSize < geo.footerOff) {
            const std::uint64_t block =
                (fileSize - kV4HeaderBytes) / hdr.blockSize;
            const std::uint64_t firstRec = block * geo.perBlock;
            ddsc_fatal("trace file '%s' truncated: header promises "
                       "%llu records in %llu blocks (%llu bytes) but "
                       "the file ends at byte offset %llu, inside "
                       "block %llu (records %llu..%llu)",
                       path.c_str(),
                       static_cast<unsigned long long>(hdr.count),
                       static_cast<unsigned long long>(geo.numBlocks),
                       static_cast<unsigned long long>(expected),
                       static_cast<unsigned long long>(fileSize),
                       static_cast<unsigned long long>(block),
                       static_cast<unsigned long long>(firstRec),
                       static_cast<unsigned long long>(
                           std::min(hdr.count, firstRec + geo.perBlock) -
                           1));
        }
        ddsc_fatal("trace file '%s' truncated inside its footer: the "
                   "CRC table needs bytes %llu..%llu but the file "
                   "ends at %llu",
                   path.c_str(),
                   static_cast<unsigned long long>(geo.footerOff),
                   static_cast<unsigned long long>(expected),
                   static_cast<unsigned long long>(fileSize));
    }
    if (fileSize > expected)
        ddsc_fatal("trace file '%s' has %llu bytes of trailing "
                   "garbage after its footer (byte offset %llu); the "
                   "count field and file size disagree",
                   path.c_str(),
                   static_cast<unsigned long long>(fileSize - expected),
                   static_cast<unsigned long long>(expected));
    return geo;
}

void
checkV4Footer(const std::string &path, const unsigned char *footer,
              const V4Geometry &geo)
{
    V4FooterHead head;
    std::memcpy(&head, footer, sizeof head);
    if (std::memcmp(head.magic, kFooterMagic, sizeof kFooterMagic) != 0)
        ddsc_fatal("trace file '%s': footer magic missing at byte "
                   "offset %llu; the file was not finalized",
                   path.c_str(),
                   static_cast<unsigned long long>(geo.footerOff));
    if (head.blockCount != geo.numBlocks)
        ddsc_fatal("trace file '%s': footer lists %u blocks but the "
                   "header count implies %llu",
                   path.c_str(), head.blockCount,
                   static_cast<unsigned long long>(geo.numBlocks));
    const std::uint64_t tableBytes = geo.numBlocks * sizeof(std::uint32_t);
    std::uint32_t tableCrc;
    std::memcpy(&tableCrc, footer + sizeof head + tableBytes,
                sizeof tableCrc);
    if (tableCrc != support::wire::crc32(footer + sizeof head,
                                         tableBytes, 0))
        ddsc_fatal("trace file '%s': block CRC table is corrupt "
                   "(table checksum mismatch)", path.c_str());
}

} // namespace ddsc::trace_format
