/**
 * @file
 * On-disk DDSCTRC trace layouts, shared by the streaming reader/writer
 * (trace_file.cc) and the mmap'd reader (mapped.cc), and the v4
 * layout checks both readers run at open (format.cc).
 *
 * All three versions store fixed-size packed structs in little-endian
 * byte order.  v2/v3 predate the mmap path and were historically
 * written as native-endian struct fwrites while the format comment
 * claimed little-endian; the compile-time assert below resolves that
 * contradiction by refusing to build the raw-struct I/O on a
 * big-endian host at all.  v4 inherits the same record struct, so the
 * assert also pins the mmap'd in-place reinterpretation: on every
 * platform this code compiles on, the bytes in the file *are*
 * little-endian.
 *
 * v2/v3 layout (stream-only):
 *   FileHeader   24 B   magic "DDSCTRC1", version u32, pad, count u64
 *   DiskRecord   40 B   x count
 *   FileFooter   16 B   magic "DDSCEOF1", crc32(all records), pad
 *                       (v3 only; v2 files end after the records)
 *
 * v4 layout (mmap'able, page-aligned, CRC-per-block):
 *   V4Header     40 B   at offset 0, inside a 4096 B zero-padded
 *                       header page; magic "DDSCTRC1", version=4,
 *                       blockSize u32 (multiple of 4096), count u64,
 *                       digest u64 (FNV-1a record digest, see
 *                       RecordDigest), recordBytes u32 (=40),
 *                       headerCrc u32 (crc32 of the preceding 36 B)
 *   data blocks  blockSize B each, starting at offset 4096; block i
 *                holds records [i*perBlock, ...) packed back-to-back,
 *                zero-padded to blockSize (records never straddle a
 *                block boundary); perBlock = blockSize / 40
 *   V4FooterHead 16 B   magic "DDSCEOF1", blockCount u32, pad
 *   crc table    blockCount x u32   crc32 of each block's *record*
 *                bytes (padding excluded, so the final partial block
 *                checksums only what it holds)
 *   tableCrc     u32    crc32 of the crc table bytes
 *
 * count, digest, and headerCrc are back-patched on close; the footer
 * is written last.  A crash mid-write leaves count == 0 with a valid
 * headerCrc, which readers reject as a size/count mismatch.
 */

#ifndef DDSC_TRACE_FORMAT_HH
#define DDSC_TRACE_FORMAT_HH

#include <bit>
#include <cstdint>
#include <string>

#include "trace/record.hh"

namespace ddsc::trace_format
{

// Raw structs are both fwritten and mmap-reinterpreted in place; the
// format is defined as little-endian, so big-endian hosts would need a
// byte-swapping reader that nobody has written.  Fail the build, not
// the user's data.
static_assert(std::endian::native == std::endian::little,
              "DDSCTRC layouts are little-endian on disk; raw-struct "
              "trace I/O requires a little-endian host");

constexpr char kMagic[8] = {'D', 'D', 'S', 'C', 'T', 'R', 'C', '1'};
constexpr char kFooterMagic[8] =
    {'D', 'D', 'S', 'C', 'E', 'O', 'F', '1'};

/** v2/v3 file header. */
struct FileHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t pad;
    std::uint64_t count;
};

/** v3 file footer. */
struct FileFooter
{
    char magic[8];
    std::uint32_t crc;
    std::uint32_t pad;
};

static_assert(sizeof(FileHeader) == 24, "header layout changed");
static_assert(sizeof(FileFooter) == 16, "footer layout changed");

/** On-disk record; kept packed and explicitly sized.  Shared by every
 *  format version. */
struct DiskRecord
{
    std::uint64_t pc;
    std::uint64_t ea;
    std::uint64_t target;
    std::uint32_t memValue;
    std::int32_t imm;
    std::uint8_t op;
    std::uint8_t cond;
    std::uint8_t rd;
    std::uint8_t rs1;
    std::uint8_t rs2;
    std::uint8_t flags;     // bit0: useImm, bit1: taken
    std::uint8_t pad[2];
};

static_assert(sizeof(DiskRecord) == 40, "disk record layout changed");

/** v4 header; lives at offset 0 of a kV4HeaderBytes page. */
struct V4Header
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t blockSize;
    std::uint64_t count;
    std::uint64_t digest;
    std::uint32_t recordBytes;
    std::uint32_t headerCrc;    ///< crc32 of the 36 bytes before it
};

static_assert(sizeof(V4Header) == 40, "v4 header layout changed");

/** Fixed prefix of the v4 footer; the CRC table and tableCrc follow. */
struct V4FooterHead
{
    char magic[8];
    std::uint32_t blockCount;
    std::uint32_t pad;
};

static_assert(sizeof(V4FooterHead) == 16, "v4 footer layout changed");

/** Size of the zero-padded v4 header page (and the block alignment
 *  quantum blockSize must be a multiple of). */
constexpr std::uint32_t kV4HeaderBytes = 4096;

/** Default v4 block size: 256 KiB => 6553 records per block. */
constexpr std::uint32_t kV4DefaultBlockSize = 256 * 1024;

/** Largest blockSize a reader accepts; a limit this generous is never
 *  the binding constraint, it just keeps a corrupt header from driving
 *  huge allocations. */
constexpr std::uint32_t kV4MaxBlockSize = 1u << 30;

/** Records per block for @p blockSize (>= 1 for any accepted size). */
constexpr std::uint64_t
v4RecordsPerBlock(std::uint32_t blockSize)
{
    return blockSize / sizeof(DiskRecord);
}

/** Byte offset of v4 block @p block. */
constexpr std::uint64_t
v4BlockOffset(std::uint64_t block, std::uint32_t blockSize)
{
    return kV4HeaderBytes + block * blockSize;
}

/** Where a v4 file's blocks and footer lie, from its header. */
struct V4Geometry
{
    std::uint64_t perBlock;     ///< records per block
    std::uint64_t numBlocks;
    std::uint64_t footerOff;    ///< byte offset of the V4FooterHead
    std::uint64_t footerBytes;  ///< footer head + CRC table + tableCrc
};

/**
 * Die when a header's record @p count has a byte span that overflows a
 * u64 (a length bomb): checked before any offset arithmetic, so a
 * count near 2^64 cannot wrap into a small size the truncation checks
 * then accept.  Counts that fit but exceed the file size are left to
 * those checks.  Every version's reader runs it.
 */
void rejectLengthBomb(const std::string &path, std::uint64_t count);

/**
 * The v4 layout checks of both readers, run after each reader's own
 * magic and version checks: the header CRC, the record and block
 * sizes, the header page, the length bomb, then @p fileSize against
 * the size the header's count implies (truncation, naming the block
 * it cut, and trailing garbage).  Dies naming the first fault;
 * returns the file's geometry otherwise.
 */
V4Geometry checkV4Layout(const std::string &path, const V4Header &hdr,
                         std::uint64_t fileSize);

/**
 * The footer checks of both readers: the magic, the block count and
 * the CRC table's own checksum, over the @p geo.footerBytes bytes at
 * @p footer of a file that passed checkV4Layout().  Dies naming the
 * first fault.
 */
void checkV4Footer(const std::string &path, const unsigned char *footer,
                   const V4Geometry &geo);

inline DiskRecord
pack(const TraceRecord &rec)
{
    DiskRecord d = {};
    d.pc = rec.pc;
    d.ea = rec.ea;
    d.target = rec.target;
    d.memValue = rec.memValue;
    d.imm = rec.imm;
    d.op = static_cast<std::uint8_t>(rec.op);
    d.cond = static_cast<std::uint8_t>(rec.cond);
    d.rd = rec.rd;
    d.rs1 = rec.rs1;
    d.rs2 = rec.rs2;
    d.flags = (rec.useImm ? 1 : 0) | (rec.taken ? 2 : 0);
    return d;
}

inline TraceRecord
unpack(const DiskRecord &d)
{
    TraceRecord rec;
    rec.pc = d.pc;
    rec.ea = d.ea;
    rec.target = d.target;
    rec.memValue = d.memValue;
    rec.imm = d.imm;
    rec.op = static_cast<Opcode>(d.op);
    rec.cond = static_cast<Cond>(d.cond);
    rec.rd = d.rd;
    rec.rs1 = d.rs1;
    rec.rs2 = d.rs2;
    rec.useImm = (d.flags & 1) != 0;
    rec.taken = (d.flags & 2) != 0;
    return rec;
}

} // namespace ddsc::trace_format

#endif // DDSC_TRACE_FORMAT_HH
