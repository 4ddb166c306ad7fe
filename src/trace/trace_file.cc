/**
 * @file
 * Streaming binary trace file I/O.
 *
 * The on-disk layouts (DDSCTRC v2/v3 flat records, v4 page-aligned
 * CRC-per-block) live in trace/format.hh, shared with the mmap'd
 * reader in mapped.cc.  This file holds the buffered writer and the
 * streaming reader:
 *
 *  - The writer defaults to v4 and can still emit v3.  count (and for
 *    v4 the stream digest and header CRC) are back-patched on close
 *    and the footer is written last, so an interrupted write is
 *    detectable: a zero count, a size/count mismatch, or a CRC
 *    mismatch.  close() checks fflush and fclose — an ENOSPC that
 *    only surfaces when buffered bytes hit the disk is still a torn
 *    trace and must not report success.
 *
 *  - The reader accepts v2 (no footer), v3 (one trailing CRC), and v4
 *    (per-block CRCs verified as the stream crosses each block).  The
 *    header count is distrusted: counts whose byte span would
 *    overflow u64 or exceed the stat'd file size are rejected before
 *    any offset arithmetic.  Unknown versions are rejected with a
 *    rebuild hint rather than misparsed.
 */

#include "source.hh"

#include <algorithm>
#include <cstring>
#include <sys/stat.h>

#include "support/fault.hh"
#include "support/logging.hh"
#include "support/version.hh"
#include "support/wire.hh"
#include "trace/format.hh"

namespace ddsc
{

namespace
{

using namespace trace_format;

// The format numbers live in support/version.hh so every tool's
// --version banner is guaranteed to match what this file writes.
constexpr std::uint32_t kVersion = support::version::kTraceFormat;
constexpr std::uint32_t kStreamVersion =
    support::version::kTraceStreamFormat;
constexpr std::uint32_t kLegacyVersion =
    support::version::kTraceLegacyFormat;

/** Byte offset of record @p index within a v2/v3 trace file. */
std::uint64_t
recordOffset(std::uint64_t index)
{
    return sizeof(FileHeader) + index * sizeof(DiskRecord);
}

/** Size of @p file in bytes via fstat (the file stays open). */
std::uint64_t
fileSize(std::FILE *file, const std::string &path)
{
    struct stat st;
    if (fstat(fileno(file), &st) != 0)
        ddsc_fatal("cannot stat trace file '%s'", path.c_str());
    return static_cast<std::uint64_t>(st.st_size);
}

} // anonymous namespace

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 std::uint32_t version,
                                 std::uint32_t blockSize)
    : path_(path),
      version_(version == 0 ? kVersion : version)
{
    if (version_ != kVersion && version_ != kStreamVersion) {
        ddsc_fatal("trace writer for '%s': unsupported version %u "
                   "(can write v%u and v%u)",
                   path.c_str(), version_, kStreamVersion, kVersion);
    }
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        ddsc_fatal("cannot open trace file '%s' for writing", path.c_str());
    if (version_ == kVersion) {
        blockSize_ = blockSize == 0 ? kV4DefaultBlockSize : blockSize;
        if (blockSize_ % kV4HeaderBytes != 0 ||
            blockSize_ > kV4MaxBlockSize) {
            ddsc_fatal("trace writer for '%s': block size %u must be "
                       "a multiple of %u and at most %u",
                       path.c_str(), blockSize_, kV4HeaderBytes,
                       kV4MaxBlockSize);
        }
        perBlock_ = v4RecordsPerBlock(blockSize_);
        block_.assign(blockSize_, 0);
        // The header page goes out now with count/digest zero and a
        // CRC that matches those zeros: a never-closed file parses as
        // an empty header over a size mismatch, which readers reject.
        std::vector<unsigned char> page(kV4HeaderBytes, 0);
        V4Header hdr = {};
        std::memcpy(hdr.magic, kMagic, sizeof kMagic);
        hdr.version = version_;
        hdr.blockSize = blockSize_;
        hdr.recordBytes = sizeof(DiskRecord);
        hdr.headerCrc = support::wire::crc32(
            &hdr, offsetof(V4Header, headerCrc), 0);
        std::memcpy(page.data(), &hdr, sizeof hdr);
        if (std::fwrite(page.data(), page.size(), 1, file_) != 1)
            ddsc_fatal("cannot write trace header to '%s'",
                       path.c_str());
    } else {
        FileHeader hdr = {};
        std::memcpy(hdr.magic, kMagic, sizeof kMagic);
        hdr.version = version_;
        hdr.count = 0;
        if (std::fwrite(&hdr, sizeof hdr, 1, file_) != 1)
            ddsc_fatal("cannot write trace header to '%s'",
                       path.c_str());
    }
}

TraceFileWriter::~TraceFileWriter()
{
    close();
}

void
TraceFileWriter::emit(const TraceRecord &rec)
{
    ddsc_assert(file_ != nullptr, "emit() after close()");
    const DiskRecord d = pack(rec);
    if (version_ == kVersion) {
        std::memcpy(block_.data() + inBlock_ * sizeof(DiskRecord), &d,
                    sizeof d);
        digest_.add(rec);
        ++count_;
        if (++inBlock_ == perBlock_)
            flushBlock();
        return;
    }
    // The injection point models fwrite() writing fewer bytes than one
    // record (disk full, quota, signal): the same diagnostic the real
    // short write would produce must fire.
    const bool injected = support::faultShouldFire("trace-short-write");
    if (injected || std::fwrite(&d, sizeof d, 1, file_) != 1) {
        ddsc_fatal("short write to trace file '%s': record %llu "
                   "(byte offset %llu) was not fully written%s",
                   path_.c_str(),
                   static_cast<unsigned long long>(count_),
                   static_cast<unsigned long long>(recordOffset(count_)),
                   injected ? " [injected fault]" : "");
    }
    crc_ = support::wire::crc32(&d, sizeof d, crc_);
    digest_.add(rec);
    ++count_;
}

void
TraceFileWriter::flushBlock()
{
    const std::uint64_t block = blockCrcs_.size();
    const std::uint64_t bytes = inBlock_ * sizeof(DiskRecord);
    // The CRC covers only the records present: the final partial
    // block's zero padding is structure, not payload.
    blockCrcs_.push_back(
        support::wire::crc32(block_.data(), bytes, 0));
    const bool injected = support::faultShouldFire("trace-short-write");
    if (injected ||
        std::fwrite(block_.data(), blockSize_, 1, file_) != 1) {
        ddsc_fatal("short write to trace file '%s': block %llu "
                   "(records %llu..%llu, byte offset %llu) was not "
                   "fully written%s",
                   path_.c_str(),
                   static_cast<unsigned long long>(block),
                   static_cast<unsigned long long>(count_ - inBlock_),
                   static_cast<unsigned long long>(count_ - 1),
                   static_cast<unsigned long long>(
                       v4BlockOffset(block, blockSize_)),
                   injected ? " [injected fault]" : "");
    }
    std::fill(block_.begin(), block_.end(), 0);
    inBlock_ = 0;
}

void
TraceFileWriter::close()
{
    if (!file_)
        return;
    std::uint64_t end = 0;
    if (version_ == kVersion) {
        if (inBlock_ > 0)
            flushBlock();
        // Footer: block CRC table, self-checksummed so a torn footer
        // is distinguishable from a corrupt block.
        V4FooterHead head = {};
        std::memcpy(head.magic, kFooterMagic, sizeof kFooterMagic);
        head.blockCount = static_cast<std::uint32_t>(blockCrcs_.size());
        if (std::fwrite(&head, sizeof head, 1, file_) != 1)
            ddsc_fatal("cannot write trace footer to '%s'",
                       path_.c_str());
        const std::uint64_t tableBytes =
            blockCrcs_.size() * sizeof(std::uint32_t);
        if (tableBytes > 0 &&
            std::fwrite(blockCrcs_.data(), tableBytes, 1, file_) != 1)
            ddsc_fatal("cannot write trace CRC table to '%s'",
                       path_.c_str());
        const std::uint32_t tableCrc = support::wire::crc32(
            blockCrcs_.data(), tableBytes, 0);
        if (std::fwrite(&tableCrc, sizeof tableCrc, 1, file_) != 1)
            ddsc_fatal("cannot write trace CRC table checksum to '%s'",
                       path_.c_str());
        // Back-patch count, digest, and the header CRC over both.
        V4Header hdr = {};
        std::memcpy(hdr.magic, kMagic, sizeof kMagic);
        hdr.version = version_;
        hdr.blockSize = blockSize_;
        hdr.count = count_;
        hdr.digest = digest_.value();
        hdr.recordBytes = sizeof(DiskRecord);
        hdr.headerCrc = support::wire::crc32(
            &hdr, offsetof(V4Header, headerCrc), 0);
        if (std::fseek(file_, 0, SEEK_SET) != 0)
            ddsc_fatal("cannot seek to trace header of '%s'",
                       path_.c_str());
        if (std::fwrite(&hdr, sizeof hdr, 1, file_) != 1)
            ddsc_fatal("cannot finalize trace header of '%s'",
                       path_.c_str());
        end = v4BlockOffset(blockCrcs_.size(), blockSize_) +
              sizeof(V4FooterHead) + tableBytes + sizeof tableCrc;
    } else {
        // Records, then footer, then the back-patched count: a crash
        // before this point leaves count == 0 (or a short file), both
        // of which the reader rejects with a diagnosis.
        FileFooter footer = {};
        std::memcpy(footer.magic, kFooterMagic, sizeof kFooterMagic);
        footer.crc = crc_;
        if (std::fwrite(&footer, sizeof footer, 1, file_) != 1)
            ddsc_fatal("cannot write trace footer to '%s'",
                       path_.c_str());
        if (std::fseek(file_, offsetof(FileHeader, count),
                       SEEK_SET) != 0)
            ddsc_fatal("cannot seek to trace header of '%s'",
                       path_.c_str());
        if (std::fwrite(&count_, sizeof count_, 1, file_) != 1)
            ddsc_fatal("cannot finalize trace header of '%s'",
                       path_.c_str());
        end = recordOffset(count_) + sizeof(FileFooter);
    }
    // Everything above went through stdio's buffer; the bytes may not
    // have reached the kernel yet.  A flush or close failure here is
    // ENOSPC/EIO surfacing late — the trace on disk is torn and the
    // caller must not be told it was written.  The injection point
    // models exactly that late failure.
    const bool injected = support::faultShouldFire("trace-close-fail");
    if (injected || std::fflush(file_) != 0) {
        ddsc_fatal("trace file '%s' torn at close: flushing %llu "
                   "records (%llu bytes) failed%s",
                   path_.c_str(),
                   static_cast<unsigned long long>(count_),
                   static_cast<unsigned long long>(end),
                   injected ? " [injected fault]" : "");
    }
    const int rc = std::fclose(file_);
    file_ = nullptr;
    if (rc != 0) {
        ddsc_fatal("trace file '%s' torn at close: fclose failed "
                   "after %llu records (%llu bytes)",
                   path_.c_str(),
                   static_cast<unsigned long long>(count_),
                   static_cast<unsigned long long>(end));
    }
}

TraceFileSource::TraceFileSource(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        ddsc_fatal("cannot open trace file '%s'", path.c_str());
    FileHeader hdr = {};
    if (std::fread(&hdr, sizeof hdr, 1, file_) != 1)
        ddsc_fatal("'%s' is too small for a trace header (%llu bytes "
                   "needed)", path.c_str(),
                   static_cast<unsigned long long>(sizeof hdr));
    if (std::memcmp(hdr.magic, kMagic, sizeof kMagic) != 0)
        ddsc_fatal("'%s' is not a ddsc trace file", path.c_str());
    if (hdr.version != kVersion && hdr.version != kStreamVersion &&
        hdr.version != kLegacyVersion) {
        ddsc_fatal("trace file '%s' has version %u but this reader "
                   "knows only v%u, v%u, and v%u; rebuild the trace "
                   "with ddsc-asm", path.c_str(), hdr.version,
                   kLegacyVersion, kStreamVersion, kVersion);
    }
    version_ = hdr.version;
    const std::uint64_t size = fileSize(file_, path);

    if (version_ == kVersion) {
        // v4: re-read the full 40-byte header (the 24-byte probe above
        // only covers the v2/v3 prefix).
        V4Header v4 = {};
        if (std::fseek(file_, 0, SEEK_SET) != 0 ||
            std::fread(&v4, sizeof v4, 1, file_) != 1)
            ddsc_fatal("'%s' is too small for a v4 trace header "
                       "(%llu bytes needed)", path.c_str(),
                       static_cast<unsigned long long>(sizeof v4));
        const V4Geometry geo = checkV4Layout(path, v4, size);
        blockSize_ = v4.blockSize;
        perBlock_ = geo.perBlock;
        count_ = v4.count;
        headerDigest_ = v4.digest;

        // Read and verify the footer now; individual blocks are
        // checked lazily as the stream crosses them.
        std::vector<unsigned char> footer(geo.footerBytes);
        if (std::fseek(file_, static_cast<long>(geo.footerOff),
                       SEEK_SET) != 0)
            ddsc_fatal("cannot seek to footer of trace file '%s'",
                       path.c_str());
        if (std::fread(footer.data(), footer.size(), 1, file_) != 1)
            ddsc_fatal("trace file '%s': cannot read footer",
                       path.c_str());
        checkV4Footer(path, footer.data(), geo);
        blockCrcs_.resize(geo.numBlocks);
        if (geo.numBlocks > 0)
            std::memcpy(blockCrcs_.data(),
                        footer.data() + sizeof(V4FooterHead),
                        geo.numBlocks * sizeof(std::uint32_t));
        reset();
        return;
    }

    count_ = hdr.count;

    // Cross-check the count field against the actual file size before
    // serving a single record, so a torn or truncated file fails here
    // with a byte-accurate diagnosis instead of mid-simulation.  The
    // length-bomb guard runs first: a count near 2^64 would wrap
    // recordOffset() into a small value the checks below accept.
    rejectLengthBomb(path, count_);
    const std::uint64_t footer_bytes =
        version_ == kStreamVersion ? sizeof(FileFooter) : 0;
    const std::uint64_t expected = recordOffset(count_) + footer_bytes;
    if (size < expected) {
        const std::uint64_t record_bytes =
            size < sizeof(FileHeader) ? 0 : size - sizeof(FileHeader);
        ddsc_fatal("trace file '%s' truncated: header promises %llu "
                   "records (%llu bytes) but the file ends at byte "
                   "offset %llu, inside record %llu",
                   path.c_str(),
                   static_cast<unsigned long long>(count_),
                   static_cast<unsigned long long>(expected),
                   static_cast<unsigned long long>(size),
                   static_cast<unsigned long long>(
                       record_bytes / sizeof(DiskRecord)));
    }
    if (size > expected) {
        ddsc_fatal("trace file '%s' has %llu bytes of trailing garbage "
                   "after record %llu (byte offset %llu); the count "
                   "field and file size disagree",
                   path.c_str(),
                   static_cast<unsigned long long>(size - expected),
                   static_cast<unsigned long long>(count_),
                   static_cast<unsigned long long>(expected));
    }

    if (version_ == kStreamVersion) {
        // Verify the footer CRC over every record byte up front; the
        // one extra streaming pass is what makes a bit flip a loud
        // open-time failure instead of silently skewed results.
        std::uint32_t crc = 0;
        DiskRecord d;
        for (std::uint64_t i = 0; i < count_; ++i) {
            if (std::fread(&d, sizeof d, 1, file_) != 1)
                ddsc_fatal("trace file '%s': short read at byte offset "
                           "%llu while checksumming record %llu of %llu",
                           path.c_str(),
                           static_cast<unsigned long long>(
                               recordOffset(i)),
                           static_cast<unsigned long long>(i),
                           static_cast<unsigned long long>(count_));
            crc = support::wire::crc32(&d, sizeof d, crc);
        }
        FileFooter footer = {};
        if (std::fread(&footer, sizeof footer, 1, file_) != 1)
            ddsc_fatal("trace file '%s': cannot read footer",
                       path.c_str());
        if (std::memcmp(footer.magic, kFooterMagic,
                        sizeof kFooterMagic) != 0)
            ddsc_fatal("trace file '%s': footer magic missing at byte "
                       "offset %llu; the file was not finalized",
                       path.c_str(),
                       static_cast<unsigned long long>(
                           recordOffset(count_)));
        if (footer.crc != crc)
            ddsc_fatal("trace file '%s' is corrupt: footer CRC32 "
                       "0x%08x but records checksum to 0x%08x",
                       path.c_str(), footer.crc, crc);
    }
    reset();
}

TraceFileSource::~TraceFileSource()
{
    if (file_)
        std::fclose(file_);
}

bool
TraceFileSource::next(TraceRecord &rec)
{
    if (read_ >= count_)
        return false;
    DiskRecord d;
    const std::uint64_t offset =
        version_ == kVersion
            ? v4BlockOffset(read_ / perBlock_, blockSize_) +
                  inBlock_ * sizeof(DiskRecord)
            : recordOffset(read_);
    // Injection point for fread() returning short (I/O error, file
    // shrunk underneath us after the open-time validation).
    const bool injected = support::faultShouldFire("trace-short-read");
    if (injected || std::fread(&d, sizeof d, 1, file_) != 1) {
        ddsc_fatal("trace file '%s': short read at byte offset %llu "
                   "(record %llu of %llu)%s",
                   path_.c_str(),
                   static_cast<unsigned long long>(offset),
                   static_cast<unsigned long long>(read_),
                   static_cast<unsigned long long>(count_),
                   injected ? " [injected fault]" : "");
    }
    rec = unpack(d);
    ++read_;
    if (version_ == kVersion) {
        blockCrc_ = support::wire::crc32(&d, sizeof d, blockCrc_);
        ++inBlock_;
        const std::uint64_t block = (read_ - 1) / perBlock_;
        const std::uint64_t inThisBlock =
            std::min(perBlock_, count_ - block * perBlock_);
        if (inBlock_ == inThisBlock) {
            // Block complete: settle its CRC before serving anything
            // from the next one, so corruption is pinned to a block.
            if (blockCrc_ != blockCrcs_[block])
                ddsc_fatal("trace file '%s' is corrupt: block %llu "
                           "(records %llu..%llu, byte offset %llu) "
                           "checksums to 0x%08x but the footer table "
                           "says 0x%08x",
                           path_.c_str(),
                           static_cast<unsigned long long>(block),
                           static_cast<unsigned long long>(
                               block * perBlock_),
                           static_cast<unsigned long long>(read_ - 1),
                           static_cast<unsigned long long>(
                               v4BlockOffset(block, blockSize_)),
                           blockCrc_, blockCrcs_[block]);
            blockCrc_ = 0;
            inBlock_ = 0;
            if (read_ < count_ &&
                std::fseek(file_,
                           static_cast<long>(
                               v4BlockOffset(block + 1, blockSize_)),
                           SEEK_SET) != 0)
                ddsc_fatal("cannot seek to block %llu of trace file "
                           "'%s'",
                           static_cast<unsigned long long>(block + 1),
                           path_.c_str());
        }
    }
    return true;
}

void
TraceFileSource::reset()
{
    const long start = version_ == kVersion
                           ? static_cast<long>(kV4HeaderBytes)
                           : static_cast<long>(sizeof(FileHeader));
    if (std::fseek(file_, start, SEEK_SET) != 0)
        ddsc_fatal("cannot rewind trace file '%s'", path_.c_str());
    read_ = 0;
    inBlock_ = 0;
    blockCrc_ = 0;
}

} // namespace ddsc
