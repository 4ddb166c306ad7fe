#include "mapped.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/logging.hh"
#include "support/wire.hh"
#include "trace/format.hh"

namespace ddsc
{

namespace
{

using namespace trace_format;

/**
 * Allocation-free cursor over a MappedTraceSource.
 *
 * Holds a raw byte pointer into the current block and a countdown to
 * its end; advancing is a memcpy + pointer bump, with one atomic load
 * (the block's verified flag) per block crossing.
 */
class MappedTraceCursor : public TraceSource
{
  public:
    explicit MappedTraceCursor(const MappedTraceSource &src)
        : src_(&src)
    {
        reset();
    }

    bool
    next(TraceRecord &rec) override
    {
        if (pos_ >= count_)
            return false;
        if (inBlock_ == blockRecords_)
            enterBlock(block_ + 1);
        DiskRecord d;
        std::memcpy(&d, cur_, sizeof d);
        rec = unpack(d);
        cur_ += sizeof d;
        ++inBlock_;
        ++pos_;
        return true;
    }

    void
    reset() override
    {
        pos_ = 0;
        count_ = src_->recordCount();
        if (count_ > 0) {
            enterBlock(0);
        } else {
            cur_ = nullptr;
            inBlock_ = 0;
            blockRecords_ = 0;
        }
    }

  private:
    void
    enterBlock(std::uint64_t block)
    {
        src_->validateBlock(block);
        block_ = block;
        cur_ = src_->blockData(block);
        inBlock_ = 0;
        blockRecords_ = src_->recordsInBlock(block);
    }

    const MappedTraceSource *src_;
    const unsigned char *cur_ = nullptr;
    std::uint64_t pos_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t block_ = 0;
    std::uint64_t inBlock_ = 0;
    std::uint64_t blockRecords_ = 0;
};

} // anonymous namespace

std::uint32_t
MappedTraceSource::headerBytes()
{
    return kV4HeaderBytes;
}

MappedTraceSource::MappedTraceSource(const std::string &path)
    : path_(path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        ddsc_fatal("cannot open trace file '%s'", path.c_str());
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        ddsc_fatal("cannot stat trace file '%s'", path.c_str());
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
    if (size_ < sizeof(V4Header)) {
        ::close(fd);
        ddsc_fatal("'%s' is too small for a v4 trace header (%llu "
                   "bytes needed)", path.c_str(),
                   static_cast<unsigned long long>(sizeof(V4Header)));
    }
    void *map = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);     // the mapping keeps the file alive
    if (map == MAP_FAILED)
        ddsc_fatal("cannot mmap trace file '%s' (%llu bytes)",
                   path.c_str(),
                   static_cast<unsigned long long>(size_));
    base_ = static_cast<const unsigned char *>(map);

    // Structural validation, eager and O(blocks): the streaming
    // reader's open-time layout checks (trace/format.hh); the
    // per-block record CRCs are settled lazily by validateBlock().
    V4Header hdr;
    std::memcpy(&hdr, base_, sizeof hdr);
    if (std::memcmp(hdr.magic, kMagic, sizeof kMagic) != 0)
        ddsc_fatal("'%s' is not a ddsc trace file", path.c_str());
    if (hdr.version != 4)
        ddsc_fatal("trace file '%s' has version %u but the mapped "
                   "reader serves only v4; use the streaming reader "
                   "or rebuild the trace with ddsc-asm",
                   path.c_str(), hdr.version);
    const V4Geometry geo = checkV4Layout(path, hdr, size_);
    blockSize_ = hdr.blockSize;
    perBlock_ = geo.perBlock;
    count_ = hdr.count;
    digest_ = hdr.digest;
    numBlocks_ = geo.numBlocks;
    checkV4Footer(path, base_ + geo.footerOff, geo);
    // The CRC table is 4-byte aligned in the file (header page and
    // blocks are 4096-multiples, the footer head is 16 bytes), so it
    // can be pointed at in place.
    blockCrcs_ = reinterpret_cast<const std::uint32_t *>(
        base_ + geo.footerOff + sizeof(V4FooterHead));

    blockState_ =
        std::make_unique<std::atomic<std::uint8_t>[]>(numBlocks_);
    for (std::uint64_t i = 0; i < numBlocks_; ++i)
        blockState_[i].store(0, std::memory_order_relaxed);
}

MappedTraceSource::~MappedTraceSource()
{
    if (base_)
        ::munmap(const_cast<unsigned char *>(base_), size_);
}

std::unique_ptr<TraceSource>
MappedTraceSource::cursor() const
{
    return std::make_unique<MappedTraceCursor>(*this);
}

std::uint64_t
MappedTraceSource::recordsInBlock(std::uint64_t block) const
{
    return std::min(perBlock_, count_ - block * perBlock_);
}

void
MappedTraceSource::validateBlock(std::uint64_t block) const
{
    ddsc_assert(block < numBlocks_, "block index out of range");
    if (blockState_[block].load(std::memory_order_acquire) == 1)
        return;
    // Racing validators both compute the same CRC over the same
    // immutable bytes; whoever finishes settles the flag.
    const std::uint64_t bytes =
        recordsInBlock(block) * sizeof(DiskRecord);
    const std::uint32_t crc =
        support::wire::crc32(blockData(block), bytes, 0);
    if (crc != blockCrcs_[block])
        ddsc_fatal("trace file '%s' is corrupt: block %llu (records "
                   "%llu..%llu, byte offset %llu) checksums to 0x%08x "
                   "but the footer table says 0x%08x",
                   path_.c_str(),
                   static_cast<unsigned long long>(block),
                   static_cast<unsigned long long>(block * perBlock_),
                   static_cast<unsigned long long>(
                       block * perBlock_ + recordsInBlock(block) - 1),
                   static_cast<unsigned long long>(
                       kV4HeaderBytes + block * blockSize_),
                   crc, blockCrcs_[block]);
    blockState_[block].store(1, std::memory_order_release);
}

void
MappedTraceSource::evict() const
{
    if (!base_ || size_ == 0)
        return;
    // MADV_DONTNEED on a shared file mapping drops the pages from this
    // mapping; clean page-cache copies may survive, which is fine —
    // the point is releasing *charged* residency, and re-reads refault
    // identical bytes either way.
    ::madvise(const_cast<unsigned char *>(base_), size_, MADV_DONTNEED);
    evictions_.fetch_add(1, std::memory_order_relaxed);
}

bool
MappedTraceSource::probe(const std::string &path, std::uint64_t *digest,
                         std::uint64_t *count)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return false;
    V4Header hdr;
    const bool ok =
        std::fread(&hdr, sizeof hdr, 1, file) == 1 &&
        std::memcmp(hdr.magic, kMagic, sizeof kMagic) == 0 &&
        hdr.version == 4 &&
        hdr.recordBytes == sizeof(DiskRecord) &&
        hdr.headerCrc == support::wire::crc32(
            &hdr, offsetof(V4Header, headerCrc), 0);
    std::fclose(file);
    if (!ok)
        return false;
    if (digest)
        *digest = hdr.digest;
    if (count)
        *count = hdr.count;
    return true;
}

void
TraceResidencyManager::setBudgetBytes(std::uint64_t budget)
{
    std::lock_guard<std::mutex> lock(mutex_);
    budget_ = budget;
}

void
TraceResidencyManager::touch(const SharedTrace &trace)
{
    if (trace.mappedBytes() == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(&trace);
    if (it != index_.end()) {
        it->second->resident = true;
        lru_.splice(lru_.begin(), lru_, it->second);
    } else {
        lru_.push_front(Entry{&trace, true});
        index_[&trace] = lru_.begin();
    }
    if (budget_ == 0)
        return;
    std::uint64_t charged = 0;
    for (const Entry &e : lru_) {
        if (e.resident)
            charged += e.trace->mappedBytes();
    }
    // Coldest first; the just-touched trace (front) is exempt so a
    // single over-budget trace still sweeps.
    for (auto rit = lru_.rbegin();
         charged > budget_ && rit != lru_.rend(); ++rit) {
        if (!rit->resident || rit->trace == &trace)
            continue;
        rit->trace->evict();
        rit->resident = false;
        ++evictions_;
        charged -= rit->trace->mappedBytes();
    }
}

void
TraceResidencyManager::forget(const SharedTrace &trace)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(&trace);
    if (it == index_.end())
        return;
    lru_.erase(it->second);
    index_.erase(it);
}

TraceResidencyManager::Counters
TraceResidencyManager::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Counters c;
    c.budgetBytes = budget_;
    c.evictions = evictions_;
    for (const Entry &e : lru_) {
        c.mappedBytes += e.trace->mappedBytes();
        if (e.resident)
            c.residentBytes += e.trace->mappedBytes();
    }
    return c;
}

} // namespace ddsc
