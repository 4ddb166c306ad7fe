#include "frontend.hh"

#include <algorithm>
#include <array>

#include "support/logging.hh"

namespace ddsc
{

/** 4 KiB of last-store-seq bytes, epoch-validated (see header). */
struct SpecFrontEnd::StorePage
{
    std::uint64_t epoch = 0;
    std::array<std::uint64_t, kStorePageBytes> seq;
};

/** The record's arcs go straight into its depSeqs slots; annotate()
 *  stores the count and the address mask once the record is done. */
struct SpecFrontEnd::Deps
{
    std::uint64_t *seqs;            ///< &batch.depSeqs[4 * i]
    std::uint8_t count = 0;
    std::uint8_t addressMask = 0;   ///< bit d: seqs[d] feeds the address

    /** Append a RAW producer arc in canonical order (no-op for seq 0,
     *  matching the back-end's treatment of "no producer"). */
    void
    add(std::uint64_t producer_seq, bool address)
    {
        if (producer_seq == 0)
            return;
        ddsc_assert(count < 4, "annotation dep overflow");
        if (address)
            addressMask |= static_cast<std::uint8_t>(1u << count);
        seqs[count++] = producer_seq;
    }
};

namespace
{

/** Predict @p rec's loaded value with @p pred, flag the outcome, and
 *  train it with the actual value. */
template <typename ValuePredictor>
void
predictValue(ValuePredictor &pred, const TraceRecord &rec,
             std::uint16_t &flags)
{
    const ValuePrediction vp = pred.predict(rec.pc);
    if (vp.usable) {
        flags |= ann::kFlagVpredUsable;
        if (vp.value == rec.memValue)
            flags |= ann::kFlagVpredCorrect;
    }
    pred.update(rec.pc, rec.memValue);
}

} // anonymous namespace

SpecFrontEnd::SpecFrontEnd(const MachineConfig &config)
    : realCti_(config.realCtiPrediction),
      collapseColumns_(config.collapsing),
      collapseTable_(CollapseColumnTable::instance()),
      bpred_(std::make_unique<CombiningPredictor>(config.bpredIndexBits)),
      ras_(kRasDepth)
{
    if (config.loadSpec == LoadSpecMode::Real) {
        addrPred_ = makeAddressPredictor(config.addrPredKind,
                                         kAddrPredIndexBits,
                                         config.addrConfidenceThreshold);
    }
    if (config.memDep == MemDepMode::Predicted) {
        memDepPred_ = std::make_unique<spec::MemDepPredictor>(
            kMemDepIndexBits, kMemDepConfidenceThreshold);
    }
    if (config.loadValuePrediction) {
        if (config.valuePredKind == ValuePredKind::LastValue) {
            lastValuePred_ = std::make_unique<LoadValuePredictor>(
                kVpredIndexBits, kVpredConfidenceThreshold);
        } else {
            fcmStridePred_ = std::make_unique<spec::FcmStrideValuePredictor>(
                kVpredIndexBits, kVpredConfidenceThreshold,
                kVpredHistoryLength);
        }
    }
}

SpecFrontEnd::~SpecFrontEnd() = default;

void
SpecFrontEnd::reset()
{
    bpred_->reset();
    if (addrPred_)
        addrPred_->reset();
    if (memDepPred_)
        memDepPred_->reset();
    if (lastValuePred_)
        lastValuePred_->reset();
    if (fcmStridePred_)
        fcmStridePred_->reset();
    ras_.reset();
    itb_.reset();
    std::fill(std::begin(lastRegWriter_), std::end(lastRegWriter_),
              std::uint64_t{0});
    lastCCWriter_ = 0;
    lastBarrier_ = 0;
    lastStoreSeq_ = 0;
    // Seqs restart at 1, so stale store pages must not be consulted:
    // bump the epoch and let pages lazily re-zero on first touch.
    ++storeEpoch_;
    storePageCache_ = nullptr;
    storePageCacheBase_ = 1;
    nextSeq_ = 1;
    nextBbId_ = 0;
    trains_ = FrontEndTrainCounts{};
}

SpecFrontEnd::StorePage *
SpecFrontEnd::storePage(std::uint64_t base, bool create)
{
    if (base == storePageCacheBase_ &&
        (storePageCache_ != nullptr || !create))
        return storePageCache_;
    const auto it = storePages_.find(base);
    StorePage *page;
    if (it != storePages_.end()) {
        page = it->second.get();
    } else {
        if (!create) {
            // Negative results are cached too: a loop of loads over a
            // never-stored page costs one hash probe, not one per load.
            storePageCacheBase_ = base;
            storePageCache_ = nullptr;
            return nullptr;
        }
        page = storePages_.emplace(base, std::make_unique<StorePage>())
                   .first->second.get();
    }
    if (page->epoch != storeEpoch_) {
        page->seq.fill(0);
        page->epoch = storeEpoch_;
    }
    storePageCacheBase_ = base;
    storePageCache_ = page;
    return page;
}

std::uint64_t
SpecFrontEnd::lastStoreTo(const TraceRecord &rec)
{
    std::uint64_t producer = 0;
    const StorePage *page = nullptr;
    std::uint64_t page_base = 1;    // unaligned = no page yet
    for (unsigned b = 0; b < rec.memSize(); ++b) {
        const std::uint64_t addr = rec.ea + b;
        const std::uint64_t base = addr & ~(kStorePageBytes - 1);
        if (base != page_base) {
            page = storePage(base, /*create=*/false);
            page_base = base;
        }
        if (page)
            producer = std::max(producer,
                                page->seq[addr & (kStorePageBytes - 1)]);
    }
    return producer;
}

void
SpecFrontEnd::addMemoryArc(const TraceRecord &rec, std::uint64_t seq,
                           std::uint16_t &flags, Deps &deps)
{
    const std::uint64_t producer = lastStoreTo(rec);
    if (!memDepPred_) {
        // The paper's model: the memory arc (if any) is the last arc,
        // appended after data/address/cc producers.
        deps.add(producer, false);
        return;
    }

    const bool predicted = memDepPred_->predictDependent(rec.pc);
    // A producer far enough in the past has long since retired, so
    // issuing past it cannot squash; train "independent" for those.
    const bool dependent =
        producer != 0 && seq - producer <= kMemDepTrainDistance;
    memDepPred_->update(rec.pc, dependent);
    ++trains_.memdep;

    if (predicted)
        flags |= ann::kFlagMemDepPredicted;
    if (producer != 0) {
        // The true arc always travels with the annotation; the back-end
        // enforces it (predicted dependent) or speculates past it and
        // squashes on violation (predicted independent).
        flags |= ann::kFlagMemDepActual;
        deps.add(producer, false);
    } else if (predicted && lastStoreSeq_ != 0 && deps.count < 4) {
        // Predicted dependent, but no store actually conflicts: charge
        // the classic false-dependence cost by waiting on the youngest
        // store.
        flags |= ann::kFlagMemDepFalse;
        deps.add(lastStoreSeq_, false);
    }
}

void
SpecFrontEnd::annotate(FrontEndBatch &batch, std::size_t i)
{
    const TraceRecord &rec = batch.records[i];
    const std::uint64_t seq = nextSeq_++;
    std::uint16_t flags = 0;
    Deps deps{&batch.depSeqs[4 * i]};
    if (collapseColumns_) {
        const CollapseColumns &columns = collapseTable_.of(rec);
        batch.expr[i] = columns.expr;
        batch.sig[i] = columns.sig;
    }
    batch.bbId[i] = nextBbId_;
    if (isControl(rec.cls()))
        ++nextBbId_;                // this instruction ends its block

    // --- control: predict branches, erect barriers -------------------
    if (rec.isCondBranch()) {
        flags |= ann::kFlagCondBranch;
        const bool correct = bpred_->predictAndUpdate(rec.pc, rec.taken);
        ++trains_.branch;
        if (!correct) {
            flags |= ann::kFlagMispredict;
            lastBarrier_ = seq;
        }
    } else if (realCti_) {
        // The paper idealizes these; optionally model them with a
        // return-address stack and an indirect-target buffer.
        switch (rec.cls()) {
          case OpClass::Call:
            ras_.pushCall(rec.pc + 4);
            ++trains_.cti;
            break;
          case OpClass::CallIndirect:
            // The return address is known (push it), but the callee
            // target comes from a register: predict it like an
            // indirect jump.
            ras_.pushCall(rec.pc + 4);
            flags |= ann::kFlagCtiPrediction;
            if (itb_.predict(rec.pc) != rec.target) {
                flags |= ann::kFlagCtiMispredict;
                lastBarrier_ = seq;
            }
            itb_.update(rec.pc, rec.target);
            ++trains_.cti;
            break;
          case OpClass::Ret:
            flags |= ann::kFlagCtiPrediction;
            if (ras_.popReturn() != rec.target) {
                flags |= ann::kFlagCtiMispredict;
                lastBarrier_ = seq;
            }
            ++trains_.cti;
            break;
          case OpClass::IndirectJump:
            flags |= ann::kFlagCtiPrediction;
            if (itb_.predict(rec.pc) != rec.target) {
                flags |= ann::kFlagCtiMispredict;
                lastBarrier_ = seq;
            }
            itb_.update(rec.pc, rec.target);
            ++trains_.cti;
            break;
          default:
            break;      // direct jumps and calls: target in the opcode
        }
    }

    // Younger instructions cannot issue before or during the cycle a
    // mispredicted branch issues.
    batch.barrierSeq[i] = lastBarrier_ != seq ? lastBarrier_ : 0;

    // --- RAW producer seqs, in the back-end's canonical arc order:
    // data sources, address sources, condition codes, memory ----------
    for (const int reg : rec.dataSources()) {
        if (reg >= 0)
            deps.add(lastRegWriter_[reg], false);
    }
    for (const int reg : rec.addressSources()) {
        if (reg >= 0)
            deps.add(lastRegWriter_[reg], true);
    }
    if (rec.readsCC())
        deps.add(lastCCWriter_, false);

    // --- loads: the memory arc, then address and value prediction,
    // each trained by every load in program order whether or not its
    // prediction is used (the paper's Section 3 discipline) ------------
    if (rec.isLoad()) {
        addMemoryArc(rec, seq, flags, deps);
        if (addrPred_) {
            const AddrPrediction pred = addrPred_->predict(rec.pc);
            if (pred.usable) {
                flags |= ann::kFlagPredUsable;
                if (pred.addr == rec.ea)
                    flags |= ann::kFlagPredCorrect;
            }
            addrPred_->update(rec.pc, rec.ea);
            ++trains_.address;
        }
        if (lastValuePred_) {
            predictValue(*lastValuePred_, rec, flags);
            ++trains_.value;
        } else if (fcmStridePred_) {
            predictValue(*fcmStridePred_, rec, flags);
            ++trains_.value;
        }
    }

    // --- update producer tables (after reading them) ------------------
    const int dest = rec.destReg();
    std::uint64_t old_writer = 0;
    if (dest >= 0) {
        // The overwritten previous writer is the node-elimination
        // candidate; whether a live cc value blocks eliminating it is
        // decided *before* this record updates lastCCWriter_ (only
        // setsCC seqs ever land there, so seq equality implies the
        // candidate sets the cc).
        old_writer = lastRegWriter_[dest];
        if (old_writer != 0 && old_writer == lastCCWriter_)
            flags |= ann::kFlagElimCcBlocked;
        lastRegWriter_[dest] = seq;
    }
    batch.elimOldWriter[i] = old_writer;
    if (rec.setsCC())
        lastCCWriter_ = seq;
    if (rec.isStore()) {
        lastStoreSeq_ = seq;
        StorePage *page = nullptr;
        std::uint64_t page_base = 1;
        for (unsigned b = 0; b < rec.memSize(); ++b) {
            const std::uint64_t addr = rec.ea + b;
            const std::uint64_t base = addr & ~(kStorePageBytes - 1);
            if (base != page_base) {
                page = storePage(base, /*create=*/true);
                page_base = base;
            }
            page->seq[addr & (kStorePageBytes - 1)] = seq;
        }
    }
    batch.flags[i] = flags;
    batch.depCount[i] = deps.count;
    batch.depAddrMask[i] = deps.addressMask;
}

std::size_t
SpecFrontEnd::fill(TraceSource &trace, FrontEndBatch &batch,
                   std::size_t max)
{
    batch.sizeColumns(max);
    std::size_t n = 0;
    while (n < max && trace.next(batch.records[n]))
        annotate(batch, n++);
    batch.size_ = n;
    return n;
}

std::string
speculationSummary(const MachineConfig &config)
{
    std::string out;
    const auto step = [&out](const std::string &name) {
        if (!out.empty())
            out += " -> ";
        out += name;
    };
    if (config.collapsing)
        step("collapse(3-1/4-1 interlock columns)");
    if (config.memDep == MemDepMode::Perfect) {
        step("mem-dep(perfect disambiguation)");
    } else {
        step("mem-dep(predicted, " +
             std::to_string(1u << kMemDepIndexBits) +
             " entries, train-dist " +
             std::to_string(kMemDepTrainDistance) + ")");
    }
    if (config.loadSpec == LoadSpecMode::Real)
        step("addr-spec(" +
             std::string(addrPredKindName(config.addrPredKind)) + ")");
    if (config.loadValuePrediction) {
        step(std::string(config.valuePredKind == ValuePredKind::LastValue
                             ? "value-pred(last-value, "
                             : "value-pred(fcm/stride hybrid, ") +
             std::to_string(1u << kVpredIndexBits) + " entries)");
    }
    // Ideal address speculation is no front-end step (the back-end
    // treats every load as predicted correctly); say so rather than
    // listing nothing for it.
    if (config.loadSpec == LoadSpecMode::Ideal)
        out += " [+ ideal address oracle in back-end]";
    return out;
}

} // namespace ddsc
