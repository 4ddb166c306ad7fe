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

SpecFrontEnd::SpecFrontEnd(const MachineConfig &config)
    : realCti_(config.realCtiPrediction),
      bpred_(std::make_unique<CombiningPredictor>(config.bpredIndexBits)),
      ras_(config.rasDepth),
      stack_(config, trains_)
{
}

SpecFrontEnd::~SpecFrontEnd() = default;

void
SpecFrontEnd::reset()
{
    bpred_->reset();
    stack_.reset();
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

void
SpecFrontEnd::annotate(const TraceRecord &rec, InsertAnnotation &out)
{
    const std::uint64_t seq = nextSeq_++;
    out = InsertAnnotation{};
    stack_.annotateRecord(rec, out);    // phase 1: collapse columns
    out.bbId = nextBbId_;
    if (isControl(rec.cls()))
        ++nextBbId_;                // this instruction ends its block

    // --- control: predict branches, erect barriers -------------------
    if (rec.isCondBranch()) {
        out.flags |= InsertAnnotation::kFlagCondBranch;
        const bool correct = bpred_->predictAndUpdate(rec.pc, rec.taken);
        ++trains_.branch;
        if (!correct) {
            out.flags |= InsertAnnotation::kFlagMispredict;
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
            out.flags |= InsertAnnotation::kFlagCtiPrediction;
            if (itb_.predict(rec.pc) != rec.target) {
                out.flags |= InsertAnnotation::kFlagCtiMispredict;
                lastBarrier_ = seq;
            }
            itb_.update(rec.pc, rec.target);
            ++trains_.cti;
            break;
          case OpClass::Ret:
            out.flags |= InsertAnnotation::kFlagCtiPrediction;
            if (ras_.popReturn() != rec.target) {
                out.flags |= InsertAnnotation::kFlagCtiMispredict;
                lastBarrier_ = seq;
            }
            ++trains_.cti;
            break;
          case OpClass::IndirectJump:
            out.flags |= InsertAnnotation::kFlagCtiPrediction;
            if (itb_.predict(rec.pc) != rec.target) {
                out.flags |= InsertAnnotation::kFlagCtiMispredict;
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
    if (lastBarrier_ != 0 && lastBarrier_ != seq)
        out.barrierSeq = lastBarrier_;

    // --- RAW producer seqs, in the back-end's canonical arc order:
    // data sources, address sources, condition codes, memory ----------
    for (const int reg : rec.dataSources()) {
        if (reg >= 0)
            out.addDep(lastRegWriter_[reg], false);
    }
    for (const int reg : rec.addressSources()) {
        if (reg >= 0)
            out.addDep(lastRegWriter_[reg], true);
    }
    if (rec.readsCC())
        out.addDep(lastCCWriter_, false);

    // Ground truth for the speculation modules: perfect disambiguation
    // (the most recent store that wrote one of this load's bytes) and
    // the youngest store overall.
    spec::MemDepObservation mem;
    mem.lastStoreSeq = lastStoreSeq_;
    if (rec.isLoad()) {
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
                mem.perfectDepSeq = std::max(
                    mem.perfectDepSeq,
                    page->seq[addr & (kStorePageBytes - 1)]);
        }
    }

    // --- phase 2: the module stack appends the memory arc, trains the
    // load predictors, and sets the speculation outcome flags ---------
    stack_.proposeRelaxations(rec, seq, mem, out);

    // --- update producer tables (after reading them) ------------------
    const int dest = rec.destReg();
    if (dest >= 0) {
        // The overwritten previous writer is the node-elimination
        // candidate; whether a live cc value blocks eliminating it is
        // decided *before* this record updates lastCCWriter_ (only
        // setsCC seqs ever land there, so seq equality implies the
        // candidate sets the cc).
        out.elimOldWriter = lastRegWriter_[dest];
        if (out.elimOldWriter != 0 && out.elimOldWriter == lastCCWriter_)
            out.flags |= InsertAnnotation::kFlagElimCcBlocked;
        lastRegWriter_[dest] = seq;
    }
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
}

std::size_t
SpecFrontEnd::fill(TraceSource &trace, FrontEndBatch &batch,
                   std::size_t max)
{
    batch.clear();
    TraceRecord rec;
    InsertAnnotation ann;
    while (batch.size() < max && trace.next(rec)) {
        annotate(rec, ann);
        batch.records.push_back(rec);
        batch.flags.push_back(ann.flags);
        batch.depCount.push_back(ann.depCount);
        batch.depAddrMask.push_back(ann.depAddrMask);
        for (unsigned d = 0; d < 4; ++d)
            batch.depSeqs.push_back(ann.depSeq[d]);
        batch.barrierSeq.push_back(ann.barrierSeq);
        batch.bbId.push_back(ann.bbId);
        batch.elimOldWriter.push_back(ann.elimOldWriter);
        batch.expr.push_back(ann.expr);
        batch.sig.push_back(ann.sig);
    }
    return batch.size();
}

} // namespace ddsc
