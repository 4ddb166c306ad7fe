/**
 * @file
 * Machine configurations for the limit simulator.
 *
 * The paper evaluates five configurations (Section 4):
 *   A  base superscalar
 *   B  base + real load-speculation
 *   C  base + d-collapsing
 *   D  base + d-collapsing + real load-speculation
 *   E  base + d-collapsing + ideal load-speculation
 * at issue widths 4, 8, 16, 32, and 2048 with window = 2 x width.
 *
 * The speculation-module extension adds configurations beyond the
 * paper's matrix (src/spec/):
 *   F  D with perfect memory disambiguation replaced by a predicted
 *      one (store-set-style dependence predictor; violations squash)
 *   G  D + context-based (FCM/stride hybrid) load-value prediction
 */

#ifndef DDSC_CORE_CONFIG_HH
#define DDSC_CORE_CONFIG_HH

#include <string>
#include <vector>

#include "addrpred/addrpred.hh"
#include "collapse/rules.hh"
#include "support/logging.hh"

namespace ddsc
{

/** Load-speculation variants. */
enum class LoadSpecMode
{
    None,   ///< loads wait for their address operands
    Real,   ///< two-delta stride table with confidence
    Ideal,  ///< every load address predicted correctly
};

/** Memory-disambiguation variants (the mem-dep speculation module). */
enum class MemDepMode
{
    Perfect,    ///< paper: a load waits only for the true producing store
    Predicted,  ///< store-set-style predictor; mispredictions squash
};

/** Which trained load-value predictor backs loadValuePrediction. */
enum class ValuePredKind
{
    LastValue,  ///< last value + 2-bit confidence (historical module)
    FcmStride,  ///< context(FCM)/stride hybrid with confidence gating
};

/**
 * All knobs of one simulated machine.
 */
struct MachineConfig
{
    std::string name = "A";
    unsigned issueWidth = 4;
    unsigned windowSize = 8;            ///< paper: 2 x issueWidth
    bool collapsing = false;
    LoadSpecMode loadSpec = LoadSpecMode::None;

    /** Collapsing legality knobs (ablations tweak these). */
    CollapseRules rules;

    /**
     * Execute collapsed-away producers lazily and skip them entirely
     * when nothing else reads their result before it is overwritten
     * (the paper's Figure 1.f "node elimination").  Off in the paper's
     * headline configurations; exposed for the extension study.
     */
    bool nodeElimination = false;

    /**
     * Predict loaded *values* in addition to addresses (the paper's
     * Figure 1.d d-speculation flavour, not evaluated there).  A
     * correctly value-predicted load delivers its data to dependents
     * one cycle after its non-address constraints hold, without
     * waiting for the memory access.  Extension study only.
     */
    bool loadValuePrediction = false;

    /**
     * Predict non-conditional control transfers realistically instead
     * of the paper's "always predicted correctly" idealization: calls
     * are always correct (direct targets), returns use a
     * return-address stack, indirect jumps a last-target buffer.
     * Mispredictions barrier like conditional-branch mispredictions.
     */
    bool realCtiPrediction = false;
    /** Return-address-stack depth when realCtiPrediction is on. */
    unsigned rasDepth = 16;

    /**
     * Use the O(window)-per-cycle scan engine instead of program-order
     * placement.  Semantically identical and much slower; it is the
     * independent oracle the tests and bench_sched check the
     * production engine against.  LimitScheduler::run() honours it;
     * batched groups reject it.  (Node-elimination cells run on the
     * scan engine regardless.)
     */
    bool naiveEngine = false;

    /**
     * How loads are disambiguated against older stores.  Perfect is
     * the paper's model (and the default of every paper config); the
     * Predicted mode replaces it with a trained dependence predictor:
     * a load predicted independent issues without waiting for the
     * producing store, and a violation detected at issue time squashes
     * it (re-issue cost memSquashPenalty, surfaced in SchedStats).
     */
    MemDepMode memDep = MemDepMode::Perfect;
    /** Dependence-predictor table size (12 = 4096 entries). */
    unsigned memDepIndexBits = 12;
    /** Predict "dependent" only when confidence > threshold. */
    unsigned memDepConfidenceThreshold = 1;
    /** A store older than this many dynamic instructions counts as
     *  resolved when training the dependence predictor (its value is
     *  long since available, so speculating past it is free). */
    unsigned memDepTrainDistance = 512;
    /** Squash/re-issue cost in cycles charged to a load that issued
     *  past a store it truly depended on. */
    unsigned memSquashPenalty = 12;

    /** Which trained predictor backs loadValuePrediction. */
    ValuePredKind valuePredKind = ValuePredKind::LastValue;
    /** Value-predictor table size (12 = 4096 entries). */
    unsigned vpredIndexBits = 12;
    /** Use a predicted value only when confidence > threshold. */
    unsigned vpredConfidenceThreshold = 1;
    /** FCM history depth (values hashed into the context). */
    unsigned vpredHistoryLength = 4;

    /** Branch predictor size: bimodalN/gshareN+1 (13 = 8 kByte). */
    unsigned bpredIndexBits = 13;
    /** Address predictor table size (12 = 4096 entries). */
    unsigned addrPredIndexBits = 12;
    /** Use a predicted address only when confidence > threshold. */
    unsigned addrConfidenceThreshold = 1;
    /** Which realistic predictor to use (paper: two-delta stride). */
    AddrPredKind addrPredKind = AddrPredKind::TwoDelta;

    /**
     * Canonical encoding of every behavioural knob (the display name
     * is deliberately excluded).  Two configs with equal fingerprints
     * simulate identically; ExperimentDriver uses this to detect
     * result-cache keys that alias distinct machines.
     *
     * Adding, removing, or reordering a field changes the layout:
     * bump support::version::kFingerprintSchema and kFingerprintFields
     * with it (experiment_test pins the field count).
     */
    std::string
    fingerprint() const
    {
        std::string fp;
        auto field = [&fp](const std::string &v) {
            fp += v;
            fp += '|';
        };
        field(std::to_string(issueWidth));
        field(std::to_string(windowSize));
        field(std::to_string(collapsing));
        field(std::to_string(static_cast<unsigned>(loadSpec)));
        field(std::to_string(rules.maxOperands));
        field(std::to_string(rules.narrowOperands));
        field(std::to_string(rules.maxInstructions));
        field(std::to_string(rules.zeroOpDetection));
        field(std::to_string(rules.maxCollapseDistance));
        field(std::to_string(rules.sameBasicBlockOnly));
        field(std::to_string(nodeElimination));
        field(std::to_string(loadValuePrediction));
        field(std::to_string(realCtiPrediction));
        field(std::to_string(rasDepth));
        field(std::to_string(naiveEngine));
        field(std::to_string(bpredIndexBits));
        field(std::to_string(addrPredIndexBits));
        field(std::to_string(addrConfidenceThreshold));
        field(std::to_string(static_cast<unsigned>(addrPredKind)));
        field(std::to_string(static_cast<unsigned>(memDep)));
        field(std::to_string(memDepIndexBits));
        field(std::to_string(memDepConfidenceThreshold));
        field(std::to_string(memDepTrainDistance));
        field(std::to_string(memSquashPenalty));
        field(std::to_string(static_cast<unsigned>(valuePredKind)));
        field(std::to_string(vpredIndexBits));
        field(std::to_string(vpredConfidenceThreshold));
        field(std::to_string(vpredHistoryLength));
        return fp;
    }

    /**
     * Canonical encoding of the knobs the speculative *front-end*
     * depends on (see SpecFrontEnd): branch/CTI prediction and the
     * load address/value predictor training.  Two configs with equal
     * front-end fingerprints produce identical per-record annotations
     * for any trace, so one streaming front-end pass can feed both
     * back-ends.  Knobs that only matter when a predictor is off are
     * normalized away (config A and config C group together even if
     * their unused address-predictor knobs differ).
     *
     * Grouping only — never persisted, not part of
     * kFingerprintSchema.  The paper matrix groups into two passes per
     * workload: {A, C, E} (no trained load predictor) and {B, D}.
     */
    std::string
    frontEndFingerprint() const
    {
        std::string fp;
        auto field = [&fp](unsigned v) {
            fp += std::to_string(v);
            fp += '|';
        };
        field(bpredIndexBits);
        const bool train_addr = loadSpec == LoadSpecMode::Real;
        field(train_addr);
        field(train_addr ? addrPredIndexBits : 0);
        field(train_addr ? addrConfidenceThreshold : 0);
        field(train_addr ? static_cast<unsigned>(addrPredKind) : 0);
        field(loadValuePrediction);
        field(loadValuePrediction
                  ? static_cast<unsigned>(valuePredKind) : 0);
        field(loadValuePrediction ? vpredIndexBits : 0);
        field(loadValuePrediction ? vpredConfidenceThreshold : 0);
        field(loadValuePrediction &&
                      valuePredKind == ValuePredKind::FcmStride
                  ? vpredHistoryLength : 0);
        field(realCtiPrediction);
        field(realCtiPrediction ? rasDepth : 0);
        const bool train_memdep = memDep == MemDepMode::Predicted;
        field(train_memdep);
        field(train_memdep ? memDepIndexBits : 0);
        field(train_memdep ? memDepConfidenceThreshold : 0);
        field(train_memdep ? memDepTrainDistance : 0);
        // memSquashPenalty is back-end-only: it shifts issue timing,
        // never an annotation, so it must not split front-end groups.
        return fp;
    }

    /**
     * The known configurations by letter: the paper's five (A-E) plus
     * the speculation-module extension configs (F, G, ...), which ride
     * the same char-letter plumbing through the matrix, the result
     * store, and the serving fleet with zero protocol changes.
     */
    static MachineConfig
    paper(char id, unsigned issue_width)
    {
        MachineConfig cfg;
        cfg.name = std::string(1, id);
        cfg.issueWidth = issue_width;
        cfg.windowSize = 2 * issue_width;
        switch (id) {
          case 'A':
            break;
          case 'B':
            cfg.loadSpec = LoadSpecMode::Real;
            break;
          case 'C':
            cfg.collapsing = true;
            break;
          case 'D':
            cfg.collapsing = true;
            cfg.loadSpec = LoadSpecMode::Real;
            break;
          case 'E':
            cfg.collapsing = true;
            cfg.loadSpec = LoadSpecMode::Ideal;
            break;
          case 'F':
            // D with the paper's perfect disambiguation replaced by a
            // predicted one (memory-dependence speculation module).
            cfg.collapsing = true;
            cfg.loadSpec = LoadSpecMode::Real;
            cfg.memDep = MemDepMode::Predicted;
            break;
          case 'G':
            // D plus context-based (FCM/stride hybrid) load-value
            // prediction with confidence gating.
            cfg.collapsing = true;
            cfg.loadSpec = LoadSpecMode::Real;
            cfg.loadValuePrediction = true;
            cfg.valuePredKind = ValuePredKind::FcmStride;
            break;
          default:
            ddsc_fatal("unknown configuration '%c'", id);
        }
        return cfg;
    }

    /** Every letter paper() accepts, in canonical order. */
    static const std::string &
    knownConfigs()
    {
        static const std::string letters = "ABCDEFG";
        return letters;
    }

    /** Whether @p id names a known configuration letter. */
    static bool
    isKnownConfig(char id)
    {
        return knownConfigs().find(id) != std::string::npos;
    }

    /** One-line summary of a configuration letter. */
    static const char *
    letterSummary(char id)
    {
        switch (id) {
          case 'A': return "base superscalar";
          case 'B': return "base + real load-address speculation";
          case 'C': return "base + d-collapsing";
          case 'D': return "collapsing + real load-address speculation";
          case 'E': return "collapsing + ideal load-address speculation";
          case 'F': return "D with predicted memory disambiguation "
                           "(squash on violation)";
          case 'G': return "D + context (FCM/stride) load-value "
                           "prediction";
          default:  return "unknown";
        }
    }

    /** The issue widths the paper sweeps. */
    static std::vector<unsigned>
    paperWidths()
    {
        return {4, 8, 16, 32, 2048};
    }

    /** Display label for a width ("2k" for 2048). */
    static std::string
    widthLabel(unsigned width)
    {
        return width == 2048 ? "2k" : std::to_string(width);
    }
};

} // namespace ddsc

#endif // DDSC_CORE_CONFIG_HH
