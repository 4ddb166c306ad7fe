/**
 * @file
 * The dependence-collapsing speculation module (phase 1).
 *
 * Collapsing is the paper's second mechanism: a consumer "collapses"
 * into its producer's issue slot when the pair (or triple) fits the
 * 3-1/4-1 interlock, removing the serialization between them.  The
 * legality decision and pairing live in the back-end (collapse rules
 * need window state); what is width-independent — the record's
 * compound-expression size and its paper signature fragment — is
 * annotated here, once, for every collapsing back-end cell.
 */

#ifndef DDSC_SPEC_COLLAPSE_MODULE_HH
#define DDSC_SPEC_COLLAPSE_MODULE_HH

#include "spec/module.hh"

namespace ddsc::spec
{

/** Annotates the collapse-detection columns (phase 1 only). */
class CollapseModule final : public SpeculationModule
{
  public:
    const char *name() const override { return "collapse"; }

    std::string
    describe() const override
    {
        return "collapse(3-1/4-1 interlock columns)";
    }

    void
    annotateRecord(const TraceRecord &rec, InsertAnnotation &ann) override
    {
        ann.expr = ExprSize::of(rec);
        ann.sig = packInstructionSignature(rec);
    }
};

} // namespace ddsc::spec

#endif // DDSC_SPEC_COLLAPSE_MODULE_HH
