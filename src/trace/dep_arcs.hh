/**
 * @file
 * The register and condition-code dependence arcs of a trace, derived
 * from its records alone.
 *
 * With ideal renaming only read-after-write arcs remain: each source
 * register depends on its last writer, and a cc reader on the last cc
 * writer.  SpecFrontEnd derives the same arcs for the scheduler, but
 * this walk does not use it, so it can check the front-end from
 * outside.  ddsc-graph and the collapsing explorer print it.  Memory
 * arcs and the mispredicted-branch barrier are not derived here.
 */

#ifndef DDSC_TRACE_DEP_ARCS_HH
#define DDSC_TRACE_DEP_ARCS_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "trace/record.hh"

namespace ddsc
{

/** What a dependence arc carries. */
enum class DepKind : std::uint8_t
{
    Data,       ///< a source register the operation reads
    Address,    ///< a source register of address generation
    CC,         ///< the condition codes
};

/** Display name ("data", "address", "cc"). */
std::string_view depKindName(DepKind kind);

/** One read-after-write arc between two records of a trace, named by
 *  their indices (producer < consumer). */
struct DepArc
{
    std::size_t producer;
    std::size_t consumer;
    DepKind kind;
};

/**
 * Every register and cc arc of @p records, in consumer order and, per
 * consumer, in the scheduler's canonical arc order: data sources,
 * address sources, then cc.  A record reading one register twice gets
 * one arc per read.
 */
std::vector<DepArc> registerArcs(std::span<const TraceRecord> records);

} // namespace ddsc

#endif // DDSC_TRACE_DEP_ARCS_HH
