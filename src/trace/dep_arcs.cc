#include "dep_arcs.hh"

namespace ddsc
{

std::string_view
depKindName(DepKind kind)
{
    switch (kind) {
      case DepKind::Data:    return "data";
      case DepKind::Address: return "address";
      case DepKind::CC:      return "cc";
    }
    return "?";
}

std::vector<DepArc>
registerArcs(std::span<const TraceRecord> records)
{
    std::vector<DepArc> arcs;
    // Last writer per register and of the cc, as index + 1 (0 = none).
    std::size_t last_writer[kNumRegs] = {};
    std::size_t last_cc = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &rec = records[i];
        const auto arc = [&](std::size_t writer, DepKind kind) {
            if (writer != 0)
                arcs.push_back({writer - 1, i, kind});
        };
        for (const int reg : rec.dataSources()) {
            if (reg >= 0)
                arc(last_writer[reg], DepKind::Data);
        }
        for (const int reg : rec.addressSources()) {
            if (reg >= 0)
                arc(last_writer[reg], DepKind::Address);
        }
        if (rec.readsCC())
            arc(last_cc, DepKind::CC);
        if (const int dest = rec.destReg(); dest >= 0)
            last_writer[dest] = i + 1;
        if (rec.setsCC())
            last_cc = i + 1;
    }
    return arcs;
}

} // namespace ddsc
