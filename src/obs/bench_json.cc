#include "obs/bench_json.hh"

#include "obs/json_writer.hh"
#include "obs/metrics_export.hh"
#include "obs/stat_registry.hh"

namespace unistc
{

// Any byte of drift here breaks the bench JSON goldens under
// bench/golden/.
void
writeBenchJson(std::ostream &os,
               const std::vector<BenchJsonEntry> &entries,
               const std::vector<BenchJsonEngineEntry> &engine)
{
    os << "{\n  \"schema\": \"" << kBenchSchemaName << "\",\n"
       << "  \"version\": " << kBenchSchemaVersion
       << ",\n  \"entries\": [";
    bool first = true;
    for (const auto &e : entries) {
        StatRegistry reg;
        registerRunResult(reg, e.result);
        os << (first ? "\n" : ",\n")
           << "    {\n      \"kernel\": \""
           << JsonWriter::escape(e.kernel)
           << "\",\n      \"model\": \""
           << JsonWriter::escape(e.model)
           << "\",\n      \"matrix\": \""
           << JsonWriter::escape(e.matrix)
           << "\",\n      \"stats\": ";
        reg.writeJson(os, 6);
        os << "\n    }";
        first = false;
    }
    os << (first ? "]" : "\n  ]");
    if (!engine.empty()) {
        os << ",\n  \"engine\": [";
        bool efirst = true;
        for (const auto &e : engine) {
            StatRegistry reg;
            e.counters.registerStats(reg);
            os << (efirst ? "\n" : ",\n")
               << "    {\n      \"kernel\": \""
               << JsonWriter::escape(e.kernel)
               << "\",\n      \"matrix\": \""
               << JsonWriter::escape(e.matrix)
               << "\",\n      \"stats\": ";
            reg.writeJson(os, 6);
            os << "\n    }";
            efirst = false;
        }
        os << "\n  ]";
    }
    os << "\n}\n";
}

} // namespace unistc
