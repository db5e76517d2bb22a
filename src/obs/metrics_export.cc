#include "obs/metrics_export.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "obs/json_writer.hh"
#include "obs/trace.hh"

namespace unistc
{

void
registerRunResult(StatRegistry &reg, const RunResult &res,
                  const std::string &prefix)
{
    // Raw event counters (the RunResult accumulator fields).
    reg.setCounter(prefix + "cycles", res.cycles,
                   "execution cycles");
    reg.setCounter(prefix + "products", res.products,
                   "effective multiply-accumulates");
    reg.setCounter(prefix + "macSlots", res.macSlots,
                   "cycles * macCount (capacity)");
    reg.setCounter(prefix + "tasksT1", res.tasksT1,
                   "T1 block tasks issued");
    reg.setCounter(prefix + "tasksT3", res.tasksT3,
                   "T3 tile tasks scheduled");
    reg.setCounter(prefix + "stallCycles", res.stallCycles,
                   "cycles lost to C write conflicts");
    reg.setCounter(prefix + "dpgActiveAccum", res.dpgActiveAccum,
                   "sum over cycles of active DPGs");
    reg.setCounter(prefix + "cNetScaleAccum", res.cNetScaleAccum,
                   "sum over cycles of C-network scale");

    // Operand traffic (element granularity).
    reg.setCounter(prefix + "traffic.readsA", res.traffic.readsA,
                   "effective A operand fetches");
    reg.setCounter(prefix + "traffic.wastedA", res.traffic.wastedA,
                   "A fetch slots with no useful work");
    reg.setCounter(prefix + "traffic.readsB", res.traffic.readsB,
                   "effective B operand fetches");
    reg.setCounter(prefix + "traffic.wastedB", res.traffic.wastedB,
                   "B fetch slots with no useful work");
    reg.setCounter(prefix + "traffic.writesC", res.traffic.writesC,
                   "partial-sum write-backs to C");
    reg.setCounter(prefix + "traffic.totalA", res.traffic.totalA(),
                   "total A fetch slots");
    reg.setCounter(prefix + "traffic.totalB", res.traffic.totalB(),
                   "total B fetch slots");

    // Derived scalars the figures report.
    reg.setScalar(prefix + "utilisation", res.utilisation(),
                  "overall MAC utilisation [0,1]");
    reg.setScalar(prefix + "avgActiveDpgs", res.avgActiveDpgs(),
                  "average active DPGs per cycle");
    reg.setScalar(prefix + "avgCNetScale", res.avgCNetScale(),
                  "average C-write network scale");

    // Energy split (Fig. 18), picojoules.
    reg.setScalar(prefix + "energy.fetchA", res.energy.fetchA,
                  "A fetch energy (pJ)");
    reg.setScalar(prefix + "energy.fetchB", res.energy.fetchB,
                  "B fetch energy (pJ)");
    reg.setScalar(prefix + "energy.writeC", res.energy.writeC,
                  "C write-back energy (pJ)");
    reg.setScalar(prefix + "energy.schedule", res.energy.schedule,
                  "task-preparation energy (pJ)");
    reg.setScalar(prefix + "energy.compute", res.energy.compute,
                  "MAC array energy (pJ)");
    reg.setScalar(prefix + "energy.total", res.energy.total(),
                  "total energy (pJ)");

    // Per-cycle utilisation distribution (Fig. 5 buckets).
    reg.setHistogram(prefix + "utilHist", res.utilHist,
                     "per-cycle MAC utilisation buckets");
}

void
registerMachineConfig(StatRegistry &reg, const MachineConfig &cfg,
                      const std::string &prefix)
{
    reg.setText(prefix + "precision", toString(cfg.precision),
                "MAC precision");
    reg.setCounter(prefix + "macCount",
                   static_cast<std::uint64_t>(cfg.macCount),
                   "multipliers in the MAC array");
    reg.setCounter(prefix + "numDpgs",
                   static_cast<std::uint64_t>(cfg.numDpgs),
                   "Uni-STC dot-product generators");
    reg.setScalar(prefix + "freqGhz", cfg.freqGhz, "clock (GHz)");
}

void
registerTraceSinkStats(StatRegistry &reg, const TraceSink &sink,
                       const std::string &prefix)
{
    reg.setCounter(prefix + "recorded", sink.recorded(),
                   "trace events recorded");
    reg.setCounter(prefix + "dropped", sink.dropped(),
                   "trace events lost to ring wraparound");
    reg.setCounter(prefix + "capacity",
                   static_cast<std::uint64_t>(sink.capacity()),
                   "trace ring capacity");
}

void
writeStatsJson(const StatRegistry &reg, std::ostream &os)
{
    // Open the envelope by hand so the registry body (itself a
    // complete JSON object) nests at the right indentation.
    os << "{\n  \"schema\": \"" << kStatsSchemaName
       << "\",\n  \"version\": " << kStatsSchemaVersion
       << ",\n  \"stats\": ";
    std::ostringstream body;
    reg.writeJson(body, 2);
    // Re-indent the body two spaces to sit inside the envelope.
    const std::string s = body.str();
    for (const char c : s) {
        os << c;
        if (c == '\n')
            os << "  ";
    }
    os << "\n}\n";
}

void
writeStatsJsonFile(const StatRegistry &reg, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        UNISTC_FATAL("cannot open stats output file '", path, "'");
    writeStatsJson(reg, os);
    if (!os.good())
        UNISTC_FATAL("error writing stats file '", path, "'");
}

} // namespace unistc
