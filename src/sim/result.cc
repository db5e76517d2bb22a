#include "sim/result.hh"

namespace unistc
{

void
TrafficCounters::merge(const TrafficCounters &o)
{
    readsA += o.readsA;
    wastedA += o.wastedA;
    readsB += o.readsB;
    wastedB += o.wastedB;
    writesC += o.writesC;
}

void
EnergyBreakdown::merge(const EnergyBreakdown &o)
{
    fetchA += o.fetchA;
    fetchB += o.fetchB;
    writeC += o.writeC;
    schedule += o.schedule;
    compute += o.compute;
}

RunResult::RunResult() : utilHist(4, 0.0, 1.0 + 1e-12)
{
}

double
RunResult::utilisation() const
{
    return macSlots ? static_cast<double>(products) / macSlots : 0.0;
}

double
RunResult::avgActiveDpgs() const
{
    return cycles ? static_cast<double>(dpgActiveAccum) / cycles : 0.0;
}

double
RunResult::avgCNetScale() const
{
    return cycles ? static_cast<double>(cNetScaleAccum) / cycles : 0.0;
}

double
RunResult::timeNs(double freq_ghz) const
{
    return static_cast<double>(cycles) / freq_ghz;
}

void
RunResult::scale(std::uint64_t factor)
{
    cycles *= factor;
    products *= factor;
    macSlots *= factor;
    tasksT1 *= factor;
    tasksT3 *= factor;
    stallCycles *= factor;
    dpgActiveAccum *= factor;
    cNetScaleAccum *= factor;
    utilHist.scale(factor);
    traffic.readsA *= factor;
    traffic.wastedA *= factor;
    traffic.readsB *= factor;
    traffic.wastedB *= factor;
    traffic.writesC *= factor;
    const double f = static_cast<double>(factor);
    energy.fetchA *= f;
    energy.fetchB *= f;
    energy.writeC *= f;
    energy.schedule *= f;
    energy.compute *= f;
}

void
RunResult::merge(const RunResult &o)
{
    cycles += o.cycles;
    products += o.products;
    macSlots += o.macSlots;
    tasksT1 += o.tasksT1;
    tasksT3 += o.tasksT3;
    stallCycles += o.stallCycles;
    dpgActiveAccum += o.dpgActiveAccum;
    cNetScaleAccum += o.cNetScaleAccum;
    utilHist.merge(o.utilHist);
    traffic.merge(o.traffic);
    energy.merge(o.energy);
}

} // namespace unistc
