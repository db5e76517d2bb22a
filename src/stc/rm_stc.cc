#include "stc/rm_stc.hh"

#include "stc/row_dataflow.hh"

namespace unistc
{

NetworkConfig
RmStc::network() const
{
    // Row merging pre-combines K=2 partials before write-back and its
    // hardware decoder narrows the operand network relative to DS-STC,
    // but the design still ships partial rows through a sizeable
    // crossbar every cycle.
    NetworkConfig net;
    net.aFactor = 5.4;
    net.bFactor = 5.0;
    net.cFactor = 3.6;
    net.cNetUnits = 32;
    net.dynamicGating = false;
    return net;
}

void
RmStc::runBlock(const BlockTask &task, RunResult &res,
                TraceSink *trace) const
{
    if (cfg_.precision == Precision::FP64)
        runRowDataflow<8, 4, 2, true>(task, cfg_, network().cNetUnits, res,
                                      trace);
    else
        runRowDataflow<16, 4, 2, true>(task, cfg_, network().cNetUnits,
                                       res, trace);
}

} // namespace unistc
