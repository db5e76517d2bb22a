#include "stc/registry.hh"

#include "common/logging.hh"
#include "stc/ds_stc.hh"
#include "stc/gamma.hh"
#include "stc/nv_dtc.hh"
#include "stc/nv_stc24.hh"
#include "stc/rm_stc.hh"
#include "stc/sigma.hh"
#include "stc/trapezoid.hh"
#include "unistc/uni_stc.hh"

namespace unistc
{

StcModelPtr
makeStcModel(const std::string &name, const MachineConfig &cfg)
{
    if (name == "NV-DTC")
        return std::make_unique<NvDtc>(cfg);
    if (name == "NV-STC-2:4")
        return std::make_unique<NvStc24>(cfg);
    if (name == "DS-STC")
        return std::make_unique<DsStc>(cfg);
    if (name == "RM-STC")
        return std::make_unique<RmStc>(cfg);
    if (name == "GAMMA")
        return std::make_unique<Gamma>(cfg);
    if (name == "SIGMA")
        return std::make_unique<Sigma>(cfg);
    if (name == "Trapezoid")
        return std::make_unique<Trapezoid>(cfg);
    if (name == "Uni-STC")
        return std::make_unique<UniStc>(cfg);
    UNISTC_FATAL("unknown STC model '", name, "'");
}

std::vector<StcModelPtr>
makeCoreLineup(const MachineConfig &cfg)
{
    std::vector<StcModelPtr> models;
    models.push_back(makeStcModel("DS-STC", cfg));
    models.push_back(makeStcModel("RM-STC", cfg));
    models.push_back(makeStcModel("Uni-STC", cfg));
    return models;
}

std::vector<std::string>
allModelNames()
{
    return {"GAMMA",  "SIGMA",  "Trapezoid", "NV-DTC",
            "DS-STC", "RM-STC", "Uni-STC"};
}

} // namespace unistc
