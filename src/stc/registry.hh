/**
 * @file
 * Model factory: create any evaluated architecture by name and
 * enumerate the standard comparison line-ups the figures use.
 */

#ifndef UNISTC_STC_REGISTRY_HH
#define UNISTC_STC_REGISTRY_HH

#include <string>
#include <vector>

#include "stc/stc_model.hh"

namespace unistc
{

/**
 * Create a model by name. Recognised names: "NV-DTC", "DS-STC",
 * "RM-STC", "GAMMA", "SIGMA", "Trapezoid", "Uni-STC". Aborts via
 * fatal() on an unknown name.
 */
StcModelPtr makeStcModel(const std::string &name,
                         const MachineConfig &cfg);

/** The three-way line-up most figures use (DS, RM, Uni). */
std::vector<StcModelPtr> makeCoreLineup(const MachineConfig &cfg);

/** All recognised model names in canonical order. */
std::vector<std::string> allModelNames();

} // namespace unistc

#endif // UNISTC_STC_REGISTRY_HH
