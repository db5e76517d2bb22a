#include "driver/version.hh"

#include <sstream>

#include "bbc/bbc_io.hh"
#include "driver/build_info.hh"
#include "obs/bench_json.hh"
#include "warehouse/schema.hh"

namespace unistc
{
namespace driver
{

const char *
gitRevision()
{
    return UNISTC_GIT_REVISION;
}

std::string
versionString(const std::string &binaryName)
{
    std::ostringstream os;
    os << binaryName << " (unistc) revision " << gitRevision()
       << "\n";
    os << "formats: bench-json " << kBenchSchemaName << "/v"
       << kBenchSchemaVersion << ", warehouse v"
       << warehouse::kSchemaVersion << ", bbc-container v"
       << kBbcContainerVersion << "\n";
    return os.str();
}

} // namespace driver
} // namespace unistc
