/**
 * @file
 * One --version for every unistc binary: the git revision the build
 * was configured from plus the version of every on-disk format the
 * binary reads or writes (bench JSON, warehouse, BBC container).
 * Front-ends print versionString() and exit when parseSweepCli()
 * reports versionRequested — so a results directory can always be
 * matched back to the code and schemas that produced it.
 */

#ifndef UNISTC_DRIVER_VERSION_HH
#define UNISTC_DRIVER_VERSION_HH

#include <string>

namespace unistc
{
namespace driver
{

/**
 * The git revision (short hash, "-dirty" suffixed when the tree had
 * local changes at configure time) or "unknown" outside a git
 * checkout. Captured by CMake at configure time.
 */
const char *gitRevision();

/** The multi-line --version text for @p binaryName. */
std::string versionString(const std::string &binaryName);

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_VERSION_HH
