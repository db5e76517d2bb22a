/**
 * @file
 * Temporary-directory resolution for the execution driver: sandboxed
 * CI runners mount /tmp read-only and point $TMPDIR somewhere
 * writable, so every scratch directory a driver-built binary or test
 * creates must resolve through the environment instead of
 * hardcoding "/tmp".
 */

#ifndef UNISTC_DRIVER_TMPDIR_HH
#define UNISTC_DRIVER_TMPDIR_HH

#include <string>

#include "robust/status.hh"

namespace unistc
{
namespace driver
{

/**
 * The scratch root: $TMPDIR when set and non-empty (trailing slashes
 * trimmed), "/tmp" otherwise.
 */
std::string tempDir();

/**
 * mkdtemp() a fresh private directory named @p prefix + "XXXXXX"
 * under tempDir(). Returns the created path, or a typed error when
 * the scratch root is not writable.
 */
Result<std::string> makeTempDir(const std::string &prefix);

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_TMPDIR_HH
