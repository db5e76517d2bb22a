/**
 * @file
 * SweepRequest: the canonical "what to run" description shared by
 * every front-end binary (bench harnesses, simulate_cli). It
 * collapses the flag + environment soup that used to be parsed
 * separately — and slightly differently — by
 * bench/bench_common.hh and examples/simulate_cli.cc into one struct
 * with one parser, so every binary accepts the same execution family
 * with the same validation, the same unknown-flag rejection and the
 * same --help/--version output (docs/ARCHITECTURE.md).
 *
 * The standard family (all driver-built binaries):
 *
 *   --quick / --smoke            workload shrinking
 *   --log-level LEVEL            debug|info|warn|error|silent (or 0-4)
 *   --help, -h                   the generated usage text
 *   --version                    git sha + on-disk schema versions
 *
 * Front-ends register their own flags as CliFlag entries; anything
 * not in either set is rejected ("unknown option ... (see --help)")
 * in every binary — benches used to silently ignore typos.
 */

#ifndef UNISTC_DRIVER_SWEEP_REQUEST_HH
#define UNISTC_DRIVER_SWEEP_REQUEST_HH

#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "robust/status.hh"

namespace unistc
{
namespace driver
{

/** One binary-specific flag a front-end adds to the parser. */
struct CliFlag
{
    std::string name;      ///< Without the leading "--".
    bool hasValue = true;  ///< false: presence switch (stored as "1").
    std::string valueName; ///< Metavariable for --help ("PATH", "N").
    std::string help;      ///< One-line description for --help.
};

/**
 * Everything the execution driver needs to know about a run, fully
 * resolved (flags beat defaults).
 */
struct SweepRequest
{
    // Workload shaping.
    /** --quick or --smoke (which implies it). */
    bool quick = false;
    bool smoke = false; ///< --smoke: tiny-corpus ctest runs.

    // Log level (--log-level), applied before the driver runs.
    bool logLevelSet = false;
    LogLevel logLevel = LogLevel::Info;
};

/** parseSweepCli() result: the request plus front-end extras. */
struct ParsedCli
{
    SweepRequest request;

    /** Binary-specific flag values (switches stored as "1"). */
    std::map<std::string, std::string> extra;

    bool helpRequested = false;
    bool versionRequested = false;
};

/**
 * Parse @p argv against the standard family plus @p extraFlags.
 * The returned request is self-contained. Malformed or unknown
 * options come back as a typed error — front-ends raise() it — and
 * --help/--version short-circuit validation
 * (helpRequested/versionRequested set, rest best-effort).
 */
Result<ParsedCli> parseSweepCli(
    int argc, char **argv,
    const std::vector<CliFlag> &extraFlags = {});

/** The generated --help text (standard family + @p extraFlags). */
std::string sweepCliHelp(const std::string &binaryName,
                         const std::vector<CliFlag> &extraFlags = {});

} // namespace driver
} // namespace unistc

#endif // UNISTC_DRIVER_SWEEP_REQUEST_HH
