/**
 * @file
 * Status and error reporting helpers in the gem5 tradition.
 *
 * fatal() is for user-caused conditions the simulator cannot recover
 * from (bad configuration, malformed input files); panic() is for
 * conditions that indicate a bug in the simulator itself; warn() and
 * inform() report status without stopping the run.
 *
 * Non-terminating messages pass a runtime severity filter: the level
 * defaults to Info, is settable programmatically via setLogLevel()
 * or from the UNISTC_LOG_LEVEL environment variable (a name like
 * "warn" or a number 0-4), and lets bench runs silence inform()
 * chatter. fatal() and panic() are never subject to that filter —
 * the message is emitted (or carried in the thrown exception) even
 * at LogLevel::Silent; hiding the reason for a termination would
 * help nobody.
 *
 * The fatal *mechanism* is configurable (docs/ROBUSTNESS.md): under
 * FatalBehavior::Exit (the default, right for CLI mains)
 * UNISTC_FATAL prints and exit(1)s as it always has; under
 * FatalBehavior::Throw (library, tests, fuzz drivers) it throws
 * unistc::UnistcError carrying the same message, so the caller
 * decides what a bad input costs. panic() is for simulator bugs and
 * aborts unconditionally in both modes.
 */

#ifndef UNISTC_COMMON_LOGGING_HH
#define UNISTC_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace unistc
{

/** Message severities, least severe first. */
enum class LogLevel
{
    Debug = 0,  ///< Developer chatter (UNISTC_DEBUG).
    Info = 1,   ///< Status messages (UNISTC_INFORM). Default.
    Warn = 2,   ///< Recoverable anomalies (UNISTC_WARN).
    Error = 3,  ///< Only fatal/panic output.
    Silent = 4, ///< Nothing below termination messages.
};

/** Printable level name ("debug", ...). */
const char *toString(LogLevel level);

/**
 * Parse a level from a name ("debug", "info", "warn"/"warning",
 * "error", "silent"/"quiet", case-insensitive) or a digit 0-4.
 * @return true and set @p out on success.
 */
bool parseLogLevel(const std::string &text, LogLevel &out);

/** Current filter threshold (initialised from UNISTC_LOG_LEVEL). */
LogLevel logLevel();

/** Override the filter threshold for the rest of the process. */
void setLogLevel(LogLevel level);

/** What UNISTC_FATAL does after composing its message. */
enum class FatalBehavior
{
    Exit,  ///< Print to stderr, std::exit(1). Default; CLI mains.
    Throw, ///< Throw unistc::UnistcError. Library/test/fuzz context.
};

/** Current fatal behavior (process-wide, atomic). */
FatalBehavior fatalBehavior();

/** Choose between fail-fast (Exit) and recoverable (Throw) fatals. */
void setFatalBehavior(FatalBehavior behavior);

/**
 * RAII switch to FatalBehavior::Throw: tests and library entry
 * points that want typed errors wrap the fallible region in one of
 * these and catch UnistcError; the previous behavior is restored on
 * scope exit.
 */
class ScopedFatalThrow
{
  public:
    ScopedFatalThrow() : saved_(fatalBehavior())
    {
        setFatalBehavior(FatalBehavior::Throw);
    }

    ~ScopedFatalThrow() { setFatalBehavior(saved_); }

    ScopedFatalThrow(const ScopedFatalThrow &) = delete;
    ScopedFatalThrow &operator=(const ScopedFatalThrow &) = delete;

  private:
    FatalBehavior saved_;
};

namespace detail
{

/**
 * Escalate a user-level error: print + exit(1) under
 * FatalBehavior::Exit, throw UnistcError under FatalBehavior::Throw.
 * Never filtered by the log level in either mode.
 */
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);

/** Abort after printing an internal-error message. */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);

/** Print a warning to stderr. */
void warnImpl(const std::string &msg);

/** Print an informational message to stderr. */
void informImpl(const std::string &msg);

/** Print a debug message to stderr. */
void debugImpl(const std::string &msg);

/** Concatenate a parameter pack into one string via an ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    if constexpr (sizeof...(Args) == 0) {
        return {};
    } else {
        std::ostringstream os;
        (os << ... << std::forward<Args>(args));
        return os.str();
    }
}

} // namespace detail

} // namespace unistc

#define UNISTC_FATAL(...) \
    ::unistc::detail::fatalImpl(__FILE__, __LINE__, \
                                ::unistc::detail::concat(__VA_ARGS__))

#define UNISTC_PANIC(...) \
    ::unistc::detail::panicImpl(__FILE__, __LINE__, \
                                ::unistc::detail::concat(__VA_ARGS__))

#define UNISTC_WARN(...) \
    ::unistc::detail::warnImpl(::unistc::detail::concat(__VA_ARGS__))

#define UNISTC_INFORM(...) \
    ::unistc::detail::informImpl(::unistc::detail::concat(__VA_ARGS__))

#define UNISTC_DEBUG(...) \
    do { \
        if (::unistc::logLevel() <= ::unistc::LogLevel::Debug) { \
            ::unistc::detail::debugImpl( \
                ::unistc::detail::concat(__VA_ARGS__)); \
        } \
    } while (0)

/** Simulator-bug assertion: active in all build types. */
#define UNISTC_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            UNISTC_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__); \
        } \
    } while (0)

#endif // UNISTC_COMMON_LOGGING_HH
