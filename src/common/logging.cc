#include "common/logging.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "robust/status.hh"

namespace unistc
{

namespace
{

LogLevel
initialLevel()
{
    const char *env = std::getenv("UNISTC_LOG_LEVEL");
    LogLevel level = LogLevel::Info;
    if (env != nullptr && *env != '\0' &&
        !parseLogLevel(env, level)) {
        std::fprintf(stderr,
                     "warn: ignoring bad UNISTC_LOG_LEVEL '%s'\n",
                     env);
    }
    return level;
}

/**
 * The filter may be read and written from any thread, so it is
 * atomic; relaxed ordering suffices for a monotonic filter check.
 */
std::atomic<LogLevel> &
levelRef()
{
    static std::atomic<LogLevel> level{initialLevel()};
    return level;
}

/**
 * Touch the level at startup so a malformed UNISTC_LOG_LEVEL is
 * warned about even when the program never logs anything.
 */
[[maybe_unused]] const LogLevel initial_level_trigger =
    levelRef().load(std::memory_order_relaxed);

/**
 * Like the level filter, the fatal behavior may be flipped from any
 * thread; relaxed atomicity is enough — callers sequence behavior
 * changes against the work they guard.
 */
std::atomic<FatalBehavior> &
fatalBehaviorRef()
{
    static std::atomic<FatalBehavior> behavior{FatalBehavior::Exit};
    return behavior;
}

} // namespace

const char *
toString(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug:
        return "debug";
      case LogLevel::Info:
        return "info";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Error:
        return "error";
      case LogLevel::Silent:
        return "silent";
    }
    return "?";
}

bool
parseLogLevel(const std::string &text, LogLevel &out)
{
    std::string t = text;
    std::transform(t.begin(), t.end(), t.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    if (t == "debug" || t == "0") {
        out = LogLevel::Debug;
    } else if (t == "info" || t == "1") {
        out = LogLevel::Info;
    } else if (t == "warn" || t == "warning" || t == "2") {
        out = LogLevel::Warn;
    } else if (t == "error" || t == "3") {
        out = LogLevel::Error;
    } else if (t == "silent" || t == "quiet" || t == "4") {
        out = LogLevel::Silent;
    } else {
        return false;
    }
    return true;
}

LogLevel
logLevel()
{
    return levelRef().load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    levelRef().store(level, std::memory_order_relaxed);
}

FatalBehavior
fatalBehavior()
{
    return fatalBehaviorRef().load(std::memory_order_relaxed);
}

void
setFatalBehavior(FatalBehavior behavior)
{
    fatalBehaviorRef().store(behavior, std::memory_order_relaxed);
}

namespace detail
{

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (fatalBehavior() == FatalBehavior::Throw) {
        // The exception carries the full message; the catcher owns
        // reporting (a sweep fails the run, a test asserts, a fuzz
        // driver swallows).
        throw UnistcError(failedPrecondition(
            msg + " (" + file + ":" + std::to_string(line) + ")"));
    }
    // Deliberately bypasses the log-level filter: a fatal message
    // must reach stderr even at LogLevel::Silent.
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() > LogLevel::Warn)
        return;
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (logLevel() > LogLevel::Info)
        return;
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
debugImpl(const std::string &msg)
{
    std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

} // namespace detail
} // namespace unistc
