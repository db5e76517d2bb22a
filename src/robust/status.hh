/**
 * @file
 * Typed error model for the robustness layer (docs/ROBUSTNESS.md).
 *
 * Library code reports recoverable failures as a Status (or a
 * Result<T> carrying either a value or a Status) instead of calling
 * std::exit(). Callers pick the policy at the boundary:
 *
 *   - try* APIs (tryLoadBbcFile, tryReadMatrixMarket, ...) return the
 *     Status/Result and never terminate;
 *   - the classic convenience wrappers raise() on failure, which
 *     throws UnistcError under FatalBehavior::Throw (library, tests,
 *     fuzzers) and prints + exits under FatalBehavior::Exit (CLI
 *     mains) — see common/logging.hh for the behavior switch.
 *
 * panic() (simulator bugs) still aborts unconditionally; this model
 * covers *user-caused* failures: bad files, corrupt data, bad flags.
 */

#ifndef UNISTC_ROBUST_STATUS_HH
#define UNISTC_ROBUST_STATUS_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace unistc
{

/** Failure category carried by every Status. */
enum class ErrorCode
{
    Ok = 0,
    InvalidArgument,    ///< Caller passed something nonsensical.
    IoError,            ///< open/read/write failed at the OS level.
    ParseError,         ///< Text input did not match its grammar.
    CorruptData,        ///< Structured input failed an integrity check.
    FailedPrecondition, ///< Valid input, unusable in this context.
    Internal,           ///< Unexpected library-side failure.
};

/** Printable code name ("CorruptData", ...). */
const char *toString(ErrorCode code);

/** Outcome of a fallible operation: Ok, or a code plus a message. */
class Status
{
  public:
    /** Default: success. */
    Status() = default;

    Status(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status okStatus() { return Status(); }

    bool ok() const { return code_ == ErrorCode::Ok; }
    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "CorruptData: <message>" (or "Ok"). */
    std::string toString() const;

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/** Factory shorthands used throughout the robustness layer. */
Status invalidArgument(std::string msg);
Status ioError(std::string msg);
Status parseError(std::string msg);
Status corruptData(std::string msg);
Status failedPrecondition(std::string msg);
Status internalError(std::string msg);

/** Exception form of a Status, thrown under FatalBehavior::Throw. */
class UnistcError : public std::runtime_error
{
  public:
    explicit UnistcError(Status status)
        : std::runtime_error(status.toString()), status_(std::move(status))
    {
    }

    const Status &status() const { return status_; }
    ErrorCode code() const { return status_.code(); }

  private:
    Status status_;
};

/**
 * Escalate a non-ok Status according to the process fatal behavior:
 * throw UnistcError (FatalBehavior::Throw) or print the message and
 * exit(1) (FatalBehavior::Exit, the default). Asserts on an Ok status.
 */
[[noreturn]] void raise(const Status &status);

/**
 * Value-or-Status return type for fallible library calls. Either
 * holds a T (ok()) or a non-ok Status. value() on an error raise()s,
 * so `tryLoadBbcFile(p).value()` behaves like the classic API while
 * `auto r = tryLoadBbcFile(p); if (!r.ok()) ...` recovers in place.
 */
template <typename T>
class Result
{
  public:
    Result(T value) : value_(std::move(value)) {}

    Result(Status status) : status_(std::move(status))
    {
        // An Ok status with no value is a programming error; keep the
        // invariant "ok() == has value" without pulling in logging.
        if (status_.ok())
            status_ = internalError("Result built from an Ok status");
    }

    bool ok() const { return value_.has_value(); }
    const Status &status() const { return status_; }

    const T &
    value() const &
    {
        if (!ok())
            raise(status_);
        return *value_;
    }

    T &&
    value() &&
    {
        if (!ok())
            raise(status_);
        return std::move(*value_);
    }

  private:
    Status status_;
    std::optional<T> value_;
};

} // namespace unistc

#endif // UNISTC_ROBUST_STATUS_HH
