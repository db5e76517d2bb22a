#include "robust/status.hh"

#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace unistc
{

const char *
toString(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok:
        return "Ok";
      case ErrorCode::InvalidArgument:
        return "InvalidArgument";
      case ErrorCode::IoError:
        return "IoError";
      case ErrorCode::ParseError:
        return "ParseError";
      case ErrorCode::CorruptData:
        return "CorruptData";
      case ErrorCode::FailedPrecondition:
        return "FailedPrecondition";
      case ErrorCode::Internal:
        return "Internal";
    }
    return "?";
}

std::string
Status::toString() const
{
    if (ok())
        return "Ok";
    return std::string(unistc::toString(code_)) + ": " + message_;
}

Status
invalidArgument(std::string msg)
{
    return Status(ErrorCode::InvalidArgument, std::move(msg));
}

Status
ioError(std::string msg)
{
    return Status(ErrorCode::IoError, std::move(msg));
}

Status
parseError(std::string msg)
{
    return Status(ErrorCode::ParseError, std::move(msg));
}

Status
corruptData(std::string msg)
{
    return Status(ErrorCode::CorruptData, std::move(msg));
}

Status
failedPrecondition(std::string msg)
{
    return Status(ErrorCode::FailedPrecondition, std::move(msg));
}

Status
internalError(std::string msg)
{
    return Status(ErrorCode::Internal, std::move(msg));
}

void
raise(const Status &status)
{
    UNISTC_ASSERT(!status.ok(), "raise() on an Ok status");
    if (fatalBehavior() == FatalBehavior::Throw)
        throw UnistcError(status);
    // Exit mode: print regardless of the log-level filter — hiding
    // the reason for a termination would help nobody.
    std::fprintf(stderr, "fatal: %s\n", status.toString().c_str());
    std::exit(1);
}

} // namespace unistc
