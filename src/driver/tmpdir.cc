#include "driver/tmpdir.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define UNISTC_TMPDIR_POSIX 1
#include <unistd.h>
#else
#define UNISTC_TMPDIR_POSIX 0
#endif

namespace unistc
{
namespace driver
{

std::string
tempDir()
{
    std::string dir = "/tmp";
    if (const char *env = std::getenv("TMPDIR")) {
        if (*env != '\0')
            dir = env;
    }
    while (dir.size() > 1 && dir.back() == '/')
        dir.pop_back();
    return dir;
}

Result<std::string>
makeTempDir(const std::string &prefix)
{
#if UNISTC_TMPDIR_POSIX
    std::string tmpl = tempDir() + "/" + prefix + "XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
        return Result<std::string>(
            ioError("mkdtemp '" + tmpl + "': " +
                    std::strerror(errno) +
                    " (is $TMPDIR writable?)"));
    }
    return Result<std::string>(std::string(buf.data()));
#else
    (void)prefix;
    return Result<std::string>(
        internalError("makeTempDir needs a POSIX host"));
#endif
}

} // namespace driver
} // namespace unistc
