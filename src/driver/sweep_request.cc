#include "driver/sweep_request.hh"

#include <cstdlib>

namespace unistc
{
namespace driver
{

namespace
{

Status
optError(const std::string &message)
{
    return invalidArgument(message);
}

struct StdFlag
{
    const char *name;
    bool hasValue;
    const char *valueName;
    const char *help;
};

/** The standard family, in --help order. */
const StdFlag kStdFlags[] = {
    {"quick", false, "",
     "shrink workloads (also UNISTC_BENCH_QUICK)"},
    {"smoke", false, "",
     "tiny corpus for ctest smoke runs (implies --quick)"},
    {"log-level", true, "LEVEL",
     "debug|info|warn|error|silent (or 0-4)"},
};

const StdFlag *
findStdFlag(const std::string &name)
{
    for (const StdFlag &f : kStdFlags) {
        if (name == f.name)
            return &f;
    }
    return nullptr;
}

const CliFlag *
findExtraFlag(const std::vector<CliFlag> &extra,
              const std::string &name)
{
    for (const CliFlag &f : extra) {
        if (f.name == name)
            return &f;
    }
    return nullptr;
}

/** Apply one standard flag value onto the request being built. */
Status
applyStdFlag(SweepRequest &req, const std::string &name,
             const std::string &value)
{
    if (name == "quick") {
        req.quick = true;
    } else if (name == "smoke") {
        req.smoke = true;
        req.quick = true;
    } else if (name == "log-level") {
        LogLevel level = LogLevel::Info;
        if (!parseLogLevel(value, level)) {
            return optError("unknown --log-level '" + value +
                            "' (use debug|info|warn|error|silent)");
        }
        req.logLevelSet = true;
        req.logLevel = level;
    }
    return Status();
}

} // namespace

Result<ParsedCli>
parseSweepCli(int argc, char **argv,
              const std::vector<CliFlag> &extraFlags)
{
    ParsedCli out;
    for (int i = 1; i < argc;) {
        const std::string arg(argv[i]);
        // --help / --version short-circuit: the rest of the line is
        // never validated, so "bench --help --whatever" still helps.
        if (arg == "--help" || arg == "-h") {
            out.helpRequested = true;
            return out;
        }
        if (arg == "--version") {
            out.versionRequested = true;
            return out;
        }
        if (arg.rfind("--", 0) != 0) {
            return optError("expected an option, got '" + arg +
                            "' (see --help)");
        }
        // Accept both "--flag value" and "--flag=value".
        std::string name = arg.substr(2);
        std::string value;
        bool valueInline = false;
        const std::size_t eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            valueInline = true;
        }
        const StdFlag *std_flag = findStdFlag(name);
        const CliFlag *extra_flag =
            std_flag == nullptr ? findExtraFlag(extraFlags, name)
                                : nullptr;
        if (std_flag == nullptr && extra_flag == nullptr) {
            return optError("unknown option '" + arg +
                            "' (see --help)");
        }
        const bool has_value = std_flag != nullptr
                                   ? std_flag->hasValue
                                   : extra_flag->hasValue;
        if (!has_value) {
            if (valueInline) {
                return optError("option '--" + name +
                                "' takes no value");
            }
            value.assign(1, '1');
            ++i;
        } else if (valueInline) {
            ++i;
        } else {
            if (i + 1 >= argc) {
                return optError("option '--" + name +
                                "' is missing a value");
            }
            value = argv[i + 1];
            i += 2;
        }
        if (std_flag != nullptr) {
            if (Status s = applyStdFlag(out.request, name, value);
                !s.ok()) {
                return s;
            }
        } else {
            out.extra[name] = value;
        }
    }

    if (std::getenv("UNISTC_BENCH_QUICK") != nullptr)
        out.request.quick = true;
    return out;
}

std::string
sweepCliHelp(const std::string &binaryName,
             const std::vector<CliFlag> &extraFlags)
{
    std::string text = "usage: " + binaryName + " [options]\n";
    const auto line = [&text](const std::string &name, bool hasValue,
                              const std::string &valueName,
                              const std::string &help) {
        std::string head = "  --" + name;
        if (hasValue)
            head += " " + (valueName.empty() ? "VALUE" : valueName);
        if (head.size() < 28)
            head.append(28 - head.size(), ' ');
        else
            head += "  ";
        text += head + help + "\n";
    };
    for (const CliFlag &f : extraFlags)
        line(f.name, f.hasValue, f.valueName, f.help);
    if (!extraFlags.empty())
        text += "\nexecution family (every unistc binary):\n";
    for (const StdFlag &f : kStdFlags)
        line(f.name, f.hasValue, f.valueName, f.help);
    line("help", false, "", "this text (also -h)");
    line("version", false, "",
         "git revision + on-disk schema versions");
    return text;
}

} // namespace driver
} // namespace unistc
