#include <cctype>
#include <cstdio>

#include "bench.hh"
#include "common/logging.hh"
#include "stc/registry.hh"

namespace perfbench
{

int
Recorder::begin(const std::string &name)
{
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, now(), 0.0, parent});
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Recorder::end(int id)
{
    UNISTC_ASSERT(!open_.empty() && open_.back() == id,
                  "spans must close innermost first");
    spans_[static_cast<std::size_t>(id)].end = now();
    open_.pop_back();
}

void
Recorder::add(const std::string &name, double start, double end)
{
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, start, end, parent});
}

std::map<std::string, double>
Recorder::selfTimes(std::size_t first, std::size_t last) const
{
    std::map<std::string, double> self;
    for (std::size_t i = first; i < last; ++i) {
        const Span &s = spans_[i];
        const double dur = s.end - s.start;
        self[s.name] += dur;
        if (s.parent >= static_cast<int>(first))
            self[spans_[static_cast<std::size_t>(s.parent)].name] -= dur;
    }
    return self;
}

std::map<std::string, double>
Recorder::totals(std::size_t first, std::size_t last) const
{
    std::map<std::string, double> total;
    for (std::size_t i = first; i < last; ++i)
        total[spans_[i].name] += spans_[i].end - spans_[i].start;
    return total;
}

void
Recorder::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        UNISTC_WARN("cannot write spans to '", path, "'");
        return;
    }
    std::fputs("{\"spans\": [", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n  {\"id\": %zu, \"name\": \"%s\", "
                     "\"start\": %.9f, \"end\": %.9f, \"parent\": %d}",
                     i == 0 ? "" : ",", i, s.name.c_str(), s.start,
                     s.end, s.parent);
    }
    std::fputs("\n]}\n", f);
    std::fclose(f);
}

std::string
slug(const std::string &model)
{
    std::string out;
    for (const char c : model) {
        out.push_back(c == '-' ? '_'
                               : static_cast<char>(std::tolower(
                                     static_cast<unsigned char>(c))));
    }
    return out;
}

Lineup::Lineup(const std::vector<std::string> &names,
               const unistc::MachineConfig &cfg, ModelClock *clock)
{
    if (clock != nullptr) {
        clock->names = names;
        clock->busy.assign(names.size(), SteadyClock::duration{});
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
        owned_.push_back(unistc::makeStcModel(names[i], cfg));
        if (clock != nullptr) {
            timed_.push_back(
                std::make_unique<TimedModel>(*owned_.back(), *clock, i));
            lineup_.push_back(timed_.back().get());
        } else {
            lineup_.push_back(owned_.back().get());
        }
    }
}

} // namespace perfbench
