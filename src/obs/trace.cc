#include "obs/trace.hh"

#include <fstream>
#include <utility>

#include "common/logging.hh"
#include "obs/json_writer.hh"

namespace unistc
{

const char *
toString(TraceTrack track)
{
    switch (track) {
      case TraceTrack::Runner:
        return "runner";
      case TraceTrack::Tms:
        return "TMS";
      case TraceTrack::Dpg:
        return "DPG";
      case TraceTrack::Sdpu:
        return "SDPU";
      case TraceTrack::Memory:
        return "memory";
    }
    return "?";
}

TraceSink::TraceSink(std::size_t capacity)
{
    UNISTC_ASSERT(capacity > 0, "trace ring needs capacity > 0");
    ring_.resize(capacity);
}

void
TraceSink::setProcess(int pid, const std::string &name)
{
    pid_ = pid;
    processNames_[pid] = name;
}

void
TraceSink::push(TraceEvent e)
{
    ring_[head_] = std::move(e);
    head_ = (head_ + 1) % ring_.size();
    if (size_ < ring_.size())
        ++size_;
    ++recorded_;
}

void
TraceSink::mergeFrom(const TraceSink &other)
{
    for (auto &e : other.events())
        push(std::move(e));
    for (const auto &[pid, name] : other.processNames_)
        processNames_[pid] = name;
    // Events the source ring already overwrote are still "recorded":
    // keep dropped() = recorded() - size() consistent after a merge.
    recorded_ += other.dropped();
    unbalanced_ += other.unbalanced_;
}

void
TraceSink::begin(TraceTrack track, std::string name, std::uint64_t ts)
{
    if (!enabled_)
        return;
    stacks_[{pid_, static_cast<int>(track)}].push_back(
        {std::move(name), ts});
}

void
TraceSink::end(TraceTrack track, std::uint64_t ts)
{
    if (!enabled_)
        return;
    auto &stack = stacks_[{pid_, static_cast<int>(track)}];
    if (stack.empty()) {
        ++unbalanced_;
        return;
    }
    OpenSpan span = std::move(stack.back());
    stack.pop_back();
    TraceEvent e;
    e.phase = 'X';
    e.pid = pid_;
    e.tid = static_cast<int>(track);
    e.ts = span.ts;
    e.dur = ts >= span.ts ? ts - span.ts : 0;
    e.name = std::move(span.name);
    push(std::move(e));
}

void
TraceSink::complete(TraceTrack track, std::string name,
                    std::uint64_t ts, std::uint64_t dur)
{
    if (!enabled_)
        return;
    TraceEvent e;
    e.phase = 'X';
    e.pid = pid_;
    e.tid = static_cast<int>(track);
    e.ts = ts;
    e.dur = dur;
    e.name = std::move(name);
    push(std::move(e));
}

void
TraceSink::instant(TraceTrack track, std::string name,
                   std::uint64_t ts)
{
    if (!enabled_)
        return;
    TraceEvent e;
    e.phase = 'i';
    e.pid = pid_;
    e.tid = static_cast<int>(track);
    e.ts = ts;
    e.name = std::move(name);
    push(std::move(e));
}

void
TraceSink::counter(std::string name, std::uint64_t ts, double value)
{
    if (!enabled_)
        return;
    TraceEvent e;
    e.phase = 'C';
    e.pid = pid_;
    e.tid = 0;
    e.ts = ts;
    e.name = std::move(name);
    e.value = value;
    push(std::move(e));
}

std::vector<TraceEvent>
TraceSink::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    // Oldest event sits at head_ once the ring has wrapped.
    const std::size_t start =
        size_ < ring_.size() ? 0 : head_;
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

void
TraceSink::writeChromeTrace(std::ostream &os) const
{
    JsonWriter w(os, /*indent=*/0);
    w.beginObject();
    w.key("displayTimeUnit");
    w.value("ms");
    w.key("otherData");
    w.beginObject();
    w.key("generator");
    w.value("unistc-tracer");
    w.key("timeUnit");
    w.value("cycles");
    w.key("eventsRecorded");
    w.value(recorded());
    w.key("eventsDropped");
    w.value(dropped());
    w.endObject();
    w.key("traceEvents");
    w.beginArray();

    // Metadata: process names (one per model) and track names.
    for (const auto &[pid, name] : processNames_) {
        w.beginObject();
        w.key("ph");
        w.value("M");
        w.key("pid");
        w.value(pid);
        w.key("tid");
        w.value(0);
        w.key("name");
        w.value("process_name");
        w.key("args");
        w.beginObject();
        w.key("name");
        w.value(name);
        w.endObject();
        w.endObject();
        for (const TraceTrack track :
             {TraceTrack::Runner, TraceTrack::Tms, TraceTrack::Dpg,
              TraceTrack::Sdpu, TraceTrack::Memory}) {
            w.beginObject();
            w.key("ph");
            w.value("M");
            w.key("pid");
            w.value(pid);
            w.key("tid");
            w.value(static_cast<int>(track));
            w.key("name");
            w.value("thread_name");
            w.key("args");
            w.beginObject();
            w.key("name");
            w.value(toString(track));
            w.endObject();
            w.endObject();
        }
    }

    for (const TraceEvent &e : events()) {
        w.beginObject();
        w.key("ph");
        w.value(std::string(1, e.phase));
        w.key("pid");
        w.value(e.pid);
        w.key("tid");
        w.value(e.tid);
        w.key("ts");
        w.value(e.ts);
        if (e.phase == 'X') {
            w.key("dur");
            w.value(e.dur);
        }
        w.key("name");
        w.value(e.name);
        if (e.phase == 'i') {
            // Instant scope: thread.
            w.key("s");
            w.value("t");
        }
        if (e.phase == 'C') {
            w.key("args");
            w.beginObject();
            w.key("value");
            w.value(e.value);
            w.endObject();
        }
        w.endObject();
    }

    w.endArray();
    w.endObject();
    os << '\n';
}

void
TraceSink::writeChromeTraceFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        UNISTC_FATAL("cannot open trace output file '", path, "'");
    writeChromeTrace(os);
    if (!os.good())
        UNISTC_FATAL("error writing trace file '", path, "'");
}

} // namespace unistc
