/**
 * @file
 * Shared pieces of the repository benchmark: run options, the span
 * recorder, the per-pass result record and the three workloads.
 *
 * The benchmark measures the simulator from the outside. Every layer
 * is timed around calls into that module's public functions; nothing
 * inside src/ is instrumented. A pass is one full execution of a
 * workload (set-up, simulation, reporting). Untraced passes give the
 * end-to-end metrics; traced passes additionally wrap each
 * architecture model (TimedModel) to split the simulation time.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/plan.hh"
#include "sim/config.hh"
#include "stc/stc_model.hh"

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool small = false;     ///< --size small: the benches' --quick inputs.
    bool parity = false;    ///< Also run the in-binary parity check.
    std::string expected;   ///< Expected-digest file.
    std::string spans;      ///< Span dump written at exit ("" = none).
};

using SteadyClock = std::chrono::steady_clock;

/** One timed call into a layer. parent is an index, -1 for a root. */
struct Span
{
    std::string name;
    double start = 0.0; ///< Seconds since the recorder's epoch.
    double end = 0.0;
    int parent = -1;
};

/**
 * In-memory span list for the whole run. begin()/end() nest: a span
 * opened while another is open becomes its child. The list is written
 * out once, at exit (writeJson).
 */
class Recorder
{
  public:
    Recorder() : epoch_(SteadyClock::now()) {}

    double seconds(SteadyClock::time_point t) const
    {
        return std::chrono::duration<double>(t - epoch_).count();
    }

    double now() const { return seconds(SteadyClock::now()); }

    int begin(const std::string &name);
    void end(int id);

    /** A finished span under the currently open one. */
    void add(const std::string &name, double start, double end);

    /** Time @p f as a span named @p name and return its result. */
    template <typename F>
    decltype(auto)
    span(const std::string &name, F &&f)
    {
        const int id = begin(name);
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            end(id);
        } else {
            auto out = f();
            end(id);
            return out;
        }
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time per span name (duration minus child spans) over
     *  the spans with index in [@p first, @p last). */
    std::map<std::string, double> selfTimes(std::size_t first,
                                            std::size_t last) const;

    /** Summed duration per span name over [@p first, @p last). */
    std::map<std::string, double> totals(std::size_t first,
                                         std::size_t last) const;

    void writeJson(const std::string &path) const;

  private:
    SteadyClock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * Model-time accumulator of a traced pass. One slot per model of the
 * lineup; first/last span the model calls since resetWindow(), which
 * splits a lineup call into driver and engine time.
 */
struct ModelClock
{
    std::vector<std::string> names;          ///< Slot -> model name.
    std::vector<SteadyClock::duration> busy; ///< Slot -> time in runBlock.
    SteadyClock::time_point first{};
    SteadyClock::time_point last{};
    bool called = false;

    void resetWindow() { called = false; }
};

/**
 * Benchmark-side StcModel wrapper: forwards runBlock/clone/network to
 * the real model and times each runBlock. The simulated result is the
 * real model's, so a traced pass does the same work as an untraced one.
 */
class TimedModel final : public unistc::StcModel
{
  public:
    TimedModel(const unistc::StcModel &inner, ModelClock &clock,
               std::size_t slot)
        : StcModel(inner.config()), inner_(inner), clock_(clock),
          slot_(slot)
    {
    }

    std::string name() const override { return inner_.name(); }

    std::unique_ptr<StcModel>
    clone() const override
    {
        return inner_.clone();
    }

    unistc::NetworkConfig
    network() const override
    {
        return inner_.network();
    }

    void
    runBlock(const unistc::BlockTask &task, unistc::RunResult &res,
             unistc::TraceSink *trace = nullptr) const override
    {
        const SteadyClock::time_point t0 = SteadyClock::now();
        inner_.runBlock(task, res, trace);
        const SteadyClock::time_point t1 = SteadyClock::now();
        clock_.busy[slot_] += t1 - t0;
        if (!clock_.called) {
            clock_.first = t0;
            clock_.called = true;
        }
        clock_.last = t1;
    }

  private:
    const unistc::StcModel &inner_;
    ModelClock &clock_;
    std::size_t slot_;
};

/**
 * The models of one pass: the real ones, plus timed wrappers when a
 * ModelClock is given. models() is what the workload hands the engine.
 */
class Lineup
{
  public:
    Lineup(const std::vector<std::string> &names,
           const unistc::MachineConfig &cfg, ModelClock *clock);

    const std::vector<const unistc::StcModel *> &
    models() const
    {
        return lineup_;
    }

  private:
    std::vector<unistc::StcModelPtr> owned_;
    std::vector<std::unique_ptr<TimedModel>> timed_;
    std::vector<const unistc::StcModel *> lineup_;
};

/** One operation: a lineup call, a sparsity point or a DNN layer. */
struct Op
{
    std::string name;
    std::uint64_t digest = 0;
    /** Per-model products, checked against the stream's structure. */
    std::vector<std::uint64_t> products;
};

/** Paper value and simulated value of one published ratio. */
struct PaperRatio
{
    std::string label;
    double simulated = 0.0;
    double paper = 0.0;
};

/** Everything one pass produced. */
struct PassResult
{
    double wall = 0.0;
    /** Host seconds of the reference computation around the pass. */
    double reference = 0.0;
    std::size_t firstSpan = 0; ///< Index of the pass's root span.
    std::size_t endSpan = 0;   ///< One past the pass's last span.
    std::vector<Op> ops;
    /** Extra digest input beyond the ops (InferenceLatency values). */
    std::uint64_t tailDigest = 0;
    std::map<std::string, double> counts;
    std::map<std::string, double> modelSeconds; ///< Traced passes only.
    double taskEvals = 0.0;  ///< T1 tasks x models, or bundles.
    std::vector<PaperRatio> paper;
    std::vector<std::string> benchLines; ///< Bench-format summary lines.
    std::vector<std::string> failures;   ///< In-pass invariant failures.
};

/** Run digest: the ops' digests in order, then the tail. */
std::uint64_t runDigest(const PassResult &pass);

/** Time-share probe of Uni-STC's TMS, DPG and SDPU stages. */
struct UniProbe
{
    double tmsSeconds = 0.0;
    double dpgSeconds = 0.0;
    double sdpuSeconds = 0.0;
    std::uint64_t t3Tasks = 0;
    std::uint64_t t4Tasks = 0;
    std::uint64_t sdpuCycles = 0;

    /** Replay @p plan's tasks through the three stages. */
    void replay(const unistc::KernelPlan &plan,
                const unistc::MachineConfig &cfg);
};

/** Called once per operation's plan, in pass order. */
using PlanVisitor =
    std::function<void(std::size_t op, const unistc::KernelPlan &plan)>;

/** A named workload. */
struct Workload
{
    const char *name;
    std::uint64_t defaultSeed;
    /** Spans whose time counts as simulation seconds. */
    std::vector<std::string> simSpans;
    /** Run one pass; @p clock is non-null in traced passes. */
    PassResult (*pass)(const Options &, Recorder &, ModelClock *);
    /** Rebuild each op's plan outside the timed region (or null). */
    void (*forEachPlan)(const Options &, const PlanVisitor &);
    /** Machine configuration the plans run on. */
    unistc::MachineConfig machine;
    /** In-binary parity check against the library entry point. */
    std::vector<std::string> (*parity)(const Options &,
                                       const PassResult &);
};

const Workload &suiteLineup();
const Workload &randomFullline();
const Workload &dlmcDevice();

/** Metric-name form of a model name: "Uni-STC" -> "uni_stc". */
std::string slug(const std::string &model);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
