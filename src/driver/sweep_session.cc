#include "driver/sweep_session.hh"

#include "common/logging.hh"

namespace unistc
{
namespace driver
{

RunResult
SweepSession::sentinel()
{
    RunResult s;
    s.cycles = 1;
    s.products = 1;
    s.macSlots = 1;
    s.tasksT1 = 1;
    s.tasksT3 = 1;
    return s;
}

void
SweepSession::startPlan(const SweepRequest &req)
{
    SweepExecutor::Options opt;
    opt.jobs = req.jobs;
    opt.tracePerJob = req.traceJobCapacity;
    exec_ = std::make_unique<SweepExecutor>(opt);
    cursor_ = 0;
    mode_ = Mode::Plan;
}

void
SweepSession::startReplay()
{
    UNISTC_ASSERT(mode_ == Mode::Plan,
                  "startReplay without a plan pass");
    exec_->wait();
    cursor_ = 0;
    mode_ = Mode::Replay;
}

void
SweepSession::reset()
{
    mode_ = Mode::Off;
    exec_.reset();
    captures_.clear();
    cursor_ = 0;
}

const TraceSink *
SweepSession::trace() const
{
    return mode_ == Mode::Replay ? exec_->trace() : nullptr;
}

std::vector<RunResult>
SweepSession::plan(Kernel kernel,
                   const std::vector<const StcModel *> &models,
                   const Prepared &p, const EnergyModel &energy,
                   int bCols)
{
    JobSpec spec;
    spec.kernel = kernel;
    spec.matrix = p.name;
    spec.models.reserve(models.size());
    for (const StcModel *m : models)
        spec.models.emplace_back(m->clone());
    const Capture &cap = capture(p);
    spec.a = cap.bbc;
    if (kernel == Kernel::SpMSpV)
        spec.x = cap.x50;
    spec.bCols = bCols;
    spec.energy = energy.params();
    exec_->submit(std::move(spec));
    return std::vector<RunResult>(models.size(), sentinel());
}

std::vector<RunResult>
SweepSession::replay(Kernel kernel,
                     const std::vector<const StcModel *> &models,
                     const Prepared &p, PipelineCounters &counters)
{
    UNISTC_ASSERT(exec_ != nullptr, "replay without a plan");
    if (cursor_ >= exec_->jobCount()) {
        UNISTC_FATAL(
            "--jobs replay diverged: the bench issued more kernel "
            "runs than the plan pass recorded (call ", cursor_ + 1,
            " of ", exec_->jobCount(),
            "). This bench's control flow depends on simulation "
            "results; run it with --jobs 1.");
    }
    const JobSpec &planned = exec_->spec(cursor_);
    bool matches = planned.kernel == kernel &&
                   planned.matrix == p.name &&
                   planned.models.size() == models.size();
    for (std::size_t m = 0; matches && m < models.size(); ++m)
        matches = planned.models[m]->name() == models[m]->name();
    if (!matches) {
        UNISTC_FATAL(
            "--jobs replay diverged at job ", cursor_, ": planned ",
            planned.label(), " but the bench requested a ",
            toString(kernel), " lineup of ", models.size(),
            " model(s) @ ", p.name,
            ". This bench's control flow depends on simulation "
            "results; run it with --jobs 1.");
    }
    counters = exec_->countersOf(cursor_);
    std::vector<RunResult> results;
    results.reserve(models.size());
    for (std::size_t m = 0; m < models.size(); ++m)
        results.push_back(exec_->resultOf(cursor_, m));
    ++cursor_;
    return results;
}

const SweepSession::Capture &
SweepSession::capture(const Prepared &p)
{
    const std::string key =
        p.name + "#" + std::to_string(p.csr.rows()) + "x" +
        std::to_string(p.csr.cols()) + "#" +
        std::to_string(p.csr.nnz()) + "#" +
        std::to_string(p.x50.nnz());
    auto it = captures_.find(key);
    if (it == captures_.end()) {
        Capture cap;
        cap.bbc = std::make_shared<const BbcMatrix>(p.bbc);
        cap.x50 = std::make_shared<const SparseVector>(p.x50);
        it = captures_.emplace(key, std::move(cap)).first;
    }
    return it->second;
}

} // namespace driver
} // namespace unistc
