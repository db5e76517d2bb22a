#include "driver/checkpoint_session.hh"

#include "common/logging.hh"

namespace unistc
{
namespace driver
{

void
CheckpointSession::configure(const std::string &path)
{
    log_ = std::make_unique<CheckpointLog>(
        CheckpointLog::load(path).value());
    if (log_->truncated()) {
        // A killed writer tore the tail. Rewrite the valid prefix
        // atomically BEFORE reopening for append, or every record we
        // add lands behind the corrupt line where no future --resume
        // can reach it.
        if (Status s = rewriteCheckpointAtomic(path, log_->entries());
            !s.ok()) {
            raise(s);
        }
        UNISTC_INFORM("repaired torn checkpoint '", path, "': kept ",
                      log_->size(), " valid entr(ies)");
    }
    if (Status s = writer_.open(path); !s.ok())
        raise(s);
    if (!log_->empty()) {
        UNISTC_INFORM("resuming from checkpoint '", path, "': ",
                      log_->size(), " completed job(s) on file");
    }
    enabled_ = true;
}

const CheckpointEntry *
CheckpointSession::lookup(Kernel kernel, const std::string &model,
                          const std::string &matrix)
{
    if (!enabled_)
        return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t occurrence =
        seen_[checkpointKey(toString(kernel), model, matrix)]++;
    return log_->find(toString(kernel), model, matrix, occurrence);
}

void
CheckpointSession::append(Kernel kernel, const std::string &model,
                          const std::string &matrix,
                          const RunResult &result)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    CheckpointEntry e;
    e.kernel = toString(kernel);
    e.model = model;
    e.matrix = matrix;
    e.result = result;
    if (Status s = writer_.append(e); !s.ok()) {
        // A failing checkpoint must not fail the run: results are
        // still printed, only resumability degrades.
        UNISTC_WARN("checkpoint append failed: ", s.message());
    }
}

void
CheckpointSession::resetCursor()
{
    std::lock_guard<std::mutex> lock(mu_);
    seen_.clear();
}

void
CheckpointSession::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    enabled_ = false;
    log_.reset();
    writer_.close();
    seen_.clear();
}

} // namespace driver
} // namespace unistc
