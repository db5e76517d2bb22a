#include "engine/task_stream.hh"

namespace unistc
{

std::string
TaskStream::groupLabel(std::int64_t group) const
{
    return "T1 #" + std::to_string(group);
}

} // namespace unistc
