#include "driver/execution_context.hh"

namespace unistc
{
namespace driver
{

namespace
{

ExecutionContext *&
currentSlot()
{
    static ExecutionContext *current = nullptr;
    return current;
}

} // namespace

ExecutionContext &
ExecutionContext::global()
{
    static ExecutionContext *ctx =
        new ExecutionContext(/*processDefault=*/true);
    return *ctx;
}

ExecutionContext *
ExecutionContext::current()
{
    return currentSlot();
}

ExecutionContext *
ExecutionContext::makeCurrent(ExecutionContext *ctx)
{
    ExecutionContext *previous = currentSlot();
    currentSlot() = ctx;
    return previous;
}

ExecutionContext &
ExecutionContext::active()
{
    ExecutionContext *ctx = currentSlot();
    return ctx != nullptr ? *ctx : global();
}

} // namespace driver
} // namespace unistc
