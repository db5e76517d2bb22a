#include "stc/stc_model.hh"

namespace unistc
{

BlockTask
BlockTask::mm(const BlockPattern &a, const BlockPattern &b)
{
    return mm(a, b, nullptr, nullptr);
}

BlockTask
BlockTask::mm(const BlockPattern &a, const BlockPattern &b,
              const PatternMeta *a_meta, const PatternMeta *b_meta)
{
    BlockTask t;
    t.a = a;
    t.b = b;
    t.isMv = false;
    if (a_meta != nullptr) {
        t.aMeta_ = *a_meta;
        t.aReady_ = true;
    }
    if (b_meta != nullptr) {
        t.bMeta_ = *b_meta;
        t.bReady_ = true;
    }
    return t;
}

BlockTask
BlockTask::mv(const BlockPattern &a, std::uint16_t x_mask)
{
    return mv(a, x_mask, nullptr, nullptr);
}

BlockTask
BlockTask::mv(const BlockPattern &a, std::uint16_t x_mask,
              const PatternMeta *a_meta, const PatternMeta *b_meta)
{
    BlockTask t = mm(a, vectorAsBlock(x_mask), a_meta, b_meta);
    t.isMv = true;
    return t;
}

} // namespace unistc
