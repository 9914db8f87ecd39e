#include "obs/tracer.h"

#include <algorithm>

#include "common/logging.h"

namespace sgms::obs
{

const char *
span_category_name(SpanCategory c)
{
    switch (c) {
      case SpanCategory::Fault:
        return "fault";
      case SpanCategory::PageWait:
        return "page_wait";
      case SpanCategory::Block:
        return "block";
      case SpanCategory::Net:
        return "net";
      case SpanCategory::Gms:
        return "gms";
      case SpanCategory::Policy:
        return "policy";
    }
    return "?";
}

Tracer::Tracer(size_t capacity) : capacity_(capacity)
{
    if (capacity == 0)
        fatal("tracer: capacity must be >= 1");
    ring_.reserve(capacity);
}

std::vector<Span>
Tracer::spans() const
{
    // Oldest first: once the ring has wrapped, the oldest entry is
    // at next_ (the slot about to be overwritten); before, next_ is 0.
    std::vector<Span> out;
    out.reserve(ring_.size());
    out.insert(out.end(), ring_.begin() + next_, ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + next_);
    return out;
}

void
Tracer::clear()
{
    ring_.clear(); // keeps the reserve
    next_ = 0;
    dropped_ = 0;
    std::fill(std::begin(count_by_cat_), std::end(count_by_cat_), 0);
}

} // namespace sgms::obs
