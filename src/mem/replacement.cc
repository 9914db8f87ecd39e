#include "mem/replacement.h"

#include <algorithm>

#include "common/logging.h"
#include "mem/page_table.h"

namespace sgms
{

void
LruPolicy::insert(PageId page, uint64_t stamp)
{
    if (queue_.empty() || queue_.back().stamp <= stamp)
        queue_.push_back({stamp, page});
    else
        heap_push({stamp, page}); // out of order: keep the queue sorted
}

void
LruPolicy::heap_push(Entry e)
{
    size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
        size_t parent = (i - 1) / 2;
        if (heap_[parent].stamp <= e.stamp)
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

/**
 * Restore the heap after the key of entry @p i grew. A grown key is a
 * recent stamp and belongs near the leaves, so the hole walks down
 * the smaller children to a leaf, one branch-free comparison a level,
 * and the entry climbs back from there, rarely far.
 */
void
LruPolicy::sift_down(size_t i)
{
    const size_t n = heap_.size();
    const Entry e = heap_[i];
    size_t child = 2 * i + 1;
    for (; child + 1 < n; child = 2 * i + 1) {
        child += heap_[child + 1].stamp < heap_[child].stamp;
        heap_[i] = heap_[child];
        i = child;
    }
    if (child < n) {
        heap_[i] = heap_[child];
        i = child;
    }
    while (i > 0) {
        size_t parent = (i - 1) / 2;
        if (heap_[parent].stamp <= e.stamp)
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

PageId
LruPolicy::victim(const PageTable &table)
{
    for (;;) {
        Entry e{};
        if (head_ < queue_.size() &&
            (heap_.empty() || queue_[head_].stamp < heap_.front().stamp)) {
            e = queue_[head_++];
            if (2 * head_ >= queue_.size()) {
                queue_.erase(queue_.begin(), queue_.begin() + head_);
                head_ = 0;
            }
        } else {
            SGMS_ASSERT(!heap_.empty());
            e = heap_.front();
            heap_.front() = heap_.back();
            heap_.pop_back();
            if (!heap_.empty())
                sift_down(0);
        }
        const PageTable::Frame *f = table.find(e.page);
        if (!f)
            continue; // erased: drop its entry
        if (f->last_touch != e.stamp) {
            heap_push({f->last_touch, e.page}); // used since: re-key
            continue;
        }
        return e.page;
    }
}

void
FifoPolicy::erase(PageId page)
{
    // Testing / invalidation only, so a scan of the queue will do.
    auto it = std::find(queue_.begin() + head_, queue_.end(), page);
    SGMS_ASSERT(it != queue_.end());
    queue_.erase(it);
}

PageId
FifoPolicy::victim(const PageTable & /* table */)
{
    SGMS_ASSERT(head_ < queue_.size());
    PageId page = queue_[head_++];
    if (2 * head_ >= queue_.size()) {
        queue_.erase(queue_.begin(), queue_.begin() + head_);
        head_ = 0;
    }
    return page;
}

void
ClockPolicy::insert(PageId page, uint64_t /* stamp */)
{
    // Reuse a dead slot if the ring has one at the hand; otherwise
    // grow. Growth keeps this simple; rings stay small (resident set).
    ++live_;
    for (size_t probe = 0; probe < ring_.size(); ++probe) {
        size_t i = (hand_ + probe) % ring_.size();
        if (!ring_[i].valid) {
            ring_[i] = {page, UNCLEARED, true};
            return;
        }
    }
    ring_.push_back({page, UNCLEARED, true});
}

void
ClockPolicy::erase(PageId page)
{
    // Testing / invalidation only, so a scan of the ring will do.
    for (Entry &e : ring_) {
        if (e.valid && e.page == page) {
            e.valid = false;
            --live_;
            return;
        }
    }
    SGMS_ASSERT(false);
}

PageId
ClockPolicy::victim(const PageTable &table)
{
    SGMS_ASSERT(live_ > 0);
    for (;;) {
        Entry &e = ring_[hand_];
        hand_ = (hand_ + 1) % ring_.size();
        if (!e.valid)
            continue;
        const PageTable::Frame *f = table.find(e.page);
        SGMS_ASSERT(f);
        if (f->last_touch != e.cleared_at) {
            e.cleared_at = f->last_touch; // referenced: clear the bit
            continue;
        }
        e.valid = false;
        --live_;
        return e.page;
    }
}

std::unique_ptr<ReplacementPolicy>
make_replacement_policy(const std::string &name)
{
    if (name == "lru")
        return std::make_unique<LruPolicy>();
    if (name == "fifo")
        return std::make_unique<FifoPolicy>();
    if (name == "clock")
        return std::make_unique<ClockPolicy>();
    fatal("unknown replacement policy '%s'", name.c_str());
}

} // namespace sgms
