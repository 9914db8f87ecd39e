#include "mem/page_table.h"

#include <algorithm>

namespace sgms
{

PageTable::Frame &
PageTable::install(PageId page, uint64_t stamp)
{
    SGMS_ASSERT(!full());
    SGMS_ASSERT(!find(page));
    ++resident_;
    policy_->insert(page, stamp);
    Frame *f = nullptr;
    if (page < DENSE_LIMIT) {
        if (page >= dense_.size()) {
            size_t cap =
                std::max<size_t>(std::max<size_t>(64, page + 1),
                                 dense_.size() * 2);
            cap = std::min<size_t>(cap, DENSE_LIMIT);
            dense_.resize(cap);
        }
        f = &dense_[page];
        *f = Frame{};
    } else {
        auto [it, inserted] = overflow_.try_emplace(page);
        SGMS_ASSERT(inserted);
        f = &it->second;
    }
    f->present = true;
    f->last_touch = stamp;
    return *f;
}

void
PageTable::remove_storage(PageId page)
{
    if (page < DENSE_LIMIT) {
        SGMS_ASSERT(page < dense_.size() && dense_[page].present);
        dense_[page].present = false;
    } else {
        size_t n = overflow_.erase(page);
        SGMS_ASSERT(n == 1);
    }
    --resident_;
}

PageId
PageTable::evict(Frame *state)
{
    PageId victim = policy_->victim(*this);
    Frame *f = find(victim);
    SGMS_ASSERT(f);
    if (state)
        *state = *f;
    remove_storage(victim);
    ++evictions_;
    return victim;
}

void
PageTable::erase(PageId page)
{
    SGMS_ASSERT(find(page));
    policy_->erase(page);
    remove_storage(page);
}

bool
PageTable::mark_valid(PageId page, SubpageIndex idx)
{
    Frame *f = find(page);
    if (!f)
        return false;
    f->valid.set(idx);
    f->inflight &= ~(1ULL << idx);
    if (f->valid.complete(geo_.subpages_per_page()))
        f->complete = true;
    return true;
}

bool
PageTable::mark_all_valid(PageId page)
{
    Frame *f = find(page);
    if (!f)
        return false;
    f->valid.fill(geo_.subpages_per_page());
    f->inflight = 0;
    f->complete = true;
    return true;
}

} // namespace sgms
