/**
 * @file
 * Pluggable page replacement policies for the resident set.
 *
 * The paper's simulator uses "a configurable memory management
 * module; an LRU policy is used by default". LRU is the default here
 * too; FIFO and Clock are provided for the replacement ablation.
 *
 * A policy keeps no recency of its own. Each resident page's frame
 * carries a stamp, PageTable::Frame::last_touch: the time of its last
 * use on the caller's clock (the simulator's reference index), which
 * the caller stores on the frame it has already loaded (DESIGN.md
 * §6). A policy hears only of arrivals and removals, and reads the
 * stamps when it picks a victim: LRU orders the pages by stamp lazily,
 * Clock derives its reference bits from them, FIFO ignores them.
 */

#ifndef SGMS_MEM_REPLACEMENT_H
#define SGMS_MEM_REPLACEMENT_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace sgms
{

class PageTable;

/** Interface for page replacement policies. */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** @p page became resident, stamped @p stamp. */
    virtual void insert(PageId page, uint64_t stamp) = 0;

    /** A page was explicitly removed (not via victim()). */
    virtual void erase(PageId page) = 0;

    /**
     * Choose and remove the replacement victim. @p table holds the
     * frames of the resident pages, whose stamps only grow.
     */
    virtual PageId victim(const PageTable &table) = 0;

    /** Pre-size internal storage for @p pages resident pages. */
    virtual void reserve(size_t /* pages */) {}

    virtual const char *name() const = 0;
};

/**
 * Arrival order list over pooled nodes (FIFO's queue).
 *
 * Pages below DENSE_LIMIT resolve to their node through a flat
 * array indexed by page id (NIL when absent); larger ids fall back
 * to a hash map. Nodes are recycled through a free list, so a
 * policy at steady state (insert/victim churn) performs no
 * allocation at all.
 */
class PageOrderList
{
  public:
    /** O(1): link @p page at the back (newest end). */
    void
    push_back(PageId page)
    {
        uint32_t n = acquire(page);
        link_back(n);
        store_index(page, n);
        ++size_;
    }

    /** O(1): unlink @p page (must be present). */
    void
    remove(PageId page)
    {
        uint32_t n = find_index(page);
        unlink(n);
        release(page, n);
        --size_;
    }

    /** Unlink and return the page at the front. */
    PageId
    pop_front()
    {
        SGMS_ASSERT(head_ != NIL);
        uint32_t n = head_;
        PageId page = nodes_[n].page;
        unlink(n);
        release(page, n);
        --size_;
        return page;
    }

    bool
    contains(PageId page) const
    {
        if (page < DENSE_LIMIT)
            return page < dense_.size() && dense_[page] != NIL;
        return overflow_.count(page) != 0;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Pre-size the pool and index for @p pages entries. */
    void
    reserve(size_t pages)
    {
        nodes_.reserve(pages);
        free_.reserve(pages);
        if (pages > dense_.size() && pages <= DENSE_LIMIT)
            dense_.resize(pages, NIL);
    }

  private:
    static constexpr uint32_t NIL = UINT32_MAX;
    static constexpr PageId DENSE_LIMIT = 1ULL << 17;

    struct Node
    {
        PageId page;
        uint32_t prev;
        uint32_t next;
    };

    uint32_t
    acquire(PageId page)
    {
        uint32_t n;
        if (!free_.empty()) {
            n = free_.back();
            free_.pop_back();
        } else {
            n = static_cast<uint32_t>(nodes_.size());
            nodes_.push_back(Node{});
        }
        nodes_[n].page = page;
        return n;
    }

    void
    release(PageId page, uint32_t n)
    {
        free_.push_back(n);
        drop_index(page);
    }

    void
    link_back(uint32_t n)
    {
        nodes_[n].next = NIL;
        nodes_[n].prev = tail_;
        if (tail_ != NIL)
            nodes_[tail_].next = n;
        tail_ = n;
        if (head_ == NIL)
            head_ = n;
    }

    void
    unlink(uint32_t n)
    {
        Node &node = nodes_[n];
        if (node.prev != NIL)
            nodes_[node.prev].next = node.next;
        else
            head_ = node.next;
        if (node.next != NIL)
            nodes_[node.next].prev = node.prev;
        else
            tail_ = node.prev;
    }

    uint32_t
    find_index(PageId page) const
    {
        if (page < DENSE_LIMIT) {
            SGMS_ASSERT(page < dense_.size() && dense_[page] != NIL);
            return dense_[page];
        }
        auto it = overflow_.find(page);
        SGMS_ASSERT(it != overflow_.end());
        return it->second;
    }

    void
    store_index(PageId page, uint32_t n)
    {
        if (page < DENSE_LIMIT) {
            if (page >= dense_.size()) {
                size_t cap = std::max<size_t>(
                    std::max<size_t>(64, page + 1), dense_.size() * 2);
                cap = std::min<size_t>(cap, DENSE_LIMIT);
                dense_.resize(cap, NIL);
            }
            dense_[page] = n;
        } else {
            overflow_[page] = n;
        }
    }

    void
    drop_index(PageId page)
    {
        if (page < DENSE_LIMIT) {
            dense_[page] = NIL;
        } else {
            size_t n = overflow_.erase(page);
            SGMS_ASSERT(n == 1);
        }
    }

    std::vector<Node> nodes_;
    std::vector<uint32_t> free_;
    std::vector<uint32_t> dense_; // page id -> node, NIL when absent
    std::unordered_map<PageId, uint32_t> overflow_;
    uint32_t head_ = NIL; // oldest
    uint32_t tail_ = NIL;
    size_t size_ = 0;
};

/**
 * LRU: evicts the resident page with the oldest stamp.
 *
 * Each resident page has one entry, {stamp, page}, made at install
 * with the install stamp. Pages arrive with the newest stamp, so the
 * install entries join the back of a queue that stays in stamp
 * order. At eviction the older of the queue's front and a min-heap's
 * top surfaces: an entry older than its page's stamp is pushed on the
 * heap with that stamp, one whose page has left (erase is lazy) is
 * dropped, and the first that surfaces current names the least
 * recently used page. A recency refresh is thus one store into the
 * frame. The order is paid for at eviction, once per page used since
 * its entry last surfaced, and a page not used since its arrival
 * leaves through the queue with no heap work at all.
 */
class LruPolicy : public ReplacementPolicy
{
  public:
    void insert(PageId page, uint64_t stamp) override;
    /** Lazy: the page's entry is dropped when it surfaces. */
    void erase(PageId /* page */) override {}
    PageId victim(const PageTable &table) override;
    void
    reserve(size_t pages) override
    {
        queue_.reserve(2 * pages);
        heap_.reserve(pages);
    }
    const char *name() const override { return "lru"; }

  private:
    struct Entry
    {
        uint64_t stamp;
        PageId page;
    };

    void heap_push(Entry e);
    void sift_down(size_t i);

    // Entries before head_ have surfaced; the queue is compacted once
    // they are half of it, so it never holds more than twice the
    // entries still in it.
    std::vector<Entry> queue_;
    size_t head_ = 0;
    std::vector<Entry> heap_; // min-heap on stamp
};

/** FIFO: evict in arrival order; stamps don't matter. */
class FifoPolicy : public ReplacementPolicy
{
  public:
    void insert(PageId page, uint64_t stamp) override;
    void erase(PageId page) override { order_.remove(page); }
    PageId victim(const PageTable &table) override;
    void reserve(size_t pages) override { order_.reserve(pages); }
    const char *name() const override { return "fifo"; }

  private:
    PageOrderList order_; // front = oldest
};

/**
 * Second-chance Clock. A page's reference bit is "stamped since the
 * hand last cleared it", and set from insert until the first clear.
 */
class ClockPolicy : public ReplacementPolicy
{
  public:
    void insert(PageId page, uint64_t stamp) override;
    void erase(PageId page) override;
    PageId victim(const PageTable &table) override;
    void reserve(size_t pages) override { ring_.reserve(pages); }
    const char *name() const override { return "clock"; }

  private:
    /** cleared_at of a page the hand has not cleared yet. */
    static constexpr uint64_t UNCLEARED = UINT64_MAX;

    struct Entry
    {
        PageId page;
        /** The page's stamp when the hand last cleared its bit. */
        uint64_t cleared_at;
        bool valid;
    };

    std::vector<Entry> ring_;
    size_t hand_ = 0;
    size_t live_ = 0;
};

/** Factory: "lru", "fifo", or "clock". */
std::unique_ptr<ReplacementPolicy>
make_replacement_policy(const std::string &name);

} // namespace sgms

#endif // SGMS_MEM_REPLACEMENT_H
