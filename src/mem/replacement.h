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
 * Clock derives its reference bits from them, FIFO ignores them. The
 * simulator stamps on every reference, so LRU is exact.
 */

#ifndef SGMS_MEM_REPLACEMENT_H
#define SGMS_MEM_REPLACEMENT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

/**
 * FIFO: evict in arrival order; stamps don't matter. Resident pages
 * queue in arrival order behind a moving head, compacted like LRU's
 * install queue.
 */
class FifoPolicy : public ReplacementPolicy
{
  public:
    void
    insert(PageId page, uint64_t /* stamp */) override
    {
        queue_.push_back(page);
    }
    void erase(PageId page) override;
    PageId victim(const PageTable &table) override;
    void reserve(size_t pages) override { queue_.reserve(2 * pages); }
    const char *name() const override { return "fifo"; }

  private:
    // Pages from head_ on are resident, oldest first; the queue is
    // compacted once the evicted ones before head_ are half of it.
    std::vector<PageId> queue_;
    size_t head_ = 0;
};

/**
 * Second-chance Clock. A page's reference bit is "its stamp moved
 * since the hand last cleared it", which is "referenced since", and
 * set from insert until the first clear.
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
