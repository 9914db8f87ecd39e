#include "gms/gms.h"

namespace sgms
{

void
GmsCluster::put_page(Tick now, PageId page, uint32_t page_bytes,
                     bool dirty, NodeId from)
{
    // A warm cache already holds every page, so the directory of
    // evicted pages matters only to a cold cache or a capacity bound.
    const bool bounded = cfg_.server_capacity_pages != 0;
    const bool newly_stored =
        (!cfg_.warm || bounded) && evicted_.insert(page).second;
    if (bounded && newly_stored) {
        ServerStore &store = per_server_[server_of(page)];
        store.fifo.push_back(page);
        if (store.fifo.size() > cfg_.server_capacity_pages) {
            PageId dropped = store.fifo.front();
            store.fifo.pop_front();
            evicted_.erase(dropped);
            ++discards_;
            SGMS_TRACE_INSTANT(tracer_, Gms, server_of(dropped), "discard",
                               "gms", now, dropped, 0,
                               static_cast<int64_t>(server_of(dropped)));
        }
    }
    if (!cfg_.putpage_traffic || !dirty)
        return;
    ++putpages_;
    SGMS_TRACE_INSTANT(tracer_, Gms, server_of(page), "putpage", "gms", now,
                       page,
                       static_cast<int64_t>(page_bytes),
                       static_cast<int64_t>(server_of(page)));
    net_.send(now, {from, server_of(page), page_bytes,
                    MsgKind::PutPage, false, nullptr});
}

} // namespace sgms
