/**
 * @file
 * Global memory system: the network-wide page cache.
 *
 * Models the GMS substrate of [Feeley et al., SOSP'95] at the level
 * this paper's simulator needs: a directory mapping each page to the
 * idle node storing it, a warm/cold global cache, and putpage
 * (eviction) traffic. Faulted pages whose data is not in any remote
 * memory are serviced from disk.
 */

#ifndef SGMS_GMS_GMS_H
#define SGMS_GMS_GMS_H

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "common/types.h"
#include "net/network.h"
#include "obs/tracer.h"

namespace sgms
{

/** Configuration of the global memory cluster. */
struct GmsConfig
{
    /** Number of idle nodes storing global pages. */
    uint32_t servers = 4;

    /**
     * Warm global cache: every page starts out stored in network
     * memory (the paper's experimental setup). When false, a page is
     * only in global memory after the faulting node evicts it there.
     */
    bool warm = true;

    /**
     * Send putpage messages for evicted dirty pages (they occupy the
     * network as background traffic).
     */
    bool putpage_traffic = true;

    /**
     * Idle memory available per server for evicted pages, in pages;
     * 0 = unlimited (the paper's assumption). With a finite
     * capacity, the oldest evicted page is discarded from global
     * memory when a server fills up, and a later fault on it must go
     * to disk (only observable in cold-cache mode, since a warm
     * cache by definition holds everything).
     */
    uint64_t server_capacity_pages = 0;
};

/** Directory + server placement for the global page cache. */
class GmsCluster
{
  public:
    /**
     * @param net       cluster interconnect
     * @param cfg       cluster configuration
     * @param requester highest faulting (client) node id, as for
     *                  Network; servers get ids requester+1 ...
     *                  requester+N
     * @param tracer    optional span tracer (putpage/discard events)
     */
    GmsCluster(Network &net, GmsConfig cfg, NodeId requester = 0,
               obs::Tracer *tracer = nullptr)
        : net_(net), cfg_(cfg), requester_(requester), tracer_(tracer)
    {
        if (cfg_.servers == 0)
            fatal("gms: need at least one server node");
        // Server-keyed maps hold at most one entry per server; one
        // up-front reserve keeps the put_page path rehash-free.
        per_server_.reserve(cfg_.servers);
        failed_until_.reserve(cfg_.servers);
    }

    /** Node storing @p page's global copy (stable hash placement). */
    NodeId
    server_of(PageId page) const
    {
        // SplitMix64 finalizer as a page->server hash.
        uint64_t z = page + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        return requester_ + 1 + static_cast<NodeId>(z % cfg_.servers);
    }

    /** True if a fault on @p page can be serviced from network memory. */
    bool
    in_global_memory(PageId page) const
    {
        return cfg_.warm || evicted_.count(page) > 0;
    }

    /**
     * The faulting node evicted @p page; if configured, ship it to
     * its server as background putpage traffic. After this the page
     * is in global memory even in cold-cache mode — unless the
     * server is full, in which case its oldest stored page is
     * discarded (and will have to come back from disk).
     */
    void
    put_page(Tick now, PageId page, uint32_t page_bytes, bool dirty)
    {
        put_page(now, page, page_bytes, dirty, requester_);
    }

    /**
     * Multi-client form: @p from is the evicting client node, so the
     * putpage traffic occupies that client's CPU/DMA stages rather
     * than the default requester's.
     */
    void put_page(Tick now, PageId page, uint32_t page_bytes,
                  bool dirty, NodeId from);

    /**
     * Mark @p server failed until @p until (directory invalidation):
     * the directory treats its stored pages as unreachable, so
     * faults on them degrade straight to disk until recovery. Used
     * by the reliability layer after a fetch from @p server
     * exhausted its retries or its outage schedule fired.
     */
    void
    mark_server_failed(Tick now, NodeId server, Tick until)
    {
        Tick &t = failed_until_[server];
        if (until > t) {
            t = until;
            ++server_failures_;
            SGMS_TRACE_INSTANT(tracer_, Gms, server, "server_failed",
                               "gms", now, static_cast<int64_t>(server), 0,
                               static_cast<int64_t>(server));
        }
    }

    /** True if @p server is marked failed in the directory at @p now. */
    bool
    server_failed(NodeId server, Tick now) const
    {
        auto it = failed_until_.find(server);
        return it != failed_until_.end() && now < it->second;
    }

    /** Directory invalidations recorded by mark_server_failed. */
    uint64_t server_failures() const { return server_failures_; }

    const GmsConfig &config() const { return cfg_; }
    uint64_t putpages() const { return putpages_; }

    /** Pages dropped from global memory due to server capacity. */
    uint64_t global_discards() const { return discards_; }

    /** Pages currently stored on @p server (cold-cache tracking). */
    uint64_t
    stored_on(NodeId server) const
    {
        auto it = per_server_.find(server);
        return it == per_server_.end() ? 0 : it->second.fifo.size();
    }

  private:
    /** Per-server store of evicted pages, FIFO for capacity. */
    struct ServerStore
    {
        std::deque<PageId> fifo;
    };

    Network &net_;
    GmsConfig cfg_;
    NodeId requester_;
    obs::Tracer *tracer_ = nullptr;
    uint64_t putpages_ = 0;
    uint64_t discards_ = 0;
    uint64_t server_failures_ = 0;
    std::unordered_set<PageId> evicted_;
    std::unordered_map<NodeId, ServerStore> per_server_;
    /** Servers marked failed, and when the mark expires. */
    std::unordered_map<NodeId, Tick> failed_until_;
};

} // namespace sgms

#endif // SGMS_GMS_GMS_H
