#include "trace/trace.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"

namespace sgms
{

size_t
TraceSource::next_words(const uint64_t *&words, uint64_t *scratch,
                        size_t n)
{
    TraceEvent batch[256];
    size_t got = 0;
    while (got < n) {
        size_t want = std::min<size_t>(n - got, 256);
        size_t k = next_batch(batch, want);
        if (k == 0)
            break;
        for (size_t i = 0; i < k; ++i)
            scratch[got + i] = pack_trace_event(batch[i]);
        got += k;
    }
    words = scratch;
    return got;
}

uint64_t
measure_footprint_pages(TraceSource &trace, uint32_t page_size)
{
    SGMS_ASSERT(is_pow2(page_size));
    uint32_t shift = log2_exact(page_size);

    // Trace address spaces are dense from 0, so a growable bitmap
    // covers essentially every page in one bit; a hash set only
    // backstops pathological ids (e.g. hand-written text traces).
    // This runs once per (app, scale, page_size) to size the memory
    // configurations, over the full trace — per-reference hashing
    // made it as expensive as a simulation pass.
    constexpr uint64_t BITMAP_LIMIT = 1ULL << 26; // 8 MiB of bits
    std::vector<uint64_t> bits;
    std::unordered_set<PageId> overflow;

    TraceEvent batch[512];
    trace.reset();
    size_t n;
    while ((n = trace.next_batch(batch, 512)) > 0) {
        for (size_t i = 0; i < n; ++i) {
            PageId page = batch[i].addr >> shift;
            if (page < BITMAP_LIMIT) {
                size_t word = page >> 6;
                if (word >= bits.size()) {
                    size_t cap = std::max<size_t>(
                        std::max<size_t>(64, word + 1),
                        bits.size() * 2);
                    bits.resize(cap, 0);
                }
                bits[word] |= 1ULL << (page & 63);
            } else {
                overflow.insert(page);
            }
        }
    }
    trace.reset();

    uint64_t count = overflow.size();
    for (uint64_t word : bits)
        count += static_cast<uint64_t>(__builtin_popcountll(word));
    return count;
}

} // namespace sgms
