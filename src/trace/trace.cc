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
    // A packed word is (addr << 1) | write: its page is the word
    // shifted past the flag bit and the page offset.
    uint32_t shift = log2_exact(page_size) + 1;

    // Trace address spaces are dense from 0, so a growable bitmap
    // covers essentially every page in one bit; a hash set only
    // backstops pathological ids (e.g. hand-written text traces).
    // This runs once per (app, scale, page_size) to size the memory
    // configurations, over the full trace — per-reference hashing
    // made it as expensive as a simulation pass. It reads packed
    // words, so a stored or mapped trace hands out its own array
    // with no copy.
    constexpr uint64_t BITMAP_LIMIT = 1ULL << 26; // 8 MiB of bits
    std::vector<uint64_t> bits;
    std::unordered_set<PageId> overflow;

    constexpr size_t kWindow = 1024;
    uint64_t scratch[kWindow];
    const uint64_t *words;
    trace.reset();
    size_t n;
    while ((n = trace.next_words(words, scratch, kWindow)) > 0) {
        for (size_t i = 0; i < n; ++i) {
            PageId page = words[i] >> shift;
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
