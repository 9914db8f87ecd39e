#include "exec/result_codec.h"

#include <cstring>
#include <string_view>
#include <type_traits>

namespace sgms::exec
{

namespace
{

static_assert(sizeof(size_t) == sizeof(uint64_t),
              "a blob stores SimResult::mem_pages in 8 bytes");

/** Bytes of one FaultRecord in a blob: five 8-byte fields and a bool. */
constexpr size_t kFaultBytes = 5 * sizeof(uint64_t) + 1;

/** The fewest bytes of one metric: an empty name, the kind, 5 fields. */
constexpr size_t kMetricBytes = sizeof(uint64_t) + 1 + 5 * sizeof(double);

/**
 * Appends the blob to one string: a number as its raw bytes in native
 * byte order, a bool as one byte, a string or array as its u64 count
 * and then its elements.
 */
class BlobWriter
{
  public:
    explicit BlobWriter(size_t reserve) { out_.reserve(reserve); }

    std::string take() { return std::move(out_); }

    void check(bool) {}

    template <class... T>
    void
    num(const T &...v)
    {
        (put(v), ...);
    }

    void boolean(bool v) { put(static_cast<uint8_t>(v)); }

    void
    str(const std::string &s)
    {
        put(static_cast<uint64_t>(s.size()));
        out_ += s;
    }

    template <class T, class Each>
    void
    array(const std::vector<T> &v, size_t /*min_bytes*/, Each &&each)
    {
        put(static_cast<uint64_t>(v.size()));
        for (const T &x : v)
            each(x);
    }

    void
    histogram(const Histogram &h)
    {
        const auto bins = h.bins();
        put(static_cast<uint64_t>(bins.size()));
        for (const auto &[bin, count] : bins)
            num(bin, count);
    }

  private:
    template <class T>
    void
    put(const T &v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        char buf[sizeof(T)];
        std::memcpy(buf, &v, sizeof(T));
        out_.append(buf, sizeof(T));
    }

    std::string out_;
};

/**
 * Reads the writer's bytes in one forward pass. The first short read
 * or failed check clears ok_, after which every call is a no-op. Any
 * bytes of a number are a value the writer could have written; bools,
 * metric kinds, histogram bins and counts are checked, so only
 * canonical blobs decode.
 */
class BlobReader
{
  public:
    explicit BlobReader(std::string_view blob)
        : p_(blob.data()), end_(blob.data() + blob.size())
    {
    }

    /** Every byte matched the layout and none is left over. */
    bool finished() const { return ok_ && p_ == end_; }

    void check(bool cond) { ok_ = ok_ && cond; }

    template <class... T>
    void
    num(T &...v)
    {
        (get(v), ...);
    }

    void
    boolean(bool &v)
    {
        uint8_t b = 0;
        get(b);
        check(b <= 1);
        v = b == 1;
    }

    void
    str(std::string &s)
    {
        uint64_t n = count(1);
        if (ok_) {
            s.assign(p_, n);
            p_ += n;
        }
    }

    /**
     * An element takes at least @p min_bytes, so a hostile count is
     * refused before the vector is sized: the reader never allocates
     * more elements than the blob could hold.
     */
    template <class T, class Each>
    void
    array(std::vector<T> &v, size_t min_bytes, Each &&each)
    {
        v.resize(count(min_bytes));
        for (T &x : v) {
            if (!ok_)
                break;
            each(x);
        }
    }

    void
    histogram(Histogram &h)
    {
        uint64_t n = count(2 * sizeof(uint64_t));
        int64_t prev = 0;
        for (uint64_t i = 0; i < n && ok_; ++i) {
            int64_t bin = 0;
            uint64_t weight = 0;
            num(bin, weight);
            // bins() lists each key once, in increasing order.
            check(i == 0 || bin > prev);
            if (ok_)
                h.add(bin, weight);
            prev = bin;
        }
    }

  private:
    template <class T>
    void
    get(T &v)
    {
        static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
        if (!ok_ || static_cast<size_t>(end_ - p_) < sizeof(T)) {
            ok_ = false;
            return;
        }
        std::memcpy(&v, p_, sizeof(T));
        p_ += sizeof(T);
    }

    void
    get(obs::MetricKind &v)
    {
        uint8_t raw = 0;
        get(raw);
        check(raw <= static_cast<uint8_t>(obs::MetricKind::Distribution));
        v = static_cast<obs::MetricKind>(raw);
    }

    /** A u64 count of elements of at least @p min_bytes each. */
    uint64_t
    count(size_t min_bytes)
    {
        uint64_t n = 0;
        get(n);
        check(n <= static_cast<uint64_t>(end_ - p_) / min_bytes);
        return ok_ ? n : 0;
    }

    const char *p_;
    const char *end_;
    bool ok_ = true;
};

/**
 * The blob layout, once for both directions: BlobWriter visits a
 * const SimResult and appends it, BlobReader visits a fresh SimResult
 * and fills it. Sharing it is what makes the reader accept exactly
 * what the writer appends. Every struct goes field by field, so no
 * padding byte reaches a blob. Changing it changes every blob: bump
 * kResultBlobSchema.
 */
template <class Io, class Result>
void
visit_blob(Io &io, Result &r)
{
    uint32_t schema = kResultBlobSchema;
    io.num(schema);
    io.check(schema == kResultBlobSchema);
    io.str(r.app);
    io.str(r.policy);
    io.num(r.page_size, r.subpage_size, r.mem_pages);

    io.num(r.refs, r.page_faults, r.lazy_subpage_faults, r.evictions,
           r.putpages, r.emulated_accesses);

    io.num(r.runtime, r.exec_time, r.sp_latency, r.page_wait,
           r.recv_overhead, r.emulation_overhead, r.tlb_overhead,
           r.io_overlap, r.comp_overlap);

    io.array(r.faults, kFaultBytes, [&io](auto &f) {
        io.num(f.page, f.ref_index, f.at, f.sp_wait, f.page_wait);
        io.boolean(f.from_disk);
    });

    io.str(r.clustering.name);
    io.array(r.clustering.points, 2 * sizeof(double),
             [&io](auto &p) { io.num(p.first, p.second); });

    io.histogram(r.next_subpage_distance);

    auto &net = r.net_stats;
    io.num(net.messages, net.bytes);
    for (auto &n : net.messages_by_kind)
        io.num(n);
    for (auto &n : net.bytes_by_kind)
        io.num(n);
    io.num(net.dropped, net.corrupted, net.duplicated);

    io.num(r.tlb_stats.hits, r.tlb_stats.misses, r.global_discards);

    io.num(r.retries, r.timeouts, r.degraded_fetches,
           r.duplicate_deliveries, r.server_failures);

    io.array(r.metrics, kMetricBytes, [&io](auto &m) {
        io.str(m.name);
        io.num(m.kind, m.value, m.count, m.mean, m.min, m.max);
    });

    io.num(r.requester_wire_busy, r.requester_dma_busy,
           r.requester_cpu_busy);
}

/** An upper bound on the blob's size, so the writer never reallocates. */
size_t
blob_size_bound(const SimResult &r)
{
    size_t n = 1024 + r.app.size() + r.policy.size() +
               r.clustering.name.size();
    n += r.faults.size() * kFaultBytes;
    n += r.clustering.points.size() * 2 * sizeof(double);
    n += r.next_subpage_distance.bins().size() * 2 * sizeof(uint64_t);
    for (const obs::MetricSample &m : r.metrics)
        n += kMetricBytes + m.name.size();
    return n;
}

} // namespace

std::string
result_blob(const SimResult &r)
{
    BlobWriter w(blob_size_bound(r));
    visit_blob(w, r);
    return w.take();
}

bool
read_result_blob(const std::string &blob, SimResult &out)
{
    out = SimResult();
    SimResult r;
    BlobReader reader(blob);
    visit_blob(reader, r);
    if (!reader.finished())
        return false;
    out = std::move(r);
    return true;
}

} // namespace sgms::exec
