#include "exec/result_codec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>

#include "core/json_report.h"

namespace sgms::exec
{

namespace
{

/** Room for any u64 or i64 in decimal, sign included. */
constexpr size_t kIntChars = 24;

/** Room for any finite double at %.17g: sign, 17 digits, '.', "e-308". */
constexpr size_t kDoubleChars = 32;

/**
 * Below this magnitude every integer is an exact double, and %.17g
 * prints an integer-valued double as its plain digits.
 */
constexpr double kExactInteger = 1e15;

/** Marks the last field of an object: no trailing comma. */
constexpr bool kLast = true;

/** Writes @p v exactly as printf("%.17g") does; returns the end. */
char *
format_double(char *buf, double v)
{
    // Most doubles in a blob are counts (clustering points, counter
    // metrics); the integer path skips the precision-17 formatter.
    // -0.0 prints as "-0", so it takes the general path.
    if (v > -kExactInteger && v < kExactInteger &&
        v == static_cast<double>(static_cast<int64_t>(v)) &&
        !(v == 0 && std::signbit(v))) {
        return std::to_chars(buf, buf + kDoubleChars,
                             static_cast<int64_t>(v))
            .ptr;
    }
    return std::to_chars(buf, buf + kDoubleChars, v,
                         std::chars_format::general, 17)
        .ptr;
}

/**
 * Appends the blob to one string. A named field prints as
 * "name":value followed by a comma unless it is the last field of its
 * object; each scalar field is formatted on the stack and appended in
 * one call.
 */
class BlobWriter
{
  public:
    explicit BlobWriter(size_t reserve) { out_.reserve(reserve); }

    std::string take() { return std::move(out_); }

    void lit(char c) { out_ += c; }
    void check(bool) {}

    template <size_t K>
    void
    open(const char (&name)[K])
    {
        key(name);
        out_ += '{';
    }

    void
    close(bool last = false)
    {
        out_ += '}';
        sep(last);
    }

    template <size_t K, class T>
    void
    num(const char (&name)[K], const T &v, bool last = false)
    {
        field(name, last, [&v](char *p) {
            return std::to_chars(p, p + kIntChars, static_cast<uint64_t>(v))
                .ptr;
        });
    }

    template <size_t K>
    void
    tick(const char (&name)[K], Tick v, bool last = false)
    {
        field(name, last, [v](char *p) {
            return std::to_chars(p, p + kIntChars, v).ptr;
        });
    }

    template <size_t K>
    void
    dbl(const char (&name)[K], double v, bool last = false)
    {
        field(name, last, [v](char *p) { return format_double(p, v); });
    }

    void
    dbl(double v)
    {
        char buf[kDoubleChars];
        out_.append(buf, format_double(buf, v));
    }

    template <size_t K>
    void
    boolean(const char (&name)[K], bool v, bool last = false)
    {
        field(name, last, [v](char *p) {
            std::string_view s = v ? "true" : "false";
            std::memcpy(p, s.data(), s.size());
            return p + s.size();
        });
    }

    template <size_t K>
    void
    str(const char (&name)[K], const std::string &v, bool last = false)
    {
        key(name);
        out_ += '"';
        out_ += json_escape(v);
        out_ += '"';
        sep(last);
    }

    template <size_t K, size_t N>
    void
    nums(const char (&name)[K], const uint64_t (&v)[N], bool last = false)
    {
        key(name);
        out_ += '[';
        for (size_t i = 0; i < N; ++i) {
            if (i)
                out_ += ',';
            put_int(v[i]);
        }
        out_ += ']';
        sep(last);
    }

    template <size_t K, class T, class Each>
    void
    array(const char (&name)[K], const std::vector<T> &v, uint64_t /*hint*/,
          Each &&each, bool last = false)
    {
        key(name);
        out_ += '[';
        for (size_t i = 0; i < v.size(); ++i) {
            if (i)
                out_ += ',';
            each(v[i]);
        }
        out_ += ']';
        sep(last);
    }

    template <size_t K>
    void
    histogram(const char (&name)[K], const Histogram &h, bool last = false)
    {
        key(name);
        out_ += '[';
        bool first = true;
        for (const auto &[bin, count] : h.bins()) {
            if (!first)
                out_ += ',';
            first = false;
            out_ += '[';
            put_int(bin);
            out_ += ',';
            put_int(count);
            out_ += ']';
        }
        out_ += ']';
        sep(last);
    }

  private:
    /** "name":, the value @p put writes, and the separator. */
    template <size_t K, class Put>
    void
    field(const char (&name)[K], bool last, Put &&put)
    {
        // Quotes, colon, comma and the widest value (a double).
        char buf[K - 1 + 4 + kDoubleChars];
        char *p = buf;
        *p++ = '"';
        std::memcpy(p, name, K - 1);
        p += K - 1;
        *p++ = '"';
        *p++ = ':';
        p = put(p);
        if (!last)
            *p++ = ',';
        out_.append(buf, p);
    }

    template <size_t K>
    void
    key(const char (&name)[K])
    {
        field(name, kLast, [](char *p) { return p; });
    }

    void
    sep(bool last)
    {
        if (!last)
            out_ += ',';
    }

    template <class I>
    void
    put_int(I v)
    {
        char buf[kIntChars];
        out_.append(buf, std::to_chars(buf, buf + kIntChars, v).ptr);
    }

    std::string out_;
};

int
hex_digit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1; // the writer prints lowercase only
}

bool
is_digit(char c)
{
    return c >= '0' && c <= '9';
}

bool
is_number_char(char c)
{
    return is_digit(c) || c == '-' || c == '+' || c == '.' || c == 'e';
}

/**
 * Parses the writer's bytes in one forward pass. Each call matches
 * the next field exactly as BlobWriter prints it; the first mismatch
 * clears ok_, after which every call is a no-op. Numbers must be in
 * the form the writer prints (no leading zeros, no "-0" integers, a
 * double must print back to the same text), so only canonical blobs
 * decode.
 */
class BlobReader
{
  public:
    explicit BlobReader(std::string_view text)
        : p_(text.data()), end_(text.data() + text.size())
    {
    }

    /** Every byte matched the layout and none is left over. */
    bool finished() const { return ok_ && p_ == end_; }

    void
    lit(char c)
    {
        if (ok_ && p_ != end_ && *p_ == c)
            ++p_;
        else
            ok_ = false;
    }

    void check(bool cond) { ok_ = ok_ && cond; }

    template <size_t K>
    void
    open(const char (&name)[K])
    {
        key(name);
        lit('{');
    }

    void
    close(bool last = false)
    {
        lit('}');
        sep(last);
    }

    template <size_t K, class T>
    void
    num(const char (&name)[K], T &v, bool last = false)
    {
        uint64_t x = 0;
        key(name);
        get_uint(x);
        if constexpr (sizeof(T) < sizeof(uint64_t))
            check(x <= std::numeric_limits<T>::max());
        v = static_cast<T>(x);
        sep(last);
    }

    template <size_t K>
    void
    num(const char (&name)[K], obs::MetricKind &v, bool last = false)
    {
        uint8_t raw = 0;
        num(name, raw, last);
        check(raw <= static_cast<uint8_t>(obs::MetricKind::Distribution));
        v = static_cast<obs::MetricKind>(raw);
    }

    template <size_t K>
    void
    tick(const char (&name)[K], Tick &v, bool last = false)
    {
        key(name);
        get_int(v);
        sep(last);
    }

    template <size_t K>
    void
    dbl(const char (&name)[K], double &v, bool last = false)
    {
        key(name);
        dbl(v);
        sep(last);
    }

    void
    dbl(double &v)
    {
        if (!ok_)
            return;
        const char *start = p_;
        while (p_ != end_ && is_number_char(*p_))
            ++p_;
        // Up to 15 plain digits is an integer below kExactInteger,
        // which format_double prints as exactly those digits.
        const char *digits = start + (start != p_ && *start == '-');
        if (p_ > digits && p_ - digits <= 15 &&
            std::all_of(digits, p_, is_digit)) {
            uint64_t x = 0;
            for (const char *d = digits; d != p_; ++d)
                x = x * 10 + static_cast<uint64_t>(*d - '0');
            v = digits != start ? -static_cast<double>(x)
                                : static_cast<double>(x);
            ok_ = *digits != '0' || p_ - digits == 1;
            return;
        }
        auto [ptr, ec] = std::from_chars(start, p_, v);
        char buf[kDoubleChars];
        ok_ = ec == std::errc() && ptr == p_ &&
              std::string_view(buf, format_double(buf, v) - buf) ==
                  std::string_view(start, p_ - start);
    }

    template <size_t K>
    void
    boolean(const char (&name)[K], bool &v, bool last = false)
    {
        key(name);
        if (accept("true"))
            v = true;
        else if (accept("false"))
            v = false;
        else
            ok_ = false;
        sep(last);
    }

    template <size_t K>
    void
    str(const char (&name)[K], std::string &v, bool last = false)
    {
        key(name);
        get_string(v);
        sep(last);
    }

    template <size_t K, size_t N>
    void
    nums(const char (&name)[K], uint64_t (&v)[N], bool last = false)
    {
        key(name);
        lit('[');
        for (size_t i = 0; i < N; ++i) {
            if (i)
                lit(',');
            get_uint(v[i]);
        }
        lit(']');
        sep(last);
    }

    /**
     * @p hint is the expected element count. The reservation never
     * exceeds the bytes left to parse, so a hostile count cannot make
     * the reader allocate more than the blob's own size.
     */
    template <size_t K, class T, class Each>
    void
    array(const char (&name)[K], std::vector<T> &v, uint64_t hint, Each &&each,
          bool last = false)
    {
        key(name);
        lit('[');
        if (ok_ && !accept("]")) {
            uint64_t left = static_cast<uint64_t>(end_ - p_);
            v.reserve(std::min<uint64_t>(hint, left / sizeof(T)));
            do {
                each(v.emplace_back());
            } while (ok_ && accept(","));
            lit(']');
        }
        sep(last);
    }

    template <size_t K>
    void
    histogram(const char (&name)[K], Histogram &h, bool last = false)
    {
        key(name);
        lit('[');
        if (ok_ && !accept("]")) {
            bool first = true;
            int64_t prev = 0;
            do {
                int64_t bin = 0;
                uint64_t count = 0;
                lit('[');
                get_int(bin);
                lit(',');
                get_uint(count);
                lit(']');
                // bins() lists each key once, in increasing order.
                check(first || bin > prev);
                if (ok_)
                    h.add(bin, count);
                first = false;
                prev = bin;
            } while (ok_ && accept(","));
            lit(']');
        }
        sep(last);
    }

  private:
    template <size_t K>
    void
    key(const char (&name)[K])
    {
        constexpr size_t n = K - 1;
        ok_ = ok_ && static_cast<size_t>(end_ - p_) >= n + 3 &&
              p_[0] == '"' && std::memcmp(p_ + 1, name, n) == 0 &&
              p_[n + 1] == '"' && p_[n + 2] == ':';
        if (ok_)
            p_ += n + 3;
    }

    void
    sep(bool last)
    {
        if (!last)
            lit(',');
    }

    /** Consumes @p s if the input continues with it. */
    bool
    accept(std::string_view s)
    {
        if (!ok_ || static_cast<size_t>(end_ - p_) < s.size() ||
            std::memcmp(p_, s.data(), s.size()) != 0) {
            return false;
        }
        p_ += s.size();
        return true;
    }

    void
    get_uint(uint64_t &v)
    {
        if (!ok_)
            return;
        auto [ptr, ec] = std::from_chars(p_, end_, v);
        ok_ = ec == std::errc() && !(*p_ == '0' && ptr - p_ > 1);
        p_ = ptr;
    }

    void
    get_int(int64_t &v)
    {
        if (!ok_)
            return;
        auto [ptr, ec] = std::from_chars(p_, end_, v);
        // On success at least one digit follows the optional '-'.
        bool neg = ec == std::errc() && *p_ == '-';
        ok_ = ec == std::errc() &&
              !(p_[neg] == '0' && (neg || ptr - p_ > 1));
        p_ = ptr;
    }

    /** A quoted string, unescaped by exactly json_escape's rules. */
    void
    get_string(std::string &out)
    {
        lit('"');
        while (ok_) {
            const char *run = p_;
            while (p_ != end_ && *p_ != '"' && *p_ != '\\' &&
                   static_cast<unsigned char>(*p_) >= 0x20) {
                ++p_;
            }
            out.append(run, p_);
            if (p_ == end_ || static_cast<unsigned char>(*p_) < 0x20) {
                ok_ = false;
                return;
            }
            if (*p_++ == '"')
                return;
            get_escape(out);
        }
    }

    /** The escape after a backslash. */
    void
    get_escape(std::string &out)
    {
        char e = p_ != end_ ? *p_++ : '\0';
        switch (e) {
          case '"':
          case '\\':
            out += e;
            return;
          case 'n':
            out += '\n';
            return;
          case 't':
            out += '\t';
            return;
          case 'u':
            break;
          default:
            ok_ = false;
            return;
        }
        // \u00XX: only the control bytes without a short escape.
        if (end_ - p_ < 4 || p_[0] != '0' || p_[1] != '0') {
            ok_ = false;
            return;
        }
        int hi = hex_digit(p_[2]);
        int lo = hex_digit(p_[3]);
        int c = hi * 16 + lo;
        if (hi < 0 || hi > 1 || lo < 0 || c == '\n' || c == '\t') {
            ok_ = false;
            return;
        }
        out += static_cast<char>(c);
        p_ += 4;
    }

    const char *p_;
    const char *end_;
    bool ok_ = true;
};

/**
 * The blob layout, once for both directions: BlobWriter visits a
 * const SimResult and prints it, BlobReader visits a fresh SimResult
 * and fills it. Sharing it is what makes the reader accept exactly
 * what the writer prints. Changing it changes every blob: bump
 * kResultBlobSchema.
 */
template <class Io, class Result>
void
visit_blob(Io &io, Result &r)
{
    uint64_t schema = kResultBlobSchema;
    io.lit('{');
    io.num("schema", schema);
    io.check(schema == kResultBlobSchema);
    io.str("app", r.app);
    io.str("policy", r.policy);
    io.num("page_size", r.page_size);
    io.num("subpage_size", r.subpage_size);
    io.num("mem_pages", r.mem_pages);

    io.num("refs", r.refs);
    io.num("page_faults", r.page_faults);
    io.num("lazy_subpage_faults", r.lazy_subpage_faults);
    io.num("evictions", r.evictions);
    io.num("putpages", r.putpages);
    io.num("emulated_accesses", r.emulated_accesses);

    io.tick("runtime", r.runtime);
    io.tick("exec_time", r.exec_time);
    io.tick("sp_latency", r.sp_latency);
    io.tick("page_wait", r.page_wait);
    io.tick("recv_overhead", r.recv_overhead);
    io.tick("emulation_overhead", r.emulation_overhead);
    io.tick("tlb_overhead", r.tlb_overhead);
    io.tick("io_overlap", r.io_overlap);
    io.tick("comp_overlap", r.comp_overlap);

    // A run records one fault and one clustering point per page fault.
    io.array("faults", r.faults, r.page_faults, [&io](auto &f) {
        io.lit('{');
        io.num("page", f.page);
        io.num("ref_index", f.ref_index);
        io.tick("at", f.at);
        io.tick("sp_wait", f.sp_wait);
        io.tick("page_wait", f.page_wait);
        io.boolean("from_disk", f.from_disk, kLast);
        io.lit('}');
    });

    io.open("clustering");
    io.str("name", r.clustering.name);
    io.array(
        "points", r.clustering.points, r.page_faults,
        [&io](auto &p) {
            io.lit('[');
            io.dbl(p.first);
            io.lit(',');
            io.dbl(p.second);
            io.lit(']');
        },
        kLast);
    io.close();

    io.histogram("distance_bins", r.next_subpage_distance);

    io.open("net");
    io.num("messages", r.net_stats.messages);
    io.num("bytes", r.net_stats.bytes);
    io.nums("messages_by_kind", r.net_stats.messages_by_kind);
    io.nums("bytes_by_kind", r.net_stats.bytes_by_kind);
    io.num("dropped", r.net_stats.dropped);
    io.num("corrupted", r.net_stats.corrupted);
    io.num("duplicated", r.net_stats.duplicated, kLast);
    io.close();

    io.open("tlb");
    io.num("hits", r.tlb_stats.hits);
    io.num("misses", r.tlb_stats.misses, kLast);
    io.close();
    io.num("global_discards", r.global_discards);

    io.num("retries", r.retries);
    io.num("timeouts", r.timeouts);
    io.num("degraded_fetches", r.degraded_fetches);
    io.num("duplicate_deliveries", r.duplicate_deliveries);
    io.num("server_failures", r.server_failures);

    io.array("metrics", r.metrics, 0, [&io](auto &m) {
        io.lit('{');
        io.str("name", m.name);
        io.num("kind", m.kind);
        io.dbl("value", m.value);
        io.num("count", m.count);
        io.dbl("mean", m.mean);
        io.dbl("min", m.min);
        io.dbl("max", m.max, kLast);
        io.lit('}');
    });

    io.tick("requester_wire_busy", r.requester_wire_busy);
    io.tick("requester_dma_busy", r.requester_dma_busy);
    io.tick("requester_cpu_busy", r.requester_cpu_busy, kLast);
    io.lit('}');
}

/**
 * An upper bound on the blob's size, so the writer never reallocates:
 * every number at its widest, every string byte escaped to six.
 */
size_t
blob_size_bound(const SimResult &r)
{
    size_t n = 4096 + 6 * (r.app.size() + r.policy.size() +
                           r.clustering.name.size());
    n += r.faults.size() * 176;
    n += r.clustering.points.size() * 56;
    n += r.next_subpage_distance.bins().size() * 48;
    for (const obs::MetricSample &m : r.metrics)
        n += 192 + 6 * m.name.size();
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
read_result_blob(const std::string &text, SimResult &out)
{
    out = SimResult();
    SimResult r;
    BlobReader reader(text);
    visit_blob(reader, r);
    if (!reader.finished())
        return false;
    out = std::move(r);
    return true;
}

} // namespace sgms::exec
