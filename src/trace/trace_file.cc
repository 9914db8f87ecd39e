#include "trace/trace_file.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstring>

#include "common/logging.h"
#include "trace/binfmt.h"
#include "trace/mmap_trace.h"

namespace sgms
{

namespace
{
constexpr size_t BUF_BYTES = 64 * 1024;

bool
blank(char c)
{
    return c == ' ' || c == '\t' || c == '\r';
}

/**
 * Parse the text-trace line [p, end) of @p path into @p ev; false
 * for a blank or comment line. fatal() on a malformed line.
 */
bool
parse_line(const std::string &path, const char *p, const char *end,
           TraceEvent &ev)
{
    while (p < end && blank(*p))
        ++p;
    if (p == end || *p == '#')
        return false; // blank line or comment
    const char *line = p;
    int shown = static_cast<int>(std::min<ptrdiff_t>(end - line, 80));

    char kind = *p++;
    if (kind != 'R' && kind != 'W' && kind != 'r' && kind != 'w')
        fatal("trace file '%s': bad access kind '%c'", path.c_str(),
              kind);
    if (p == end || !blank(*p))
        fatal("trace file '%s': bad line '%.*s'", path.c_str(), shown,
              line);
    while (p < end && blank(*p))
        ++p;
    if (end - p >= 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X'))
        p += 2;

    uint64_t addr = 0;
    auto [q, ec] = std::from_chars(p, end, addr, 16);
    if (ec == std::errc::result_out_of_range ||
        (ec == std::errc() && addr >= (1ull << 63)))
        fatal("trace file '%s': address out of range (the top bit is "
              "reserved) in line '%.*s'",
              path.c_str(), shown, line);
    while (ec == std::errc() && q < end && blank(*q))
        ++q;
    if (ec != std::errc() || q != end)
        fatal("trace file '%s': bad line '%.*s'", path.c_str(), shown,
              line);
    ev.addr = addr;
    ev.write = kind == 'W' || kind == 'w';
    return true;
}
} // namespace

uint64_t
write_trace_text(TraceSource &trace, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot open trace file '%s' for writing", path.c_str());
    std::fprintf(f, "# sgms text trace\n");
    uint64_t count = 0;
    TraceEvent ev;
    trace.reset();
    while (trace.next(ev)) {
        std::fprintf(f, "%c %" PRIx64 "\n", ev.write ? 'W' : 'R',
                     ev.addr);
        ++count;
    }
    if (std::fclose(f) != 0)
        fatal("error writing trace file '%s'", path.c_str());
    trace.reset();
    return count;
}

std::unique_ptr<TraceSource>
open_trace(const std::string &path)
{
    if (is_bin_trace(path))
        return make_mapped_trace(path);
    return std::make_unique<FileTrace>(path);
}

FileTrace::FileTrace(const std::string &path)
    : path_(path), buf_(BUF_BYTES)
{
    if (is_bin_trace(path))
        fatal("trace file '%s' is an SGMB binary trace; open it with "
              "open_trace()",
              path.c_str());
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        fatal("cannot open trace file '%s'", path.c_str());
}

FileTrace::~FileTrace()
{
    if (file_)
        std::fclose(file_);
}

bool
FileTrace::next(TraceEvent &ev)
{
    return next_batch(&ev, 1) == 1;
}

void
FileTrace::refill()
{
    if (bpos_ > 0) {
        std::memmove(buf_.data(), buf_.data() + bpos_, blen_ - bpos_);
        blen_ -= bpos_;
        bpos_ = 0;
    }
    if (eof_)
        return;
    size_t want = buf_.size() - blen_;
    size_t got = std::fread(buf_.data() + blen_, 1, want, file_);
    blen_ += got;
    if (got < want)
        eof_ = true;
}

size_t
FileTrace::next_batch(TraceEvent *out, size_t n)
{
    size_t got = 0;
    while (got < n) {
        const char *base = buf_.data();
        const char *begin = base + bpos_;
        const char *end = base + blen_;
        const char *nl = static_cast<const char *>(
            std::memchr(begin, '\n', blen_ - bpos_));
        if (!nl) {
            if (!eof_) {
                if (bpos_ == 0 && blen_ == buf_.size())
                    fatal("trace file '%s': line longer than %zu bytes",
                          path_.c_str(), buf_.size());
                refill();
                continue;
            }
            if (begin == end)
                break; // clean end of trace
            nl = end; // final line without a trailing newline
        }
        bpos_ = static_cast<size_t>(nl - base) + (nl < end ? 1 : 0);
        if (parse_line(path_, begin, nl, out[got]))
            ++got;
    }
    return got;
}

void
FileTrace::reset()
{
    std::rewind(file_);
    bpos_ = 0;
    blen_ = 0;
    eof_ = false;
}

} // namespace sgms
