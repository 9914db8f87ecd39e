/**
 * @file
 * Replay of packed-word traces: the one replay cursor, and
 * zero-copy SGMB files through mmap(2).
 *
 * Every stored trace is an immutable array of packed words,
 * (addr << 1) | write (trace/binfmt.h). The array lives either in a
 * heap PackedTrace (the trace store's heap tier) or in a
 * MappedTraceFile (an SGMB file mapped read-only); both are shared by
 * shared_ptr. ReplayTrace is the cursor over either: it holds an
 * aliasing pointer to the words (which keeps the owner alive), their
 * count, and its own position, so any number of threads replay one
 * array concurrently with no locking and no allocation, and heap and
 * mapped replay run the same code. next_words() hands out windows of
 * the array itself, which the simulator reads in place; next_batch()
 * unpacks each word into a TraceEvent.
 *
 * Because a mapping is backed by the file, replay throughput of a
 * cold trace is bounded by the page cache, not by a load pass:
 * startup to first reference is an open+mmap (microseconds, however
 * large the trace), traces far bigger than RAM replay with the
 * kernel paging the window in and out, and forked worker fleets
 * share one physical copy of every baked trace.
 */

#ifndef SGMS_TRACE_MMAP_TRACE_H
#define SGMS_TRACE_MMAP_TRACE_H

#include <memory>
#include <string>
#include <vector>

#include "trace/binfmt.h"
#include "trace/trace.h"

namespace sgms
{

/** Immutable heap trace: each event is (addr << 1) | write. */
using PackedTrace = std::vector<uint64_t>;

/** One shared read-only mapping of an SGMB file. */
class MappedTraceFile
{
  public:
    /**
     * Map @p path, validating the header first. Returns nullptr and
     * sets @p error on any problem (missing file, bad magic, wrong
     * version or endianness, truncation, mmap failure).
     */
    static std::shared_ptr<const MappedTraceFile>
    try_open(const std::string &path, std::string &error);

    /** Map @p path; fatal() with the validation error on failure. */
    static std::shared_ptr<const MappedTraceFile>
    open(const std::string &path);

    ~MappedTraceFile();

    MappedTraceFile(const MappedTraceFile &) = delete;
    MappedTraceFile &operator=(const MappedTraceFile &) = delete;

    const BinTraceHeader &header() const { return header_; }
    const std::string &path() const { return path_; }

    /** The record array inside the mapping (header().ref_count long). */
    const uint64_t *
    records() const
    {
        return reinterpret_cast<const uint64_t *>(
            static_cast<const unsigned char *>(base_) +
            kBinTraceHeaderBytes);
    }

    uint64_t size() const { return header_.ref_count; }

    /** Total bytes mapped (header + records). */
    uint64_t mapped_bytes() const { return mapped_bytes_; }

    /** FNV-1a over the mapped payload; compare to header().payload_hash. */
    uint64_t payload_hash() const;

  private:
    MappedTraceFile() = default;

    std::string path_;
    BinTraceHeader header_;
    void *base_ = nullptr;
    uint64_t mapped_bytes_ = 0;
};

/**
 * Cursor over a shared array of packed words; cheap to create (or
 * copy) per point. The words belong to a heap PackedTrace or a
 * MappedTraceFile, which the cursor keeps alive.
 */
class ReplayTrace final : public TraceSource
{
  public:
    explicit ReplayTrace(const std::shared_ptr<const PackedTrace> &trace)
        : words_(trace, trace->data()), size_(trace->size())
    {}

    explicit ReplayTrace(const std::shared_ptr<const MappedTraceFile> &file)
        : words_(file, file->records()), size_(file->size())
    {}

    bool
    next(TraceEvent &ev) override
    {
        if (pos_ >= size_)
            return false;
        ev = unpack_trace_event(words_.get()[pos_++]);
        return true;
    }

    /** A window into the shared array itself: no copy. */
    size_t
    next_words(const uint64_t *&words, uint64_t *, size_t n) override
    {
        uint64_t avail = size_ - pos_;
        size_t got = n < avail ? n : static_cast<size_t>(avail);
        words = words_.get() + pos_;
        pos_ += got;
        return got;
    }

    size_t
    next_batch(TraceEvent *out, size_t n) override
    {
        const uint64_t *words = words_.get() + pos_;
        uint64_t avail = size_ - pos_;
        size_t got = n < avail ? n : static_cast<size_t>(avail);
        for (size_t i = 0; i < got; ++i)
            out[i] = unpack_trace_event(words[i]);
        pos_ += got;
        return got;
    }

    void reset() override { pos_ = 0; }

    void
    skip(uint64_t n) override
    {
        uint64_t avail = size_ - pos_;
        pos_ += n < avail ? n : avail;
    }

    uint64_t size_hint() const override { return size_; }

    /** Position the cursor (clamped to the end of the trace). */
    void
    seek(uint64_t ref_index)
    {
        pos_ = ref_index < size_ ? ref_index : size_;
    }

    uint64_t position() const { return pos_; }

    /** The shared words (for tests asserting sharing). */
    const std::shared_ptr<const uint64_t> &buffer() const { return words_; }

  private:
    std::shared_ptr<const uint64_t> words_;
    uint64_t size_ = 0;
    uint64_t pos_ = 0;
};

/** Map @p path and return a replay cursor; fatal() on invalid files. */
std::unique_ptr<TraceSource> make_mapped_trace(const std::string &path);

} // namespace sgms

#endif // SGMS_TRACE_MMAP_TRACE_H
