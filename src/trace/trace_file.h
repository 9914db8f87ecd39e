/**
 * @file
 * Trace file I/O.
 *
 * Two formats:
 *  - binary SGMB (trace/binfmt.h): versioned fixed-width records,
 *    mmap-replayed — the format for large and real traces;
 *  - text: one "R <hex-addr>" or "W <hex-addr>" per line, '#'
 *    comments allowed, for hand-written traces and interop.
 *
 * open_trace() reads either.
 */

#ifndef SGMS_TRACE_TRACE_FILE_H
#define SGMS_TRACE_TRACE_FILE_H

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace sgms
{

/**
 * Write @p trace to @p path as text. Leaves @p trace rewound.
 *
 * @return the number of references written.
 */
uint64_t write_trace_text(TraceSource &trace, const std::string &path);

/**
 * Open a trace file: SGMB files (by their magic) get a zero-copy
 * mmap replay cursor (trace/mmap_trace.h), everything else the text
 * reader. Fails fatally on unreadable or corrupt files.
 */
std::unique_ptr<TraceSource> open_trace(const std::string &path);

/**
 * Streaming reader for the text format. Reads the file in 64 KiB
 * blocks, so next_batch parses records straight out of the read
 * buffer instead of paying stdio calls per reference.
 *
 * The parser is strict: a record line is an access kind (R, W, r or
 * w), blanks, and a hex address with an optional 0x prefix, then
 * only blanks. Signs, trailing text, addresses that overflow 64 bits
 * or use the top bit (the SGMB packing reserves it), and lines
 * longer than the read buffer are fatal errors, as are unreadable
 * files; SGMB files are rejected with a pointer to open_trace().
 */
class FileTrace : public TraceSource
{
  public:
    explicit FileTrace(const std::string &path);
    ~FileTrace() override;

    FileTrace(const FileTrace &) = delete;
    FileTrace &operator=(const FileTrace &) = delete;

    bool next(TraceEvent &ev) override;
    size_t next_batch(TraceEvent *out, size_t n) override;
    void reset() override;

  private:
    /** Compact the buffer and read more; sets eof_ at end of file. */
    void refill();

    std::string path_;
    std::FILE *file_ = nullptr;

    // Block-read buffer; it also caps the length of one line.
    std::vector<char> buf_;
    size_t bpos_ = 0; // next unconsumed byte
    size_t blen_ = 0; // valid bytes in buf_
    bool eof_ = false;
};

} // namespace sgms

#endif // SGMS_TRACE_TRACE_FILE_H
