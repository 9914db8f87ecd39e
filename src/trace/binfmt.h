/**
 * @file
 * SGMB: the compact binary memref trace format.
 *
 * Layout (all multi-byte fields in the writing host's byte order,
 * gated by the endianness tag; see below):
 *
 *   offset  size  field
 *   ------  ----  -----------------------------------------------
 *        0     4  magic "SGMB"
 *        4     4  format version (currently 1)
 *        8     4  endianness tag 0x01020304
 *       12     4  record size in bytes (currently 8)
 *       16     8  reference count
 *       24     8  payload hash (FNV-1a 64 over the record bytes)
 *       32     8  generator seed (0 when unknown)
 *       40     8  generator scale (IEEE-754 double bits; 0 = unknown)
 *       48    16  application name, NUL-padded
 *       64     -  records
 *
 * Each record is one 64-bit word, (addr << 1) | write
 * (pack_trace_event in trace/trace.h) — the same packing the
 * in-memory trace store uses (trace/trace_store.h), so a mapped file
 * replays through the same cursor a heap buffer does and the two are
 * byte-equivalent by construction. The header is exactly 64 bytes,
 * so records in a mapped file are 8-byte aligned.
 *
 * Versioning rules (DESIGN.md §14): the record layout of a given
 * version never changes. Any incompatible change (record width, new
 * mandatory header semantics) bumps the version, and readers reject
 * versions they do not know. The endianness tag is written in native
 * byte order; a reader whose native order disagrees (file written on
 * a BE machine, or vice versa) sees a scrambled tag and rejects the
 * file instead of silently replaying byte-swapped addresses.
 *
 * Readers never trust the header: magic, version, endianness,
 * record size, and payload length against the actual file size are
 * all validated before any record is touched, so a truncated,
 * corrupted, or alien file is a clean error, never UB.
 */

#ifndef SGMS_TRACE_BINFMT_H
#define SGMS_TRACE_BINFMT_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/trace.h"

namespace sgms
{

/** Current SGMB format version. */
inline constexpr uint32_t kBinTraceVersion = 1;

/** Fixed header size; records start at this offset. */
inline constexpr size_t kBinTraceHeaderBytes = 64;

/** Fixed record width of version 1. */
inline constexpr size_t kBinTraceRecordBytes = sizeof(uint64_t);

/** Decoded and validated SGMB header metadata. */
struct BinTraceHeader
{
    uint32_t version = kBinTraceVersion;
    uint64_t ref_count = 0;
    uint64_t payload_hash = 0;
    uint64_t seed = 0;
    double scale = 0.0;
    std::string app;
};

/**
 * FNV-1a 64 over a byte range (the payload-hash function). Pass the
 * previous return value as @p basis to hash incrementally.
 */
uint64_t fnv1a_bytes(const void *data, size_t len,
                     uint64_t basis = 14695981039346656037ull);

/**
 * Stream @p src into @p path as SGMB (one pass; the count and
 * payload hash are patched into the header afterwards). @p app,
 * @p scale and @p seed are recorded as provenance metadata. Leaves
 * @p src rewound. fatal() on I/O errors or on an address that uses
 * the top bit (the packing reserves it).
 *
 * @return the number of records written.
 */
uint64_t write_bin_trace(TraceSource &src, const std::string &path,
                         const std::string &app = "", double scale = 0.0,
                         uint64_t seed = 0);

/**
 * Validate an in-memory header block. @p len is the number of bytes
 * available at @p data; @p file_size is the total file size used to
 * check the payload for truncation. On failure returns false and
 * puts a one-line reason in @p error.
 */
bool parse_bin_header(const void *data, size_t len, uint64_t file_size,
                      BinTraceHeader &hdr, std::string &error);

/**
 * Read and validate the header of @p path (64-byte read; the payload
 * is length-checked but not hashed). False + @p error on any problem
 * including an unreadable file.
 */
bool read_bin_header(const std::string &path, BinTraceHeader &hdr,
                     std::string &error);

/** True if @p path starts with the SGMB magic (not a full validation). */
bool is_bin_trace(const std::string &path);

} // namespace sgms

#endif // SGMS_TRACE_BINFMT_H
