/**
 * @file
 * Lossless SimResult <-> binary blob codec for the result cache and
 * the worker fleet's Result frames.
 *
 * Unlike core/json_report.h — a reporting format with rounded
 * millisecond fields — this codec is a faithful serialization: every
 * field of SimResult round-trips exactly, so a cache hit is
 * indistinguishable from re-running the simulation, down to the last
 * byte of any downstream report.
 *
 * The blob is a fixed layout with no names and no padding: integers,
 * ticks and doubles as their raw bytes in native byte order (as in
 * SGMB), a bool as one byte (0 or 1), a string or array as a u64
 * count and then its elements, every struct field by field. It opens
 * with kResultBlobSchema as a u32, so a blob from a host of the other
 * byte order fails that word. The reader walks the one layout in a
 * single pass and accepts only bytes the writer would append for the
 * decoded result; any other schema, and any damage, returns false,
 * which the cache treats as a miss.
 */

#ifndef SGMS_EXEC_RESULT_CODEC_H
#define SGMS_EXEC_RESULT_CODEC_H

#include <string>

#include "core/sim_result.h"

namespace sgms::exec
{

/**
 * Version of both the blob layout and the simulator's observable
 * result semantics. Bump whenever SimResult gains/changes fields OR
 * a simulator change alters results for an unchanged SimConfig —
 * the version participates in the cache key, so a bump invalidates
 * every cached point at once.
 */
inline constexpr uint32_t kResultBlobSchema = 4;

/** Serialize every field of @p r as one binary blob. */
std::string result_blob(const SimResult &r);

/**
 * Decode a blob produced by result_blob. Returns false (leaving @p out
 * default-constructed) on any input result_blob could not have
 * written: a short read or a trailing byte, a schema mismatch, a bool
 * byte other than 0 or 1, an unknown metric kind, histogram bins out
 * of order, a count larger than the bytes left. Never fatals, because
 * the input may be a truncated or corrupted cache file. When it
 * returns true, result_blob(out) == blob.
 */
bool read_result_blob(const std::string &blob, SimResult &out);

} // namespace sgms::exec

#endif // SGMS_EXEC_RESULT_CODEC_H
