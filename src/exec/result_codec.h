/**
 * @file
 * Lossless SimResult <-> JSON blob codec for the result cache and the
 * worker fleet's Result frames.
 *
 * Unlike core/json_report.h — a reporting format with rounded
 * millisecond fields — this codec is a faithful serialization: every
 * field of SimResult round-trips exactly (ticks as integer
 * picoseconds, doubles printed as by printf("%.17g")), so a cache hit
 * is indistinguishable from re-running the simulation, down to the
 * last byte of any downstream report.
 *
 * The blob is a JSON object with a fixed key order and no whitespace.
 * The reader is not a general JSON parser: it walks that one layout
 * in a single pass and accepts only the exact bytes the writer would
 * print for the decoded result. Blobs carry kResultBlobSchema; a
 * reader rejects any other version, and any damage, by returning
 * false, which the cache treats as a miss.
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
inline constexpr uint32_t kResultBlobSchema = 1;

/** Serialize every field of @p r as one JSON object. */
std::string result_blob(const SimResult &r);

/**
 * Parse a blob produced by result_blob. Returns false (leaving @p out
 * default-constructed) on any input result_blob could not have
 * printed: a syntax error, a schema mismatch, a missing or reordered
 * field, a number in a non-canonical form. Never fatals, because the
 * input may be a truncated or corrupted cache file. When it returns
 * true, result_blob(out) == text.
 */
bool read_result_blob(const std::string &text, SimResult &out);

} // namespace sgms::exec

#endif // SGMS_EXEC_RESULT_CODEC_H
