/**
 * @file
 * Minimal JSON value model and recursive-descent parser.
 *
 * The repo writes JSON with hand-rolled emitters (core/json_report.h,
 * obs/chrome_trace.h); this is a general reader for them. The result
 * cache does not use it: exec/result_codec.h reads its own binary
 * blobs with a fixed-layout reader. The remaining users are the
 * benchmark's tests (perf/perf_test.cc, which parse BENCHMARK.json),
 * tests/json_test.cc and tests/obs_test.cc (which reads a Chrome
 * trace back). Parsing never throws and never calls
 * fatal(): a malformed document simply fails to parse.
 *
 * Numbers keep their raw token text so 64-bit integers (tick counts
 * in picoseconds) round-trip exactly instead of through a double.
 */

#ifndef SGMS_COMMON_JSON_H
#define SGMS_COMMON_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sgms
{

/** One parsed JSON value (a tagged union over the six JSON types). */
class JsonValue
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return kind_; }
    bool is_null() const { return kind_ == Kind::Null; }
    bool is_bool() const { return kind_ == Kind::Bool; }
    bool is_number() const { return kind_ == Kind::Number; }
    bool is_string() const { return kind_ == Kind::String; }
    bool is_array() const { return kind_ == Kind::Array; }
    bool is_object() const { return kind_ == Kind::Object; }

    /** Value accessors; wrong-kind access returns the fallback. */
    bool as_bool(bool fallback = false) const;
    double as_double(double fallback = 0.0) const;
    int64_t as_i64(int64_t fallback = 0) const;
    uint64_t as_u64(uint64_t fallback = 0) const;
    const std::string &as_string() const; // "" when not a string

    /** Array element count (0 when not an array). */
    size_t size() const { return array_.size(); }
    const std::vector<JsonValue> &items() const { return array_; }

    /** Object member lookup; null-kind sentinel when missing. */
    const JsonValue &operator[](const std::string &key) const;
    bool has(const std::string &key) const;
    const std::map<std::string, JsonValue> &members() const
    {
        return object_;
    }

    // Typed object-member shorthands (fallback when absent/mistyped).
    uint64_t get_u64(const std::string &key, uint64_t fallback = 0) const;
    int64_t get_i64(const std::string &key, int64_t fallback = 0) const;
    double get_double(const std::string &key,
                      double fallback = 0.0) const;
    bool get_bool(const std::string &key, bool fallback = false) const;
    std::string get_string(const std::string &key,
                           const std::string &fallback = "") const;

    /**
     * Parse @p text into @p out. Returns false (leaving @p out null)
     * on any syntax error, trailing garbage, or over-deep nesting.
     */
    static bool parse(const std::string &text, JsonValue &out);

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string scalar_; ///< number token or string payload
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

} // namespace sgms

#endif // SGMS_COMMON_JSON_H
