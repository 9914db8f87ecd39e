#include "exec/result_cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "common/logging.h"
#include "exec/result_codec.h"
#include "trace/binfmt.h"

namespace sgms::exec
{

namespace
{

/** Exact textual form of a double for fingerprinting. */
std::string
fp_double(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

class Fingerprint
{
  public:
    void
    add(const char *key, const std::string &value)
    {
        text_ += key;
        text_ += '=';
        text_ += value;
        text_ += '\n';
    }
    void
    add(const char *key, uint64_t value)
    {
        add(key, std::to_string(value));
    }
    void
    add_i(const char *key, int64_t value)
    {
        add(key, std::to_string(value));
    }
    void
    add(const char *key, double value)
    {
        add(key, fp_double(value));
    }
    void
    add(const char *key, bool value)
    {
        add(key, std::string(value ? "1" : "0"));
    }

    std::string take() { return std::move(text_); }

  private:
    std::string text_;
};

uint64_t
fnv1a(const std::string &s, uint64_t basis)
{
    constexpr uint64_t kPrime = 1099511628211ull;
    uint64_t h = basis;
    for (unsigned char c : s) {
        h ^= c;
        h *= kPrime;
    }
    return h;
}

} // namespace

std::string
CacheKey::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
}

std::string
experiment_fingerprint(const Experiment &ex)
{
    // The fully resolved config (policy/subpage/mem_pages filled in)
    // is what the simulator actually sees; hash that, not the spec.
    SimConfig cfg = ex.config();

    Fingerprint fp;
    fp.add("schema", static_cast<uint64_t>(kResultBlobSchema));

    // Trace identity: traces are generated from (app, scale, seed),
    // or replayed from a baked SGMB file (--trace-bin), in which
    // case the file's header (reference count + payload hash,
    // written at bake time) is the content identity — a re-baked or
    // edited file is a different key, a renamed copy is not.
    fp.add("trace.app", ex.app);
    fp.add("trace.scale", ex.scale);
    fp.add("trace.seed", ex.seed);
    fp.add("trace.bin", ex.trace_bin.empty() ? "0" : "1");
    if (!ex.trace_bin.empty()) {
        BinTraceHeader hdr;
        std::string error;
        if (!read_bin_header(ex.trace_bin, hdr, error))
            fatal("--trace-bin file '%s': %s", ex.trace_bin.c_str(),
                  error.c_str());
        fp.add("trace.bin_refs", hdr.ref_count);
        fp.add("trace.bin_hash", hdr.payload_hash);
    }

    fp.add("cfg.page_size", static_cast<uint64_t>(cfg.page_size));
    fp.add("cfg.subpage_size",
           static_cast<uint64_t>(cfg.subpage_size));
    fp.add("cfg.mem_pages", static_cast<uint64_t>(cfg.mem_pages));
    fp.add("cfg.replacement", cfg.replacement);
    fp.add("cfg.policy", cfg.policy);
    fp.add_i("cfg.ns_per_ref", cfg.ns_per_ref);

    fp.add_i("net.fault_handle", cfg.net.fault_handle);
    fp.add("net.request_bytes",
           static_cast<uint64_t>(cfg.net.request_bytes));
    fp.add_i("net.send_cpu_request", cfg.net.send_cpu_request);
    fp.add_i("net.send_cpu_data", cfg.net.send_cpu_data);
    fp.add_i("net.dma_fixed", cfg.net.dma_fixed);
    fp.add_i("net.dma_per_byte", cfg.net.dma_per_byte);
    fp.add_i("net.wire_fixed", cfg.net.wire_fixed);
    fp.add_i("net.wire_per_byte", cfg.net.wire_per_byte);
    fp.add_i("net.request_proc", cfg.net.request_proc);
    fp.add_i("net.recv_fixed", cfg.net.recv_fixed);
    fp.add_i("net.recv_per_byte", cfg.net.recv_per_byte);
    fp.add_i("net.pipelined_recv_fixed",
             cfg.net.pipelined_recv_fixed);
    fp.add_i("net.pipelined_recv_per_byte",
             cfg.net.pipelined_recv_per_byte);
    fp.add("net.priority_scheduling", cfg.net.priority_scheduling);
    fp.add("net.preemptive_demand", cfg.net.preemptive_demand);

    fp.add_i("disk.base", cfg.disk.base);
    fp.add_i("disk.per_byte", cfg.disk.per_byte);

    fp.add("gms.servers", static_cast<uint64_t>(cfg.gms.servers));
    fp.add("gms.warm", cfg.gms.warm);
    fp.add("gms.putpage_traffic", cfg.gms.putpage_traffic);
    fp.add("gms.server_capacity_pages",
           cfg.gms.server_capacity_pages);

    fp.add("protection",
           static_cast<uint64_t>(cfg.protection));
    fp.add_i("pal.fast_load", cfg.pal.fast_load);
    fp.add_i("pal.slow_load", cfg.pal.slow_load);
    fp.add_i("pal.fast_store", cfg.pal.fast_store);
    fp.add_i("pal.slow_store", cfg.pal.slow_store);
    fp.add_i("pal.null_pal_call", cfg.pal.null_pal_call);
    fp.add_i("pal.l1_hit", cfg.pal.l1_hit);
    fp.add_i("pal.l2_hit", cfg.pal.l2_hit);
    fp.add_i("pal.l2_miss", cfg.pal.l2_miss);

    fp.add("faults.seed", cfg.faults.seed);
    for (size_t k = 0; k < kMsgKindCount; ++k) {
        std::string base =
            std::string("faults.") + msg_kind_name(
                static_cast<MsgKind>(k));
        fp.add((base + ".loss").c_str(), cfg.faults.loss_prob[k]);
        fp.add((base + ".corrupt").c_str(),
               cfg.faults.corrupt_prob[k]);
    }
    fp.add("faults.duplicate", cfg.faults.duplicate_prob);
    fp.add("faults.outages",
           static_cast<uint64_t>(cfg.faults.outages.size()));
    for (const auto &o : cfg.faults.outages) {
        fp.add("outage.server", static_cast<uint64_t>(o.server));
        fp.add_i("outage.fail_at", o.fail_at);
        fp.add_i("outage.recover_at", o.recover_at);
    }
    fp.add("retry.max_attempts",
           static_cast<uint64_t>(cfg.retry.max_attempts));
    fp.add("retry.timeout_multiplier",
           cfg.retry.timeout_multiplier);
    fp.add_i("retry.min_timeout", cfg.retry.min_timeout);
    fp.add("retry.backoff_base", cfg.retry.backoff_base);
    fp.add("retry.jitter_frac", cfg.retry.jitter_frac);
    fp.add_i("retry.quarantine", cfg.retry.quarantine);

    fp.add("tlb.enabled", cfg.tlb_enabled);
    fp.add("tlb.entries", static_cast<uint64_t>(cfg.tlb_entries));
    fp.add("tlb.assoc", static_cast<uint64_t>(cfg.tlb_assoc));
    fp.add_i("tlb.miss_cost", cfg.tlb_miss_cost);
    fp.add("record_faults", cfg.record_faults);
    // Multi-client keys are appended only when active so every
    // single-client fingerprint (and cached result) from before the
    // multi-client kernel stays valid.
    if (cfg.clients > 1) {
        fp.add("clients", static_cast<uint64_t>(cfg.clients));
        fp.add("metrics_per_client", cfg.metrics_per_client);
    }
    // cfg.tracer is a pure observer of the run; the engine refuses
    // to serve cached results to traced runs instead of keying on it.
    return fp.take();
}

CacheKey
cache_key_of(const Experiment &ex)
{
    std::string fp = experiment_fingerprint(ex);
    CacheKey key;
    key.hi = fnv1a(fp, 14695981039346656037ull); // standard offset
    key.lo = fnv1a(fp, 0x9ae16a3b2f90404full);   // independent basis
    return key;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        fatal("ResultCache needs a directory");
}

std::string
ResultCache::blob_path(const CacheKey &key) const
{
    return dir_ + "/" + key.hex() + ".json";
}

std::optional<SimResult>
ResultCache::load(const CacheKey &key)
{
    std::ifstream in(blob_path(key), std::ios::binary | std::ios::ate);
    std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
    if (size < 0) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    // One read into a string sized from the file: a blob is
    // immutable once renamed into place.
    std::string text(static_cast<size_t>(size), '\0');
    in.seekg(0);
    in.read(text.data(), size);
    SimResult r;
    if (!in || !read_result_blob(text, r)) {
        decode_failures_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return r;
}

void
ResultCache::store(const CacheKey &key, const SimResult &r)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        warn("result cache: cannot create %s: %s", dir_.c_str(),
             ec.message().c_str());
        return;
    }
    // Unique temp name per (process, store) so concurrent writers of
    // the same key never collide; last rename wins with equal bytes.
    uint64_t n = tmp_counter_.fetch_add(1, std::memory_order_relaxed);
    std::string tmp = blob_path(key) + ".tmp." +
                      std::to_string(::getpid()) + "." +
                      std::to_string(n);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("result cache: cannot write %s", tmp.c_str());
            return;
        }
        std::string blob = result_blob(r);
        out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
        out.flush();
        if (!out) {
            warn("result cache: short write to %s", tmp.c_str());
            std::remove(tmp.c_str());
            return;
        }
    }
    if (std::rename(tmp.c_str(), blob_path(key).c_str()) != 0) {
        warn("result cache: rename into %s failed",
             blob_path(key).c_str());
        std::remove(tmp.c_str());
        return;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
}

CacheStats
ResultCache::stats() const
{
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stores = stores_.load(std::memory_order_relaxed);
    s.decode_failures =
        decode_failures_.load(std::memory_order_relaxed);
    return s;
}

} // namespace sgms::exec
