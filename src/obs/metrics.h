/**
 * @file
 * Named metrics registry: counters, gauges, and distributions.
 *
 * Names follow "<module>.<name>" (e.g. "net.wire_busy",
 * "gms.putpages", "policy.followon_segments"). A count that a module
 * already keeps as a plain field (NetStats, GmsCluster, FaultInjector,
 * PalEmulator, SimResult) is not counted twice: the simulator
 * publishes it from that record when the run finishes, next to its
 * gauges. Only what no other record keeps is updated live, through
 * the references registration returns, which stay valid for the
 * registry's lifetime: the distributions, the fetch policies'
 * policy.* counters and sim.disk_faults. At the end of a run the
 * registry is snapshotted into SimResult::metrics, printed as a
 * table, or emitted as JSON.
 */

#ifndef SGMS_OBS_METRICS_H
#define SGMS_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.h"

namespace sgms::obs
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void inc(uint64_t n = 1) { value_ += n; }
    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/** Last-value metric (occupancy, utilization, sizes). */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/** Sampled distribution (wraps the Welford Accumulator). */
class Distribution
{
  public:
    void add(double x) { acc_.add(x); }
    const Accumulator &stats() const { return acc_; }
    void reset() { acc_ = Accumulator(); }

  private:
    Accumulator acc_;
};

/** What kind of metric a snapshot entry came from. */
enum class MetricKind : uint8_t
{
    Counter,
    Gauge,
    Distribution,
};

const char *metric_kind_name(MetricKind k);

/** One metric's value, decoupled from the live registry. */
struct MetricSample
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    /** Counter count, gauge value, or distribution sum. */
    double value = 0.0;
    // Distribution-only fields (zero otherwise).
    uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/**
 * Owner of named metrics. Registration is find-or-create, so two
 * components may share a metric; re-registering a name as a
 * different kind is a fatal error (it would silently split data).
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Distribution &distribution(const std::string &name);

    size_t size() const { return metrics_.size(); }

    /** All metrics, name-sorted, as detached samples. */
    std::vector<MetricSample> snapshot() const;

    /** Human-readable table of every metric. */
    void print(std::ostream &os) const;

    void clear() { metrics_.clear(); }

  private:
    struct Entry
    {
        MetricKind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Distribution> dist;
    };

    Entry &find_or_create(const std::string &name, MetricKind kind);

    std::map<std::string, Entry> metrics_;
};

/**
 * Emit samples as a JSON object: counters and gauges as numbers,
 * distributions as {count,sum,mean,min,max} objects.
 */
void write_metrics_json(std::ostream &os,
                        const std::vector<MetricSample> &samples);

/** Print samples as the same table MetricsRegistry::print uses. */
void print_metrics(std::ostream &os,
                   const std::vector<MetricSample> &samples);

} // namespace sgms::obs

#endif // SGMS_OBS_METRICS_H
