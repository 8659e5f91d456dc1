/**
 * @file
 * Unified telemetry layer: a hierarchical registry of typed
 * instruments shared by every subsystem.
 *
 * Subsystems intern instruments once (at construction) and get back
 * cheap handles whose hot-path cost is one pointer-indirect add - no
 * string hashing per event.
 * Three instrument kinds cover the paper's evaluation needs:
 *
 *  - Counter: monotonically increasing event count;
 *  - Gauge: last-written value, typically published by a *collector*
 *    callback at snapshot time (device channel bytes, lock wait
 *    times, pool depths - state tracked elsewhere);
 *  - LatencyHistogram: log2-bucketed distribution (nanoseconds) with
 *    count/sum/min/max and percentile readout.
 *
 * Names are dotted paths ("vm.faults", "fs.journal.commits"); the
 * MetricsScope helper prepends a subsystem prefix so producers stay
 * decoupled from the global namespace. sys::System owns one registry
 * and rolls everything into a single MetricsSnapshot that serializes
 * to JSON (and parses back - see tests/metrics_test.cc).
 *
 * Nothing here takes locks: a registry belongs to one System, whose
 * engine steps on a single host thread, so every instrument is one
 * slot. Snapshots order instruments by name, asserted in peek().
 */
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/json.h"
#include "sim/time.h"

namespace dax::sim {

class MetricsRegistry;

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/** Log2-bucketed value distribution. Bucket i (i > 0) holds values in
 *  [2^(i-1), 2^i - 1]; bucket 0 holds exact zeros. */
struct HistogramData
{
    static constexpr unsigned kBuckets = 65;

    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0; ///< valid when count > 0
    std::uint64_t max = 0;

    /** Bucket index of @p v: 0 for 0, else bit_width(v). */
    static unsigned bucketOf(std::uint64_t v);

    /** Largest value bucket @p i can hold. */
    static std::uint64_t bucketUpperBound(unsigned i);

    void record(std::uint64_t v);
    void merge(const HistogramData &other);

    /**
     * Value at quantile @p p in [0, 1], log-linearly interpolated:
     * the rank lands in a log2 bucket, the value interpolates
     * linearly across that bucket's [2^(i-1), 2^i - 1] range by the
     * rank's offset into the bucket, and the result is clamped to the
     * observed [min, max] (0 when empty). Integer math only, so the
     * readout is bit-identical across platforms. Single-sample
     * histograms and p=0 / p=1 are exact; mid-bucket quantiles carry
     * the even-spread assumption (error bounded by the bucket width).
     */
    std::uint64_t percentile(double p) const;

    double mean() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(sum)
                                / static_cast<double>(count);
    }

    bool operator==(const HistogramData &) const = default;
};

/**
 * Counter handle. Obtain from a MetricsRegistry; a default-constructed
 * handle is unbound and drops increments (so partially wired test
 * fixtures stay safe).
 */
class Counter
{
  public:
    Counter() = default;

    /** Hot path: one pointer-indirect add. */
    void
    add(std::uint64_t delta = 1)
    {
        if (slot_ != nullptr)
            *slot_ += delta;
    }

    std::uint64_t value() const { return slot_ == nullptr ? 0 : *slot_; }

    bool bound() const { return slot_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Counter(std::uint64_t *slot) : slot_(slot) {}

    std::uint64_t *slot_ = nullptr;
};

/** Gauge handle (see Counter for binding rules). */
class Gauge
{
  public:
    Gauge() = default;

    void
    set(double v)
    {
        if (value_ != nullptr)
            *value_ = v;
    }

    void
    add(double v)
    {
        if (value_ != nullptr)
            *value_ += v;
    }

    double value() const { return value_ == nullptr ? 0.0 : *value_; }
    bool bound() const { return value_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Gauge(double *value) : value_(value) {}

    double *value_ = nullptr;
};

/** Histogram handle (see Counter for binding rules). */
class LatencyHistogram
{
  public:
    LatencyHistogram() = default;

    void
    record(std::uint64_t v)
    {
        if (data_ != nullptr)
            data_->record(v);
    }

    /** Copy of the distribution (empty when unbound). */
    HistogramData
    value() const
    {
        return data_ == nullptr ? HistogramData{} : *data_;
    }

    bool bound() const { return data_ != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit LatencyHistogram(HistogramData *data) : data_(data) {}

    HistogramData *data_ = nullptr;
};

/** Point-in-time copy of every instrument. */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> histograms;

    /** Accumulate @p other (counters/gauges add, histograms merge). */
    void merge(const MetricsSnapshot &other);

    /** Counter value (0 when absent). */
    std::uint64_t
    counter(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }

    /** Gauge value (0 when absent). */
    double
    gauge(const std::string &name) const
    {
        auto it = gauges.find(name);
        return it == gauges.end() ? 0.0 : it->second;
    }

    Json toJson() const;
    static MetricsSnapshot fromJson(const Json &json,
                                    std::string *error = nullptr);

    /** "key=value" lines sorted by key (debug/tool output). */
    std::string toString() const;

    bool operator==(const MetricsSnapshot &) const = default;
};

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Intern an instrument. Repeated calls with the same name return
     * a handle to the same storage; registering a name under a
     * different kind throws std::logic_error.
     */
    Counter counter(const std::string &name);
    Gauge gauge(const std::string &name);
    LatencyHistogram histogram(const std::string &name);

    bool has(const std::string &name) const
    {
        return index_.count(name) != 0;
    }

    /** Counter value; 0 when @p name is absent or not a counter. */
    std::uint64_t counterValue(const std::string &name) const;
    double gaugeValue(const std::string &name) const;
    HistogramData histogramValue(const std::string &name) const;

    /**
     * Register a callback that publishes sampled state (device channel
     * bytes, lock stats, pool depths) into gauges right before a
     * snapshot. Collectors must not register new instruments from
     * within collect().
     */
    void addCollector(std::function<void()> fn)
    {
        collectors_.push_back(std::move(fn));
    }

    /** Run all collectors (snapshot() does this automatically). */
    void collect();

    /** Collect, then copy out every instrument. */
    MetricsSnapshot snapshot();

    /** Copy without running collectors (gauges may be stale). */
    MetricsSnapshot peek() const;

    /** Zero every value; registrations and collectors survive. */
    void reset();

  private:
    struct Entry
    {
        std::string name;
        MetricKind kind;
        std::uint64_t counter = 0; ///< Counter value
        double gauge = 0.0;        ///< Gauge value
        HistogramData hist;        ///< Histogram distribution
    };

    Entry &intern(const std::string &name, MetricKind kind);
    const Entry *lookup(const std::string &name) const;

    std::deque<Entry> entries_; ///< deque: handles stay stable
    std::map<std::string, std::size_t> index_;
    std::vector<std::function<void()>> collectors_;
};

/**
 * Windowed time-series telemetry over one registry: interval
 * snapshots per virtual-time window, yielding counter-rate and
 * histogram-percentile-vs-time series (`daxvm-bench-timeline-v1` in
 * bench JSON, docs/metrics.md).
 *
 * The timeline is passive: tick(now) is called from workload quantum
 * boundaries and rolls a window when `now` crosses its end. Deltas
 * between consecutive peek()s are attributed to the window that
 * closes, so the sum of all window counts equals the run totals
 * exactly (asserted by scripts/bench_diff.py validation). Empty
 * windows are skipped in O(1); windows beyond `maxWindows` are
 * counted in `truncated_windows` rather than silently dropped.
 *
 * Everything is virtual-time driven, so the series are bit-identical
 * across runs and never advance simulated time.
 */
class MetricsTimeline
{
  public:
    struct Config
    {
        /** Window width in virtual ns. */
        Time windowNs = 5'000'000;
        /** Only metrics whose name starts with this ("" = all). */
        std::string prefix;
        /** Stored-window cap; excess windows count as truncated. */
        std::size_t maxWindows = 4096;
    };

    /** tick() traceTrack sentinel: no Chrome counter emission. */
    static constexpr std::uint32_t kNoTrack = 0xffffffffu;

    MetricsTimeline(MetricsRegistry &registry, Config config);

    /**
     * Observe virtual time @p now; rolls any windows it crossed. The
     * first tick baselines the registry and opens the first window.
     * @p traceTrack, when not kNoTrack, emits windowed p99 samples as
     * Chrome counter events on that span track at each roll.
     */
    void tick(Time now, std::uint32_t traceTrack = kNoTrack);

    /** Roll the final partial window and freeze the totals. */
    void close(Time now);

    bool closed() const { return closed_; }
    Time windowNs() const { return cfg_.windowNs; }
    std::size_t windowCount() const { return windows_.size(); }
    std::uint64_t truncatedWindows() const { return truncated_; }

    /** One timeline run object (see docs/metrics.md for the schema). */
    Json toJson() const;

  private:
    /** Close the window [windowStart_, boundary) against peek(). */
    void roll(Time boundary, std::uint32_t traceTrack);
    MetricsSnapshot filtered() const;

    MetricsRegistry *registry_;
    Config cfg_;
    bool started_ = false;
    bool closed_ = false;
    Time startNs_ = 0;
    Time windowStart_ = 0;
    MetricsSnapshot baseline_;
    MetricsSnapshot last_;
    std::vector<Json> windows_;
    std::uint64_t truncated_ = 0;
    Json totals_;
};

/** Name-prefix view of a registry ("vm" + "faults" -> "vm.faults"). */
class MetricsScope
{
  public:
    MetricsScope(MetricsRegistry &registry, std::string prefix)
        : registry_(&registry), prefix_(std::move(prefix))
    {}

    Counter counter(const std::string &name)
    {
        return registry_->counter(qualify(name));
    }
    Gauge gauge(const std::string &name)
    {
        return registry_->gauge(qualify(name));
    }
    LatencyHistogram histogram(const std::string &name)
    {
        return registry_->histogram(qualify(name));
    }
    MetricsScope scope(const std::string &sub) const
    {
        return MetricsScope(*registry_, qualify(sub));
    }

    MetricsRegistry &registry() { return *registry_; }

    std::string
    qualify(const std::string &name) const
    {
        return prefix_.empty() ? name : prefix_ + "." + name;
    }

  private:
    MetricsRegistry *registry_;
    std::string prefix_;
};

} // namespace dax::sim
