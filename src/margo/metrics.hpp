// Metrics export: a process-wide registry of named counters, gauges, and
// exponential-bucket histograms, fed from two directions:
//
//  - the runtime itself, via MetricsMonitor (a Monitor implementation that
//    counts RPCs, failures, latency and queue-delay histograms, bulk bytes,
//    in-flight gauges and pool depths) — every component gets these "at no
//    engineering cost", like the §4 statistics;
//  - component-level instrumentation (yokan puts, warabi bytes, remi chunks,
//    raft appends, ssg pings, ...) through Instance::metrics().
//
// The registry renders to JSON; Bedrock exposes it remotely through the
// "bedrock/get_metrics" RPC and as the $__metrics__ variable of Jx9 queries,
// so an operator or rebalancer can scrape any process (see
// docs/OBSERVABILITY.md for the naming scheme and a worked example).
#pragma once

#include "margo/monitoring.hpp"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mochi::margo {

/// Monotonically increasing event count.
class Counter {
  public:
    void inc(std::uint64_t n = 1) noexcept { m_value.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return m_value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> m_value{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
  public:
    void set(double v) noexcept { m_value.store(v, std::memory_order_relaxed); }
    void add(double d) noexcept {
        double cur = m_value.load(std::memory_order_relaxed);
        while (!m_value.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {}
    }
    [[nodiscard]] double value() const noexcept {
        return m_value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> m_value{0};
};

/// Exponential histogram buckets: bucket i counts observations
/// <= start * growth^i; the last bucket is +inf (overflow).
struct HistogramOptions {
    double start = 1.0;   ///< upper bound of the first bucket
    double growth = 2.0;  ///< bound ratio between consecutive buckets
    int buckets = 24;     ///< finite buckets (an +inf bucket is added)
};

class Histogram {
  public:
    explicit Histogram(HistogramOptions opts = {});

    void observe(double v) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept {
        return m_count.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const noexcept { return m_sum.load(std::memory_order_relaxed); }
    /// Upper bounds of the finite buckets.
    [[nodiscard]] const std::vector<double>& bounds() const noexcept { return m_bounds; }
    /// Per-bucket counts (bounds().size() + 1 entries; last = overflow).
    [[nodiscard]] std::vector<std::uint64_t> counts() const;
    /// Bucket-resolution quantile estimate (q in [0,1]): the upper bound of
    /// the bucket containing the q-th observation.
    [[nodiscard]] double quantile(double q) const;

    [[nodiscard]] json::Value to_json() const;

  private:
    std::vector<double> m_bounds;
    std::unique_ptr<std::atomic<std::uint64_t>[]> m_buckets;
    std::atomic<std::uint64_t> m_count{0};
    std::atomic<double> m_sum{0};
};

/// Named metrics of one process. Lookups create on first use and return
/// references that stay valid for the registry's lifetime (nothing is ever
/// removed), so components resolve their metrics once at construction and
/// the hot path (inc/observe) is lock-free.
class MetricsRegistry {
  public:
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name, HistogramOptions opts = {});

    /// {"counters": {name: n}, "gauges": {name: v},
    ///  "histograms": {name: {"count","sum","avg","le","buckets","p50","p99"}}}
    [[nodiscard]] json::Value to_json() const;

  private:
    mutable std::mutex m_mutex;
    std::map<std::string, std::unique_ptr<Counter>> m_counters;
    std::map<std::string, std::unique_ptr<Gauge>> m_gauges;
    std::map<std::string, std::unique_ptr<Histogram>> m_histograms;
};

/// The runtime-fed half of the registry: translates Monitor callbacks into
/// the margo_* metrics (see docs/OBSERVABILITY.md). Installed by every
/// Instance next to the StatisticsMonitor.
class MetricsMonitor : public Monitor {
  public:
    explicit MetricsMonitor(std::shared_ptr<MetricsRegistry> registry);

    void on_forward_start(const CallContext& ctx) override;
    void on_forward_complete(const CallContext& ctx, bool ok) override;
    void on_handler_start(const CallContext& ctx) override;
    void on_handler_complete(const CallContext& ctx) override;
    void on_bulk_complete(const CallContext& ctx, std::size_t bytes,
                          double duration_us) override;
    void on_batch_op(const CallContext& ctx, bool ok) override;
    void on_progress_sample(std::size_t in_flight_rpcs,
                            const std::map<std::string, std::size_t>& pool_sizes) override;

  private:
    std::shared_ptr<MetricsRegistry> m_registry;
    // Cached hot-path handles (resolved once; the registry keeps them alive).
    Counter& m_forwards;
    Counter& m_forward_failures;
    Counter& m_handled;
    Counter& m_bulk_transfers;
    Counter& m_bulk_bytes;
    Counter& m_batch_ops;
    Counter& m_batch_op_failures;
    Histogram& m_forward_latency;
    Histogram& m_handler_duration;
    Histogram& m_queue_delay;
    Gauge& m_in_flight;
};

} // namespace mochi::margo
