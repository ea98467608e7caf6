#include "margo/metrics.hpp"

namespace mochi::margo {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(HistogramOptions opts) {
    if (opts.buckets < 1) opts.buckets = 1;
    if (opts.growth <= 1.0) opts.growth = 2.0;
    if (opts.start <= 0.0) opts.start = 1.0;
    m_bounds.reserve(static_cast<std::size_t>(opts.buckets));
    double bound = opts.start;
    for (int i = 0; i < opts.buckets; ++i) {
        m_bounds.push_back(bound);
        bound *= opts.growth;
    }
    m_buckets = std::make_unique<std::atomic<std::uint64_t>[]>(m_bounds.size() + 1);
    for (std::size_t i = 0; i <= m_bounds.size(); ++i) m_buckets[i].store(0);
}

void Histogram::observe(double v) noexcept {
    // Upper-bound search; bounds are tiny (tens of entries) and sorted.
    std::size_t i = 0;
    while (i < m_bounds.size() && v > m_bounds[i]) ++i;
    m_buckets[i].fetch_add(1, std::memory_order_relaxed);
    m_count.fetch_add(1, std::memory_order_relaxed);
    double cur = m_sum.load(std::memory_order_relaxed);
    while (!m_sum.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {}
}

std::vector<std::uint64_t> Histogram::counts() const {
    std::vector<std::uint64_t> out(m_bounds.size() + 1);
    for (std::size_t i = 0; i <= m_bounds.size(); ++i)
        out[i] = m_buckets[i].load(std::memory_order_relaxed);
    return out;
}

double Histogram::quantile(double q) const {
    auto cs = counts();
    std::uint64_t total = 0;
    for (auto c : cs) total += c;
    if (total == 0) return 0.0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < cs.size(); ++i) {
        seen += cs[i];
        if (seen >= rank) return i < m_bounds.size() ? m_bounds[i] : m_bounds.back();
    }
    return m_bounds.back();
}

json::Value Histogram::to_json() const {
    auto v = json::Value::object();
    auto cs = counts();
    // Derive the reported count from the same bucket snapshot instead of
    // reading m_count separately: observe() increments bucket and count in
    // two relaxed steps, so a concurrent scrape could otherwise see
    // count != sum(buckets) — a "torn" snapshot that breaks consumers which
    // cross-check the two (the invariant count == sum(buckets) must hold in
    // every rendered document).
    std::uint64_t n = 0;
    for (auto c : cs) n += c;
    v["count"] = n;
    v["sum"] = sum();
    v["avg"] = n ? sum() / static_cast<double>(n) : 0.0;
    auto le = json::Value::array();
    for (double b : m_bounds) le.push_back(b);
    v["le"] = std::move(le);
    auto buckets = json::Value::array();
    for (auto c : cs) buckets.push_back(c);
    v["buckets"] = std::move(buckets);
    v["p50"] = quantile(0.5);
    v["p99"] = quantile(0.99);
    return v;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
    std::lock_guard lk{m_mutex};
    auto& slot = m_counters[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    std::lock_guard lk{m_mutex};
    auto& slot = m_gauges[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, HistogramOptions opts) {
    std::lock_guard lk{m_mutex};
    auto& slot = m_histograms[name];
    if (!slot) slot = std::make_unique<Histogram>(opts);
    return *slot;
}

json::Value MetricsRegistry::to_json() const {
    std::lock_guard lk{m_mutex};
    auto doc = json::Value::object();
    doc["counters"] = json::Value::object();
    for (const auto& [name, c] : m_counters) doc["counters"][name] = c->value();
    doc["gauges"] = json::Value::object();
    for (const auto& [name, g] : m_gauges) doc["gauges"][name] = g->value();
    doc["histograms"] = json::Value::object();
    for (const auto& [name, h] : m_histograms) doc["histograms"][name] = h->to_json();
    return doc;
}

// ---------------------------------------------------------------------------
// MetricsMonitor
// ---------------------------------------------------------------------------

MetricsMonitor::MetricsMonitor(std::shared_ptr<MetricsRegistry> registry)
: m_registry(std::move(registry)),
  m_forwards(m_registry->counter("margo_rpc_forwards_total")),
  m_forward_failures(m_registry->counter("margo_rpc_forward_failures_total")),
  m_handled(m_registry->counter("margo_rpc_handled_total")),
  m_bulk_transfers(m_registry->counter("margo_bulk_transfers_total")),
  m_bulk_bytes(m_registry->counter("margo_bulk_bytes_total")),
  m_batch_ops(m_registry->counter("margo_batch_ops_total")),
  m_batch_op_failures(m_registry->counter("margo_batch_op_failures_total")),
  m_forward_latency(m_registry->histogram("margo_rpc_forward_latency_us")),
  m_handler_duration(m_registry->histogram("margo_rpc_handler_duration_us")),
  m_queue_delay(m_registry->histogram("margo_rpc_queue_delay_us")),
  m_in_flight(m_registry->gauge("margo_in_flight_rpcs")) {}

void MetricsMonitor::on_forward_start(const CallContext&) { m_forwards.inc(); }

void MetricsMonitor::on_forward_complete(const CallContext& ctx, bool ok) {
    if (ok)
        m_forward_latency.observe(ctx.duration_us);
    else
        m_forward_failures.inc();
}

void MetricsMonitor::on_handler_start(const CallContext& ctx) {
    m_queue_delay.observe(ctx.queue_delay_us);
}

void MetricsMonitor::on_handler_complete(const CallContext& ctx) {
    m_handled.inc();
    m_handler_duration.observe(ctx.duration_us);
}

void MetricsMonitor::on_bulk_complete(const CallContext&, std::size_t bytes,
                                      double duration_us) {
    (void)duration_us;
    m_bulk_transfers.inc();
    m_bulk_bytes.inc(bytes);
}

void MetricsMonitor::on_batch_op(const CallContext&, bool ok) {
    m_batch_ops.inc();
    if (!ok) m_batch_op_failures.inc();
}

void MetricsMonitor::on_progress_sample(std::size_t in_flight_rpcs,
                                        const std::map<std::string, std::size_t>& pool_sizes) {
    m_in_flight.set(static_cast<double>(in_flight_rpcs));
    for (const auto& [name, size] : pool_sizes)
        m_registry->gauge("margo_pool_size_" + name).set(static_cast<double>(size));
}

} // namespace mochi::margo
