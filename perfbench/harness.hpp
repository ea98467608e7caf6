// Measurement plumbing shared by the perfbench workloads: per-thread op
// recorders, windowed summaries, in-memory spans, and deltas of scraped
// service metrics. Nothing here calls into the service; loadgen.cpp does.
#pragma once

#include "common/json.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/// Nearest-rank quantile; `v` is sorted in place. 0 for an empty set.
inline double quantile(std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// Outcome flags of one client operation.
enum Outcome : std::uint8_t {
    k_ok = 0,
    k_failed = 1,         ///< the call returned an error or missed its deadline
    k_wrong = 2,          ///< the call returned a value never written to that key
    k_notfound = 4,       ///< a get found no value for a key that is always present
};

struct Sample {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t bytes = 0;  ///< payload bytes moved by the op
    std::uint8_t kind = 0;    ///< index into the workload's op names
    std::uint8_t outcome = k_ok;
};

/// A named interval recorded by the benchmark around one call into a layer.
struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// One client thread's records. Locked so a watchdog can read what a stuck
/// thread recorded before it stopped returning.
class Recorder {
  public:
    void add(const Sample& s) {
        std::lock_guard lk{m_mutex};
        m_samples.push_back(s);
    }
    void span(const char* name, std::int64_t start, std::int64_t end) {
        std::lock_guard lk{m_mutex};
        m_spans.push_back(Span{name, start, end});
    }
    void reserve(std::size_t n) {
        std::lock_guard lk{m_mutex};
        m_samples.reserve(n);
    }
    std::vector<Sample> samples() const {
        std::lock_guard lk{m_mutex};
        return m_samples;
    }
    std::vector<Span> spans() const {
        std::lock_guard lk{m_mutex};
        return m_spans;
    }

    /// Set while the thread is inside a call into the service.
    std::atomic<bool> in_op{false};
    /// Set when the thread's loop has returned.
    std::atomic<bool> done{false};

  private:
    mutable std::mutex m_mutex;
    std::vector<Sample> m_samples;
    std::vector<Span> m_spans;
};

/// Latency and throughput of one measured window, cut into equal
/// sub-windows. The figures pool the sub-windows used: `ops_s` is their
/// completed ops over their total length, and the percentiles are taken
/// over all of their samples, so a stall inside a used sub-window lowers
/// the rate and lifts the tail as it happens.
///
/// The VM's CPUs are shared: in some seconds the hypervisor runs other
/// guests on them (steal), and every figure of that second degrades. The
/// figures therefore use the sub-windows with at most k_quiet_steal of
/// steal, or, when fewer than half are that quiet, the least-stolen half.
/// Steal comes from outside the program, so this choice does not favour
/// one version of the program over another.
struct WindowSummary {
    double ops_s = 0, mb_s = 0, p50_us = 0, p99_us = 0;
    double mean_us = 0;             ///< over every sample in the window
    double all_p50_us = 0, all_p99_us = 0;
    std::size_t samples = 0, completed = 0, failed = 0, wrong = 0, notfound = 0;
    std::uint64_t bytes = 0;
    std::vector<double> part_ops_s, part_p50_us, part_p99_us, part_steal; ///< per sub-window
    std::vector<std::size_t> parts_used;
};

inline constexpr double k_quiet_steal = 0.01;

/// `steal[i]` is the steal share of sub-window i; its size sets how many
/// sub-windows [begin_ns, end_ns) is cut into.
inline WindowSummary summarize(const std::vector<Sample>& all, std::int64_t begin_ns,
                               std::int64_t end_ns, const std::vector<double>& steal) {
    WindowSummary out;
    const auto parts = static_cast<std::int64_t>(std::max<std::size_t>(1, steal.size()));
    const std::int64_t part_ns = (end_ns - begin_ns) / parts;
    const double part_s = static_cast<double>(part_ns) / 1e9;
    std::vector<std::vector<double>> lat(static_cast<std::size_t>(parts));
    std::vector<double> ops(static_cast<std::size_t>(parts), 0.0);
    std::vector<double> bytes(static_cast<std::size_t>(parts), 0.0);
    std::vector<double> every;
    for (const auto& s : all) {
        if (s.end_ns < begin_ns || s.end_ns >= begin_ns + part_ns * parts) continue;
        auto p = static_cast<std::size_t>((s.end_ns - begin_ns) / part_ns);
        const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
        lat[p].push_back(us); // failed ops count as slow ones, never dropped
        every.push_back(us);
        ++out.samples;
        if (s.outcome & k_failed) ++out.failed;
        if (s.outcome & k_wrong) ++out.wrong;
        if (s.outcome & k_notfound) ++out.notfound;
        if (s.outcome == k_ok) {
            ++out.completed;
            ops[p] += 1;
            bytes[p] += s.bytes;
            out.bytes += s.bytes;
        }
    }
    out.part_steal = steal;
    out.part_steal.resize(static_cast<std::size_t>(parts), 0.0);
    std::vector<std::size_t> order(static_cast<std::size_t>(parts));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
        return out.part_steal[x] < out.part_steal[y];
    });
    std::size_t quiet = 0;
    while (quiet < order.size() && out.part_steal[order[quiet]] <= k_quiet_steal) ++quiet;
    order.resize(std::max(quiet, (order.size() + 1) / 2));
    std::sort(order.begin(), order.end());
    out.parts_used = order;

    for (std::size_t p = 0; p < lat.size(); ++p) {
        out.part_ops_s.push_back(ops[p] / part_s);
        out.part_p50_us.push_back(quantile(lat[p], 0.5));
        out.part_p99_us.push_back(quantile(lat[p], 0.99));
    }
    double used_ops = 0, used_bytes = 0;
    std::vector<double> used_lat;
    for (std::size_t p : order) {
        used_ops += ops[p];
        used_bytes += bytes[p];
        used_lat.insert(used_lat.end(), lat[p].begin(), lat[p].end());
    }
    const double used_s = part_s * static_cast<double>(order.size());
    out.ops_s = used_ops / used_s;
    out.mb_s = used_bytes / used_s / 1e6;
    out.p50_us = quantile(used_lat, 0.5);
    out.p99_us = quantile(used_lat, 0.99);
    out.mean_us = mean(every);
    out.all_p50_us = quantile(every, 0.5);
    out.all_p99_us = quantile(every, 0.99);
    return out;
}

// -- scraped service metrics ---------------------------------------------------

/// The part of a metrics document (margo MetricsRegistry::to_json) the
/// benchmark reads: counters and histogram buckets, summed over nodes.
struct Scrape {
    std::map<std::string, double> counters;
    struct Hist {
        std::vector<double> le;
        std::vector<double> buckets; ///< per-bucket counts; last is +inf
        double sum = 0;
    };
    std::map<std::string, Hist> hists;

    void add(const mochi::json::Value& doc, double sign = 1.0) {
        if (doc["counters"].is_object())
            for (const auto& [name, v] : doc["counters"].as_object())
                counters[name] += sign * v.as_real();
        if (!doc["histograms"].is_object()) return;
        for (const auto& [name, h] : doc["histograms"].as_object()) {
            auto& dst = hists[name];
            const auto& le = h["le"].as_array();
            const auto& buckets = h["buckets"].as_array();
            if (dst.le.empty()) {
                for (const auto& b : le) dst.le.push_back(b.as_real());
                dst.buckets.assign(buckets.size(), 0.0);
            }
            for (std::size_t i = 0; i < buckets.size() && i < dst.buckets.size(); ++i)
                dst.buckets[i] += sign * buckets[i].as_real();
            dst.sum += sign * h["sum"].as_real();
        }
    }

    [[nodiscard]] double counter(const std::string& name) const {
        auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second;
    }

    [[nodiscard]] double count(const std::string& hist) const {
        auto it = hists.find(hist);
        if (it == hists.end()) return 0.0;
        return std::accumulate(it->second.buckets.begin(), it->second.buckets.end(), 0.0);
    }

    [[nodiscard]] double hist_mean(const std::string& hist) const {
        const double n = count(hist);
        return n > 0 ? hists.at(hist).sum / n : 0.0;
    }

    /// Quantile of a histogram delta, interpolated linearly inside the
    /// bucket that holds it (the registry's own quantile returns the bucket
    /// bound, which reads the same on every run).
    [[nodiscard]] double hist_quantile(const std::string& hist, double q) const {
        auto it = hists.find(hist);
        if (it == hists.end()) return 0.0;
        const auto& h = it->second;
        const double n = count(hist);
        if (n <= 0) return 0.0;
        const double rank = q * n;
        double seen = 0;
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
            const double c = h.buckets[i];
            if (c > 0 && seen + c >= rank) {
                const double lo = i == 0 ? 0.0 : h.le[std::min(i - 1, h.le.size() - 1)];
                const double hi = i < h.le.size() ? h.le[i] : lo * 2;
                return lo + (hi - lo) * (rank - seen) / c;
            }
            seen += c;
        }
        return h.le.empty() ? 0.0 : h.le.back();
    }
};

/// Per-node metric documents taken at one instant, keyed by address.
using NodeDocs = std::map<std::string, mochi::json::Value>;

/// Change between two scrapes, summed over nodes. A node present only at
/// the end counts from zero; one present only at the start (it left the
/// service in between) is dropped, so its share of the window is lost.
inline Scrape scrape_delta(const NodeDocs& begin, const NodeDocs& end) {
    Scrape out;
    for (const auto& [addr, doc] : end) {
        out.add(doc);
        if (auto it = begin.find(addr); it != begin.end()) out.add(it->second, -1.0);
    }
    return out;
}

} // namespace perfbench
