// PoolAutoscaler: closes the loop the paper's requirements chain implies —
// "performance introspection ... provides the empirical data necessary for
// informed decisions about changes made to the service" (§2.3), and §5's
// online reconfiguration is the actuator. The autoscaler watches one pool's
// queue depth through a Margo monitor (the §4 periodic sampler) and adds or
// removes execution streams serving that pool within configured bounds —
// the process-local analogue of the workflow-level elasticity §8.1 surveys.
#pragma once

#include "margo/instance.hpp"

#include <deque>
#include <thread>
#include <vector>

namespace mochi::composed {

struct AutoscalerConfig {
    std::string pool;                ///< pool whose depth drives decisions
    std::size_t min_xstreams = 1;
    std::size_t max_xstreams = 4;
    double high_watermark = 8.0;     ///< avg queued ULTs that triggers scale-up
    double low_watermark = 0.5;      ///< avg below which an ES is retired
    std::size_t window = 8;          ///< samples averaged per decision
    std::size_t cooldown_samples = 8; ///< samples to wait between decisions
};

class PoolAutoscaler : public margo::Monitor,
                       public std::enable_shared_from_this<PoolAutoscaler> {
  public:
    /// Create and install on `instance` (which must sample periodically —
    /// see the "monitoring.sampling_period_ms" margo config). The pool must
    /// exist; ESs named "<pool>_auto<N>" are managed by the autoscaler.
    static Expected<std::shared_ptr<PoolAutoscaler>> attach(margo::InstancePtr instance,
                                                            AutoscalerConfig config);

    ~PoolAutoscaler() override;

    void on_progress_sample(std::size_t in_flight,
                            const std::map<std::string, std::size_t>& pool_sizes) override;

    /// Quiesce: no new decisions, and any in-flight decision is joined
    /// before the instance tears the ULT runtime down.
    void on_shutdown() override;

    [[nodiscard]] std::size_t scale_ups() const noexcept { return m_scale_ups.load(); }
    [[nodiscard]] std::size_t scale_downs() const noexcept { return m_scale_downs.load(); }
    [[nodiscard]] std::size_t managed_xstreams() const noexcept { return m_managed.load(); }

    /// Stop making decisions (the monitor stays installed but inert).
    void disable() noexcept { m_enabled.store(false); }

  private:
    explicit PoolAutoscaler(margo::Instance* instance, AutoscalerConfig config)
    : m_instance(instance), m_config(std::move(config)) {}
    void decide(double avg_depth);

    /// Not owning: the instance owns this monitor (a shared_ptr back would
    /// be a cycle that leaks both), and its shutdown joins any decision in
    /// flight (on_shutdown) before the instance can go away.
    margo::Instance* m_instance;
    AutoscalerConfig m_config;
    std::mutex m_mutex;
    std::deque<double> m_samples;
    std::size_t m_cooldown = 0;
    /// Names of the ESs this autoscaler created, in creation order. The
    /// authoritative record: scale-down retires the most recent entry, and
    /// a failed remove_xstream leaves the list (and thus future victim
    /// selection) untouched instead of desynchronizing a counter.
    std::vector<std::string> m_managed_names;
    /// Monotonic suffix for generated ES names — never reused, so a
    /// remove_xstream failure cannot make a later scale-up collide with the
    /// still-live ES of the same name.
    std::size_t m_name_seq = 0;
    std::atomic<std::size_t> m_managed{0};
    std::atomic<std::size_t> m_scale_ups{0};
    std::atomic<std::size_t> m_scale_downs{0};
    std::atomic<bool> m_enabled{true};
    /// Decision-thread tracking (separate from m_mutex: decide() takes
    /// m_mutex, so joining under it would deadlock).
    std::mutex m_thread_mutex;
    std::thread m_decision;
    bool m_shutdown = false;
};

} // namespace mochi::composed
