#include "composed/autoscaler.hpp"
#include "common/logging.hpp"

#include <numeric>

namespace mochi::composed {

Expected<std::shared_ptr<PoolAutoscaler>> PoolAutoscaler::attach(margo::InstancePtr instance,
                                                                 AutoscalerConfig config) {
    if (config.min_xstreams == 0 || config.min_xstreams > config.max_xstreams)
        return Error{Error::Code::InvalidArgument, "invalid xstream bounds"};
    if (auto pool = instance->find_pool_by_name(config.pool); !pool) return pool.error();
    auto scaler =
        std::shared_ptr<PoolAutoscaler>(new PoolAutoscaler(instance.get(), std::move(config)));
    instance->add_monitor(scaler);
    return scaler;
}

void PoolAutoscaler::on_progress_sample(std::size_t,
                                        const std::map<std::string, std::size_t>& pool_sizes) {
    if (!m_enabled.load()) return;
    auto it = pool_sizes.find(m_config.pool);
    if (it == pool_sizes.end()) return;
    double avg = 0;
    bool ready = false;
    {
        std::lock_guard lk{m_mutex};
        m_samples.push_back(static_cast<double>(it->second));
        if (m_samples.size() > m_config.window) m_samples.pop_front();
        if (m_cooldown > 0) {
            --m_cooldown;
            return;
        }
        if (m_samples.size() < m_config.window) return;
        avg = std::accumulate(m_samples.begin(), m_samples.end(), 0.0) /
              static_cast<double>(m_samples.size());
        ready = true;
    }
    // The sampler runs on the timer thread, and remove_xstream joins the
    // victim's OS thread — which could be the very ES a decision ULT runs
    // on. A separate thread sidesteps both hazards (decisions are rare),
    // but it must be *tracked*: a detached thread could call into the
    // instance after finalize started. on_shutdown() joins it while the
    // runtime is still alive, and no new decision starts once m_shutdown
    // is set.
    if (ready) {
        std::lock_guard tlk{m_thread_mutex};
        if (m_shutdown) return;
        if (m_decision.joinable()) m_decision.join();
        m_decision = std::thread([this, avg] { decide(avg); });
    }
}

void PoolAutoscaler::on_shutdown() {
    m_enabled.store(false);
    std::thread pending;
    {
        std::lock_guard tlk{m_thread_mutex};
        m_shutdown = true;
        pending = std::move(m_decision);
    }
    if (pending.joinable()) pending.join();
}

PoolAutoscaler::~PoolAutoscaler() { on_shutdown(); }

void PoolAutoscaler::decide(double avg_depth) {
    if (!m_enabled.load()) return;
    std::lock_guard lk{m_mutex};
    // Count the ESs currently serving the pool (managed or configured).
    auto pool = m_instance->find_pool_by_name(m_config.pool);
    if (!pool) return;
    std::size_t serving = (*pool)->subscriber_count();
    if (avg_depth > m_config.high_watermark && serving < m_config.max_xstreams) {
        auto es = json::Value::object();
        // m_name_seq only ever grows: even if a past remove_xstream failed
        // and its ES is still alive, a new scale-up never reuses its name.
        es["name"] = m_config.pool + "_auto" + std::to_string(m_name_seq++);
        es["scheduler"]["pools"].push_back(m_config.pool);
        if (m_instance->add_xstream_from_json(es).ok()) {
            m_managed_names.push_back(es["name"].as_string());
            m_managed.store(m_managed_names.size());
            m_scale_ups.fetch_add(1);
            m_cooldown = m_config.cooldown_samples;
            m_samples.clear();
            log::info("autoscaler", "pool '%s': queue avg %.1f -> added %s",
                      m_config.pool.c_str(), avg_depth, es["name"].as_string().c_str());
        }
    } else if (avg_depth < m_config.low_watermark && !m_managed_names.empty() &&
               serving > m_config.min_xstreams) {
        const std::string& name = m_managed_names.back();
        if (m_instance->remove_xstream(name).ok()) {
            log::info("autoscaler", "pool '%s': queue avg %.1f -> removed %s",
                      m_config.pool.c_str(), avg_depth, name.c_str());
            m_managed_names.pop_back();
            m_managed.store(m_managed_names.size());
            m_scale_downs.fetch_add(1);
            m_cooldown = m_config.cooldown_samples;
            m_samples.clear();
        }
    }
}

} // namespace mochi::composed
