#include "yokan/provider.hpp"
#include "bedrock/component.hpp"
#include "common/logging.hpp"

#include <map>

namespace mochi::yokan {

// ---------------------------------------------------------------------------
// Database (client handle)
// ---------------------------------------------------------------------------

Status Database::put(const std::string& key, const std::string& value) const {
    auto r = call<std::uint64_t, bool>("put", send_epoch(), key, value);
    if (!r) return r.error();
    observe(std::get<0>(*r));
    return {};
}

Expected<std::string> Database::get(const std::string& key) const {
    auto r = call<std::uint64_t, std::string>("get", send_epoch(), key);
    if (!r) return std::move(r).error();
    observe(std::get<0>(*r));
    return std::get<1>(std::move(*r));
}

Expected<bool> Database::exists(const std::string& key) const {
    auto r = call<std::uint64_t, bool>("exists", send_epoch(), key);
    if (!r) return std::move(r).error();
    observe(std::get<0>(*r));
    return std::get<1>(*r);
}

Status Database::erase(const std::string& key) const {
    auto r = call<std::uint64_t, bool>("erase", send_epoch(), key);
    if (!r) return r.error();
    observe(std::get<0>(*r));
    return {};
}

Expected<std::uint64_t> Database::count() const {
    auto r = call<std::uint64_t, std::uint64_t>("count", send_epoch());
    if (!r) return std::move(r).error();
    observe(std::get<0>(*r));
    return std::get<1>(*r);
}

Status Database::put_multi(
    const std::vector<std::pair<std::string, std::string>>& pairs) const {
    std::size_t bytes = 0;
    for (const auto& [k, v] : pairs) bytes += k.size() + v.size();
    if (pairs.size() > 1 && bytes >= k_bulk_threshold) {
        // Large batch: the RPC carries only a bulk handle (plus the epoch
        // guard) and the server pulls the packed pairs in one RDMA transfer.
        std::string buffer = mercury::pack(pairs);
        auto handle = instance()->expose(buffer.data(), buffer.size(), /*writable=*/false);
        auto r = call<std::uint64_t, bool>("put_multi_bulk", send_epoch(), handle);
        instance()->unexpose(handle.id);
        if (!r) return r.error();
        observe(std::get<0>(*r));
        return {};
    }
    auto r = call<std::uint64_t, bool>("put_multi", send_epoch(), pairs);
    if (!r) return r.error();
    observe(std::get<0>(*r));
    return {};
}

margo::AsyncRequest Database::put_multi_async(
    const std::vector<std::pair<std::string, std::string>>& pairs) const {
    // Always inline: an async bulk path would have to keep the exposed
    // buffer alive until completion; batches large enough to want RDMA
    // should use the synchronous put_multi.
    return async_call("put_multi", send_epoch(), pairs);
}

margo::AsyncRequest Database::get_multi_async(const std::vector<std::string>& keys) const {
    return async_call("get_multi", send_epoch(), keys);
}

// ---------------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------------

struct Batcher::Inner {
    Database db;
    Options opts;
    std::mutex mutex;
    std::vector<std::pair<std::string, std::string>> queue;
    std::size_t queued_bytes = 0;
    bool timer_armed = false;
    std::vector<margo::AsyncRequest> inflight;
    Stats stats;

    Inner(Database d, Options o) : db(std::move(d)), opts(o) {}

    void flush_locked() {
        if (queue.empty()) return;
        ++stats.batches_sent;
        stats.largest_batch = std::max<std::uint64_t>(stats.largest_batch, queue.size());
        inflight.push_back(db.put_multi_async(queue));
        queue.clear();
        queued_bytes = 0;
    }

    /// Time-threshold flush: armed when the first op of a batch arrives,
    /// fires once, re-armed by the next op. The callback holds only a weak
    /// reference so a destroyed Batcher never sees a late timer.
    void arm_timer_locked(const std::shared_ptr<Inner>& self) {
        if (timer_armed || opts.max_delay.count() <= 0) return;
        timer_armed = true;
        std::weak_ptr<Inner> w = self;
        db.instance()->runtime()->timer().schedule(
            std::chrono::duration_cast<std::chrono::microseconds>(opts.max_delay), [w] {
                if (auto inner = w.lock()) {
                    std::lock_guard lk{inner->mutex};
                    inner->timer_armed = false;
                    inner->flush_locked();
                }
            });
    }
};

Batcher::Batcher(Database db) : Batcher(std::move(db), Options{}) {}

Batcher::Batcher(Database db, Options options)
: m_inner(std::make_shared<Inner>(std::move(db), options)) {}

Batcher::~Batcher() { (void)drain(); }

void Batcher::put(std::string key, std::string value) {
    std::lock_guard lk{m_inner->mutex};
    m_inner->queued_bytes += key.size() + value.size();
    m_inner->queue.emplace_back(std::move(key), std::move(value));
    ++m_inner->stats.ops_enqueued;
    if (m_inner->queue.size() >= m_inner->opts.max_ops ||
        m_inner->queued_bytes >= m_inner->opts.max_bytes)
        m_inner->flush_locked();
    else
        m_inner->arm_timer_locked(m_inner);
}

void Batcher::flush() {
    std::lock_guard lk{m_inner->mutex};
    m_inner->flush_locked();
}

Status Batcher::drain() {
    std::vector<margo::AsyncRequest> pending;
    {
        std::lock_guard lk{m_inner->mutex};
        m_inner->flush_locked();
        pending = std::move(m_inner->inflight);
        m_inner->inflight.clear();
    }
    Status first;
    for (auto& req : pending) {
        auto r = req.wait_unpack<std::uint64_t, bool>();
        if (!r && first.ok()) first = r.error();
        if (r && m_inner->db.epoch_context())
            m_inner->db.epoch_context()->observe(std::get<0>(*r));
    }
    return first;
}

Batcher::Stats Batcher::stats() const {
    std::lock_guard lk{m_inner->mutex};
    return m_inner->stats;
}

Expected<std::vector<std::optional<std::string>>>
Database::get_multi(const std::vector<std::string>& keys) const {
    auto r = call<std::uint64_t, std::vector<std::optional<std::string>>>("get_multi",
                                                                          send_epoch(), keys);
    if (!r) return std::move(r).error();
    observe(std::get<0>(*r));
    return std::get<1>(std::move(*r));
}

Expected<std::uint64_t> Database::erase_multi(const std::vector<std::string>& keys) const {
    auto r = call<std::uint64_t, std::uint64_t>("erase_multi", send_epoch(), keys);
    if (!r) return std::move(r).error();
    observe(std::get<0>(*r));
    return std::get<1>(*r);
}

Expected<std::vector<std::string>> Database::list_keys(const std::string& from,
                                                       const std::string& prefix,
                                                       std::uint64_t max) const {
    auto r = call<std::uint64_t, std::vector<std::string>>("list_keys", send_epoch(), from,
                                                           prefix, max);
    if (!r) return std::move(r).error();
    observe(std::get<0>(*r));
    return std::get<1>(std::move(*r));
}

Expected<std::vector<std::pair<std::string, std::string>>>
Database::list_keyvals(const std::string& from, const std::string& prefix,
                       std::uint64_t max) const {
    auto r = call<std::uint64_t, std::vector<std::pair<std::string, std::string>>>(
        "list_keyvals", send_epoch(), from, prefix, max);
    if (!r) return std::move(r).error();
    observe(std::get<0>(*r));
    return std::get<1>(std::move(*r));
}

Expected<std::uint64_t> Database::size_bytes() const {
    auto r = call<std::uint64_t, std::uint64_t>("size_bytes", send_epoch());
    if (!r) return std::move(r).error();
    observe(std::get<0>(*r));
    return std::get<1>(*r);
}

Status Database::update_epoch(std::uint64_t epoch, const std::string& layout_blob) const {
    auto r = call<bool>("update_epoch", epoch, layout_blob);
    if (!r) return r.error();
    return {};
}

Expected<std::uint64_t> Database::extract_range(std::uint64_t begin, std::uint64_t end,
                                                const std::string& dest_root,
                                                const std::string& file_prefix,
                                                const std::string& dest_address,
                                                const std::string& method,
                                                std::uint16_t remi_provider_id) const {
    // Extraction serializes + migrates a key range; give it far more rope
    // than a point lookup.
    auto r = call_with_timeout<std::uint64_t>("extract_range", std::chrono::milliseconds(60000),
                                              begin, end, dest_root, file_prefix, dest_address,
                                              method, std::uint32_t{remi_provider_id});
    if (!r) return std::move(r).error();
    return std::get<0>(*r);
}

Expected<std::uint64_t> Database::erase_range(std::uint64_t begin, std::uint64_t end) const {
    auto r = call_with_timeout<std::uint64_t>("erase_range", std::chrono::milliseconds(60000),
                                              begin, end);
    if (!r) return std::move(r).error();
    return std::get<0>(*r);
}

Expected<std::uint64_t> Database::absorb(const std::string& file_prefix) const {
    auto r = call_with_timeout<std::uint64_t>("absorb", std::chrono::milliseconds(60000),
                                              file_prefix);
    if (!r) return std::move(r).error();
    return std::get<0>(*r);
}

// ---------------------------------------------------------------------------
// ProviderConfig
// ---------------------------------------------------------------------------

Expected<ProviderConfig> ProviderConfig::from_json(const json::Value& config) {
    ProviderConfig out;
    if (config.is_null()) return out;
    if (!config.is_object())
        return Error{Error::Code::InvalidArgument, "yokan config must be an object"};
    out.db_name = config.get_string("name", config.get_string("db_name", "db"));
    out.backend = config.get_string("backend", "map");
    if (config.contains("targets")) {
        if (!config["targets"].is_array())
            return Error{Error::Code::InvalidArgument, "yokan 'targets' must be an array"};
        for (const auto& t : config["targets"].as_array()) {
            if (!t.is_string())
                return Error{Error::Code::InvalidArgument, "yokan targets must be strings"};
            out.targets.push_back(t.as_string());
        }
    }
    return out;
}

json::Value ProviderConfig::to_json() const {
    auto c = json::Value::object();
    c["name"] = db_name;
    c["backend"] = backend;
    if (!targets.empty()) {
        c["targets"] = json::Value::array();
        for (const auto& t : targets) c["targets"].push_back(t);
    }
    return c;
}

// ---------------------------------------------------------------------------
// Provider
// ---------------------------------------------------------------------------

namespace {

/// Live providers per margo instance, so SSG payload dissemination can apply
/// an epoch update to every local shard without naming them individually.
std::mutex g_provider_registry_mutex;
std::multimap<const margo::Instance*, Provider*> g_provider_registry;

/// Per-provider counter name: "yokan_provider_<id><suffix>".
std::string shard_counter_name(std::uint16_t provider_id, const char* suffix) {
    return "yokan_provider_" + std::to_string(provider_id) + suffix;
}

/// [begin, end) membership on the ring; end == 0 encodes 2^64.
bool hash_in_range(std::uint64_t h, std::uint64_t begin, std::uint64_t end) noexcept {
    return h >= begin && (end == 0 || h < end);
}

} // namespace

void apply_epoch_update(const margo::InstancePtr& instance, std::uint64_t epoch,
                        const std::string& layout_blob) {
    std::lock_guard lk{g_provider_registry_mutex};
    auto [lo, hi] = g_provider_registry.equal_range(instance.get());
    for (auto it = lo; it != hi; ++it) it->second->set_epoch(epoch, layout_blob);
}

Provider::Provider(margo::InstancePtr instance, std::uint16_t provider_id,
                   ProviderConfig config, std::shared_ptr<abt::Pool> pool)
: margo::Provider(std::move(instance), provider_id, "yokan", std::move(pool)),
  m_config(std::move(config)),
  m_puts(this->instance()->metrics()->counter("yokan_puts_total")),
  m_gets(this->instance()->metrics()->counter("yokan_gets_total")),
  m_stale_total(this->instance()->metrics()->counter("yokan_stale_epoch_rejections_total")),
  m_ops(this->instance()->metrics()->counter(shard_counter_name(provider_id, "_ops_total"))),
  m_stale(this->instance()->metrics()->counter(
      shard_counter_name(provider_id, "_stale_rejections_total"))) {
    if (m_config.targets.empty()) {
        auto backend = Backend::create(m_config.backend);
        assert(backend.has_value());
        m_backend = std::move(backend).value();
        // Re-attach to migrated/persisted data if present (the provider
        // instantiated on a migration destination finds its files here).
        auto store = remi::SimFileStore::for_node(this->instance()->address());
        if (!store->list(root()).empty()) (void)load_from_store(*store);
    } else {
        // Virtual database (§7 Obs. 10): clients are unaware the provider
        // holds no data; it fans out to replicas.
        for (const auto& spec : m_config.targets) {
            auto dep = bedrock::parse_dependency(spec);
            assert(dep.has_value() && !dep->is_local());
            m_replicas.emplace_back(this->instance(), dep->address, dep->provider_id);
        }
    }
    define_rpcs();
    std::lock_guard lk{g_provider_registry_mutex};
    g_provider_registry.emplace(this->instance().get(), this);
}

Provider::~Provider() {
    {
        std::lock_guard lk{g_provider_registry_mutex};
        auto [lo, hi] = g_provider_registry.equal_range(instance().get());
        for (auto it = lo; it != hi; ++it) {
            if (it->second == this) {
                g_provider_registry.erase(it);
                break;
            }
        }
    }
    deregister_all();
}

void Provider::set_epoch(std::uint64_t epoch, std::string layout_blob) {
    std::lock_guard lk{m_epoch_mutex};
    if (epoch <= m_epoch.load(std::memory_order_relaxed)) return;
    m_layout_blob = std::move(layout_blob);
    m_epoch.store(epoch, std::memory_order_release);
}

bool Provider::check_epoch(const margo::Request& req, std::uint64_t req_epoch) const {
    // Epoch 0 on either side disables the guard (unguarded clients, or a
    // provider outside any elastic layout).
    auto cur = m_epoch.load(std::memory_order_acquire);
    if (req_epoch == 0 || cur == 0 || req_epoch >= cur) return true;
    std::string blob;
    {
        std::lock_guard lk{m_epoch_mutex};
        if (m_layout_blob.size() <= k_epoch_piggyback_limit) blob = m_layout_blob;
        cur = m_epoch.load(std::memory_order_relaxed);
    }
    m_stale_total.inc();
    m_stale.inc();
    req.respond_error(make_stale_epoch_error(cur, blob));
    return false;
}

template <typename... Args, typename F>
void Provider::define_data_op(const std::string& op, F fn) {
    define<std::uint64_t, Args...>(
        op, [this, fn = std::move(fn)](const margo::Request& req, std::uint64_t epoch,
                                       Args&... args) {
            if (!check_epoch(req, epoch)) return;
            if (!admit(req)) return;
            fn(req, args...);
        });
}

template <typename Op>
void Provider::respond_from_replicas(const margo::Request& req, Op op) const {
    for (const auto& replica : m_replicas) {
        if (auto r = op(replica)) {
            req.respond_values(epoch(), *r);
            return;
        }
    }
    req.respond_error(Error{Error::Code::Unreachable, "no replica reachable"});
}

void Provider::define_rpcs() {
    // Scalar-op handlers decode their key as a zero-copy view of the request
    // payload (the Request owns the payload for the handler's lifetime), so
    // the common lookup path never copies the key. Every data RPC leads with
    // the sender's epoch and every reply with the provider's (the elastic
    // service's piggybacked invalidation).
    define_data_op<std::string_view, std::string>(
        "put", [this](const margo::Request& req, std::string_view key, std::string& value) {
            m_puts.inc();
            m_ops.inc();
            Status st = m_backend ? m_backend->put(key, std::move(value))
                                  : virtual_put(key, value);
            if (!st.ok())
                req.respond_error(st.error());
            else
                req.respond_values(epoch(), true);
        });
    define_data_op<std::string_view>(
        "get", [this](const margo::Request& req, std::string_view key) {
            m_gets.inc();
            m_ops.inc();
            auto r = m_backend ? m_backend->get(key) : virtual_get(key);
            if (!r)
                req.respond_error(r.error());
            else
                req.respond_values(epoch(), *r);
        });
    define_data_op<std::string_view>(
        "exists", [this](const margo::Request& req, std::string_view key) {
            if (m_backend) {
                req.respond_values(epoch(), m_backend->exists(key));
                return;
            }
            auto r = virtual_get(key);
            req.respond_values(epoch(), r.has_value());
        });
    define_data_op<std::string_view>(
        "erase", [this](const margo::Request& req, std::string_view key) {
            Status st;
            if (m_backend) {
                st = m_backend->erase(key);
            } else {
                std::string owned{key};
                for (const auto& replica : m_replicas) {
                    auto rs = replica.erase(owned);
                    if (!rs.ok()) st = rs; // report last failure; best effort
                }
            }
            if (!st.ok())
                req.respond_error(st.error());
            else
                req.respond_values(epoch(), true);
        });
    define_data_op<>("count", [this](const margo::Request& req) {
        if (m_backend) {
            req.respond_values(epoch(), static_cast<std::uint64_t>(m_backend->count()));
            return;
        }
        respond_from_replicas(req, [](const Database& replica) { return replica.count(); });
    });
    // Keys decode as views into the inline payload; values are owned (they
    // are moved into the backend).
    define_data_op<std::vector<std::pair<std::string_view, std::string>>>(
        "put_multi", [this](const margo::Request& req, auto& pairs) {
            handle_put_multi(req, std::move(pairs));
        });
    define<std::uint64_t, mercury::BulkHandle>(
        "put_multi_bulk",
        [this](const margo::Request& req, std::uint64_t epoch,
               const mercury::BulkHandle& handle) {
            // Large batches: the request carries only a bulk handle; one RDMA
            // pull fetches the packed pairs, then execution is identical to
            // the inline path.
            if (!check_epoch(req, epoch)) return;
            // Byte quota is charged on the bulk transfer size, not the tiny
            // inline payload that merely carries the handle.
            if (!admit(req, handle.size)) return;
            auto buffer = instance()->bulk_pull_all(handle);
            if (!buffer) {
                req.respond_error(buffer.error());
                return;
            }
            // Key views alias `buffer`, which outlives the (synchronous)
            // handle_put_multi call below.
            std::vector<std::pair<std::string_view, std::string>> pairs;
            if (!mercury::unpack(*buffer, pairs)) {
                req.respond_error(Error{Error::Code::Corruption, "corrupt bulk batch"});
                return;
            }
            handle_put_multi(req, std::move(pairs));
        });
    define_data_op<std::vector<std::string_view>>(
        "get_multi", [this](const margo::Request& req, const auto& keys) {
            if (!m_backend) {
                // Virtual database: hand the whole batch to the first replica
                // that answers instead of paying one RPC per key.
                std::vector<std::string> owned(keys.begin(), keys.end());
                respond_from_replicas(
                    req, [&](const Database& replica) { return replica.get_multi(owned); });
                return;
            }
            // Vectored execution: slices of the batch run on handler-pool ULTs
            // (the backend is internally synchronized), each op reporting its
            // own span/metric before the single reply.
            std::vector<std::optional<std::string>> values(keys.size());
            parallel_for(keys.size(), [&](std::size_t i) {
                double t0 = margo::trace_now_us();
                auto r = m_backend->get(keys[i]);
                m_gets.inc();
                m_ops.inc();
                instance()->notify_batch_op("yokan/get", keys[i].size(),
                                            margo::trace_now_us() - t0, r.has_value());
                if (r) values[i].emplace(std::move(*r));
            });
            req.respond_values(epoch(), values);
        });
    define_data_op<std::string_view, std::string_view, std::uint64_t>(
        "list_keys", [this](const margo::Request& req, std::string_view from,
                            std::string_view prefix, std::uint64_t max) {
            if (m_backend) {
                req.respond_values(epoch(), m_backend->list_keys(from, prefix, max));
                return;
            }
            respond_from_replicas(req, [&](const Database& replica) {
                return replica.list_keys(std::string(from), std::string(prefix), max);
            });
        });
    define_data_op<std::vector<std::string_view>>(
        "erase_multi", [this](const margo::Request& req, const auto& keys) {
            std::uint64_t erased = 0;
            for (const auto& k : keys) {
                Status st;
                if (m_backend) {
                    st = m_backend->erase(k);
                } else {
                    std::string owned{k};
                    for (const auto& replica : m_replicas) {
                        auto rs = replica.erase(owned);
                        if (!rs.ok()) st = rs;
                    }
                }
                if (st.ok()) ++erased;
            }
            req.respond_values(epoch(), erased);
        });
    define_data_op<std::string_view, std::string_view, std::uint64_t>(
        "list_keyvals", [this](const margo::Request& req, std::string_view from,
                               std::string_view prefix, std::uint64_t max) {
            if (m_backend) {
                std::vector<std::pair<std::string, std::string>> out;
                for (auto& key : m_backend->list_keys(from, prefix, max)) {
                    auto v = m_backend->get(key);
                    if (v) out.emplace_back(std::move(key), std::move(*v));
                }
                req.respond_values(epoch(), out);
                return;
            }
            respond_from_replicas(req, [&](const Database& replica) {
                return replica.list_keyvals(std::string(from), std::string(prefix), max);
            });
        });
    define_data_op<>("size_bytes", [this](const margo::Request& req) {
        if (m_backend) {
            req.respond_values(epoch(), static_cast<std::uint64_t>(m_backend->size_bytes()));
            return;
        }
        respond_from_replicas(req,
                              [](const Database& replica) { return replica.size_bytes(); });
    });
    // -- control plane (no epoch guard: the controller is the authority) ------
    define<std::uint64_t, std::string>(
        "update_epoch",
        [this](const margo::Request& req, std::uint64_t epoch, std::string& blob) {
            set_epoch(epoch, std::move(blob));
            req.respond_values(true);
        });
    define<std::uint64_t, std::uint64_t, std::string, std::string, std::string, std::string,
           std::uint32_t>(
        "extract_range",
        [this](const margo::Request& req, std::uint64_t begin, std::uint64_t end,
               const std::string& dest_root, const std::string& file_prefix,
               const std::string& dest_address, const std::string& method,
               std::uint32_t remi_id) {
            auto options = json::Value::object();
            options["method"] = method;
            options["remi_provider_id"] = static_cast<std::int64_t>(remi_id);
            auto r = extract_range(begin, end, dest_root, file_prefix, dest_address, options);
            if (!r)
                req.respond_error(r.error());
            else
                req.respond_values(*r);
        });
    define<std::uint64_t, std::uint64_t>(
        "erase_range",
        [this](const margo::Request& req, std::uint64_t begin, std::uint64_t end) {
            auto r = erase_range(begin, end);
            if (!r)
                req.respond_error(r.error());
            else
                req.respond_values(*r);
        });
    define<std::string>("absorb", [this](const margo::Request& req, const std::string& prefix) {
        auto r = absorb(prefix);
        if (!r)
            req.respond_error(r.error());
        else
            req.respond_values(*r);
    });
}

void Provider::handle_put_multi(const margo::Request& req,
                                std::vector<std::pair<std::string_view, std::string>>&& pairs) {
    if (!m_backend) {
        // Virtual database: forward the whole batch to every replica (one
        // RPC per replica, not one per pair). The client API owns its
        // strings, so materialize the key views once for all replicas.
        std::vector<std::pair<std::string, std::string>> owned;
        owned.reserve(pairs.size());
        for (auto& [k, v] : pairs) owned.emplace_back(std::string(k), std::move(v));
        for (const auto& replica : m_replicas) {
            if (auto st = replica.put_multi(owned); !st.ok()) {
                req.respond_error(st.error());
                return;
            }
        }
        m_puts.inc(pairs.size());
        m_ops.inc(pairs.size());
        req.respond_values(this->epoch(), true);
        return;
    }
    // Vectored execution across the handler pool's ULTs; every op keeps its
    // own trace span and metric count even though the fabric saw one RPC.
    std::vector<Status> results(pairs.size());
    parallel_for(pairs.size(), [&](std::size_t i) {
        auto& [k, v] = pairs[i];
        double t0 = margo::trace_now_us();
        std::size_t bytes = k.size() + v.size();
        Status st = m_backend->put(k, std::move(v));
        m_puts.inc();
        m_ops.inc();
        instance()->notify_batch_op("yokan/put", bytes, margo::trace_now_us() - t0, st.ok());
        results[i] = std::move(st);
    });
    for (auto& st : results) {
        if (!st.ok()) {
            req.respond_error(st.error());
            return;
        }
    }
    req.respond_values(this->epoch(), true);
}

Status Provider::virtual_put(std::string_view key, const std::string& value) {
    // All replicas must accept the write (N-way replication).
    std::string owned{key};
    for (const auto& replica : m_replicas) {
        if (auto st = replica.put(owned, value); !st.ok()) return st;
    }
    return {};
}

Expected<std::string> Provider::virtual_get(std::string_view key) const {
    Error last{Error::Code::Unreachable, "no replica reachable"};
    std::string owned{key};
    for (const auto& replica : m_replicas) {
        auto r = replica.get(owned);
        if (r) return r;
        last = r.error();
        if (last.code == Error::Code::NotFound) return last; // authoritative
    }
    return last;
}

json::Value Provider::get_config() const { return m_config.to_json(); }

// ---------------------------------------------------------------------------
// Dump / load / migrate / checkpoint
// ---------------------------------------------------------------------------

namespace {

std::string serialize_bundle(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
    return mercury::pack(pairs);
}

} // namespace

Status Provider::dump_to_store(remi::SimFileStore& store) const {
    if (!m_backend)
        return Error{Error::Code::InvalidState, "virtual databases hold no data to dump"};
    store.remove_prefix(root());
    std::vector<std::pair<std::string, std::string>> bundle;
    std::size_t file_index = 0;
    Status result;
    auto flush = [&] {
        if (bundle.empty() || !result.ok()) return;
        char name[32];
        std::snprintf(name, sizeof name, "part-%06zu", file_index++);
        result = store.write(root() + name, serialize_bundle(bundle));
        bundle.clear();
    };
    m_backend->for_each([&](const std::string& k, const std::string& v) {
        bundle.emplace_back(k, v);
        if (bundle.size() >= k_pairs_per_file) flush();
    });
    flush();
    return result;
}

Status Provider::load_from_store(remi::SimFileStore& store) {
    if (!m_backend)
        return Error{Error::Code::InvalidState, "virtual databases hold no data to load"};
    m_backend->clear();
    for (const auto& path : store.list(root())) {
        auto data = store.read(path);
        if (!data) return data.error();
        std::vector<std::pair<std::string, std::string>> bundle;
        if (!mercury::unpack(*data, bundle))
            return Error{Error::Code::Corruption, "corrupt database file " + path};
        for (auto& [k, v] : bundle) {
            if (auto st = m_backend->put(k, std::move(v)); !st.ok()) return st;
        }
    }
    return {};
}

Status Provider::migrate_data(const std::string& dest_address, const json::Value& options) {
    if (!m_backend)
        return Error{Error::Code::InvalidState, "virtual databases do not migrate"};
    auto store = remi::SimFileStore::for_node(instance()->address());
    if (auto st = dump_to_store(*store); !st.ok()) return st;
    remi::MigrationOptions mopts;
    if (options.get_string("method", "rdma") == "chunks") mopts.method = remi::Method::Chunks;
    if (auto cs = options.get_integer("chunk_size", 0); cs > 0)
        mopts.chunk_size = static_cast<std::size_t>(cs);
    auto remi_id = static_cast<std::uint16_t>(
        options.get_integer("remi_provider_id", k_default_remi_provider_id));
    auto fileset = remi::Fileset::scan(*store, root());
    auto stats = remi::migrate(instance(), store, fileset, dest_address, remi_id, mopts);
    if (!stats) return stats.error();
    log::info("yokan", "migrated db '%s' (%zu files, %zu bytes) to %s",
              m_config.db_name.c_str(), stats->files, stats->bytes, dest_address.c_str());
    return {};
}

Expected<std::uint64_t> Provider::extract_range(std::uint64_t begin, std::uint64_t end,
                                                const std::string& dest_root,
                                                const std::string& file_prefix,
                                                const std::string& dest_address,
                                                const json::Value& options) {
    if (!m_backend)
        return Error{Error::Code::InvalidState, "virtual databases do not split"};
    auto store = remi::SimFileStore::for_node(instance()->address());
    const std::string staging = dest_root + file_prefix;
    store->remove_prefix(staging); // drop leftovers of an aborted attempt
    // Stage the affected pairs into bundle files. The live catalogue is NOT
    // modified: the split protocol copies first, flips the layout, and only
    // then erases (erase_range), so concurrent readers never miss.
    std::vector<std::pair<std::string, std::string>> bundle;
    std::uint64_t moved = 0;
    std::size_t file_index = 0;
    Status result;
    auto flush = [&] {
        if (bundle.empty() || !result.ok()) return;
        char name[32];
        std::snprintf(name, sizeof name, "-%06zu", file_index++);
        result = store->write(staging + name, serialize_bundle(bundle));
        bundle.clear();
    };
    m_backend->for_each([&](const std::string& k, const std::string& v) {
        if (!hash_in_range(common::fnv1a64(k), begin, end)) return;
        bundle.emplace_back(k, v);
        ++moved;
        if (bundle.size() >= k_pairs_per_file) flush();
    });
    flush();
    if (!result.ok()) return result.error();
    if (dest_address == instance()->address()) return moved; // files already home
    remi::MigrationOptions mopts;
    if (options.get_string("method", "rdma") == "chunks") mopts.method = remi::Method::Chunks;
    if (auto cs = options.get_integer("chunk_size", 0); cs > 0)
        mopts.chunk_size = static_cast<std::size_t>(cs);
    auto remi_id = static_cast<std::uint16_t>(
        options.get_integer("remi_provider_id", k_default_remi_provider_id));
    auto fileset = remi::Fileset::scan(*store, staging);
    auto stats = remi::migrate(instance(), store, fileset, dest_address, remi_id, mopts);
    if (!stats) return stats.error();
    log::info("yokan", "extracted %llu pairs of db '%s' to %s (%zu files, %zu bytes)",
              static_cast<unsigned long long>(moved), m_config.db_name.c_str(),
              dest_address.c_str(), stats->files, stats->bytes);
    return moved;
}

Expected<std::uint64_t> Provider::erase_range(std::uint64_t begin, std::uint64_t end) {
    if (!m_backend)
        return Error{Error::Code::InvalidState, "virtual databases do not split"};
    std::vector<std::string> doomed;
    m_backend->for_each([&](const std::string& k, const std::string&) {
        if (hash_in_range(common::fnv1a64(k), begin, end)) doomed.push_back(k);
    });
    for (const auto& k : doomed) (void)m_backend->erase(k);
    return static_cast<std::uint64_t>(doomed.size());
}

Expected<std::uint64_t> Provider::absorb(const std::string& file_prefix) {
    if (!m_backend)
        return Error{Error::Code::InvalidState, "virtual databases do not merge"};
    auto store = remi::SimFileStore::for_node(instance()->address());
    std::uint64_t absorbed = 0;
    for (const auto& path : store->list(root() + file_prefix)) {
        auto data = store->read(path);
        if (!data) return data.error();
        std::vector<std::pair<std::string, std::string>> bundle;
        if (!mercury::unpack(*data, bundle))
            return Error{Error::Code::Corruption, "corrupt staged file " + path};
        for (auto& [k, v] : bundle) {
            // Put-if-absent: staged bundles hold a range frozen *before* the
            // layout flip, while keys already present here arrived after it
            // — the local copy is newer by protocol and must win.
            if (m_backend->exists(k)) continue;
            if (auto st = m_backend->put(k, std::move(v)); !st.ok()) return st.error();
            ++absorbed;
        }
    }
    store->remove_prefix(root() + file_prefix);
    return absorbed;
}

Status Provider::checkpoint_data(const std::string& path) const {
    if (!m_backend)
        return Error{Error::Code::InvalidState, "virtual databases do not checkpoint"};
    std::vector<std::pair<std::string, std::string>> pairs;
    m_backend->for_each(
        [&](const std::string& k, const std::string& v) { pairs.emplace_back(k, v); });
    return remi::SimFileStore::pfs()->write(path, serialize_bundle(pairs));
}

Status Provider::restore_data(const std::string& path) {
    if (!m_backend)
        return Error{Error::Code::InvalidState, "virtual databases do not restore"};
    auto data = remi::SimFileStore::pfs()->read(path);
    if (!data) return data.error();
    std::vector<std::pair<std::string, std::string>> pairs;
    if (!mercury::unpack(*data, pairs))
        return Error{Error::Code::Corruption, "corrupt checkpoint at " + path};
    m_backend->clear();
    for (auto& [k, v] : pairs) {
        if (auto st = m_backend->put(k, std::move(v)); !st.ok()) return st;
    }
    return {};
}

// ---------------------------------------------------------------------------
// Bedrock module
// ---------------------------------------------------------------------------

namespace {

/// Adapts a Provider to Bedrock's ComponentInstance contract (the function-
/// pointer table of Listing 3 + the migrate/checkpoint/restore hooks).
class YokanComponent : public bedrock::ComponentInstance {
  public:
    explicit YokanComponent(const bedrock::ComponentArgs& args, ProviderConfig config)
    : m_provider(args.instance, args.provider_id, std::move(config), args.pool) {
        auto it = args.dependencies.find("remi");
        if (it != args.dependencies.end() && !it->second.empty())
            m_remi_provider_id = it->second.front().provider_id;
    }

    json::Value get_config() const override { return m_provider.get_config(); }

    Status migrate(const std::string& dest_address, std::uint16_t,
                   const json::Value& options) override {
        json::Value opts = options.is_null() ? json::Value::object() : options;
        if (m_remi_provider_id && !opts.contains("remi_provider_id"))
            opts["remi_provider_id"] = static_cast<std::int64_t>(*m_remi_provider_id);
        return m_provider.migrate_data(dest_address, opts);
    }
    Status checkpoint(const std::string& path) override {
        return m_provider.checkpoint_data(path);
    }
    Status restore(const std::string& path) override { return m_provider.restore_data(path); }

  private:
    Provider m_provider;
    std::optional<std::uint16_t> m_remi_provider_id;
};

} // namespace

void register_module() {
    bedrock::ModuleDefinition module;
    module.type = "yokan";
    // §6 Obs. 5: "components can declare a dependency on a REMI provider to
    // be able to carry out such a migration".
    module.dependency_specs.push_back({"remi", "remi", /*required=*/false, false});
    module.factory = [](const bedrock::ComponentArgs& args)
        -> Expected<std::unique_ptr<bedrock::ComponentInstance>> {
        auto config = ProviderConfig::from_json(args.config);
        if (!config) return config.error();
        return std::unique_ptr<bedrock::ComponentInstance>(
            new YokanComponent(args, std::move(*config)));
    };
    bedrock::ModuleRegistry::provide("libyokan.so", std::move(module));
}

} // namespace mochi::yokan
