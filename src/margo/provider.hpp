// Figure 1 anatomy helpers: the server-library Provider base (registers RPC
// callbacks, forwards them to a Resource, configured from JSON) and the
// client-library ResourceHandle base (maps to a remote resource by
// encapsulating address + provider id).
//
// Concrete Mochi components (Yokan, Warabi, REMI, ...) derive from these.
#pragma once

#include "margo/instance.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

namespace mochi::margo {

/// Base class for component providers. RPC names are namespaced by the
/// component type ("yokan/put"), and each registration is bound to this
/// provider's id so multiple providers of the same type coexist in one
/// process (Figure 1: "uniquely identified by a provider ID").
class Provider {
  public:
    virtual ~Provider() { deregister_all(); }
    Provider(const Provider&) = delete;
    Provider& operator=(const Provider&) = delete;

    [[nodiscard]] std::uint16_t provider_id() const noexcept { return m_provider_id; }
    [[nodiscard]] const std::string& type() const noexcept { return m_type; }
    [[nodiscard]] const InstancePtr& instance() const noexcept { return m_instance; }

    /// Current JSON configuration of the provider and its resource.
    [[nodiscard]] virtual json::Value get_config() const { return json::Value::object(); }

  protected:
    Provider(InstancePtr instance, std::uint16_t provider_id, std::string type,
             std::shared_ptr<abt::Pool> pool = nullptr)
    : m_instance(std::move(instance)), m_provider_id(provider_id), m_type(std::move(type)),
      m_pool(std::move(pool)) {}

    /// Deregister every RPC this provider defined and wait until no handler
    /// invocation is still running (deregister_rpc drains in-flight ULTs).
    /// Idempotent. Derived providers whose handlers capture `this` MUST call
    /// this first thing in their destructor: derived members are destroyed
    /// before the base destructor below runs, so relying on the base to
    /// deregister leaves a window where a live handler touches dead members.
    void deregister_all() {
        for (const auto& name : m_rpc_names)
            (void)m_instance->deregister_rpc(name, m_provider_id);
        m_rpc_names.clear();
    }

    /// Register an RPC "<type>/<op>" on this provider's pool whose payload
    /// decodes into `Args...`: `fn(req, args...)` runs only on well-formed
    /// input (see typed_handler).
    template <typename... Args, typename F>
    void define(const std::string& op, F fn) {
        std::string rpc = m_type + "/" + op;
        auto r = m_instance->register_rpc(rpc, m_provider_id,
                                          typed_handler<Args...>(std::move(fn)), m_pool);
        assert(r.has_value());
        (void)r;
        m_rpc_names.push_back(std::move(rpc));
    }

    [[nodiscard]] const std::shared_ptr<abt::Pool>& pool() const noexcept { return m_pool; }

    /// Tenant quota gate for data handlers: charge `cost_bytes` (default:
    /// the request payload size) against the sender's token buckets. On a
    /// depleted bucket this responds the retryable Backpressure error for
    /// the caller and returns false — the handler must return without
    /// touching its backend (yokan's data-op wrapper runs it right after
    /// its epoch check). Untenanted requests (tenant 0) are always admitted.
    bool admit(const Request& req, std::size_t cost_bytes = 0) const {
        auto st = m_instance->qos().admit(
            req.tenant_id(), cost_bytes > 0 ? cost_bytes : req.payload().size());
        if (st.ok()) return true;
        req.respond_error(st.error());
        return false;
    }

    /// Vectored-handler helper: run fn(i) for every i in [0, n) across up
    /// to `ways` ULTs of this provider's pool, the calling (handler) ULT
    /// executing one share inline. The ambient RPC/trace context propagates
    /// into the spawned workers (so per-op spans emitted inside fn chain
    /// under the enclosing handler span), and the join is ULT-aware — on a
    /// single execution stream the blocked handler yields to its workers.
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                      std::size_t ways = 4) const {
        if (n == 0) return;
        ways = std::min(std::max<std::size_t>(ways, 1), n);
        if (ways == 1) {
            for (std::size_t i = 0; i < n; ++i) fn(i);
            return;
        }
        auto ctx = current_rpc_context();
        const auto& pool = m_pool ? m_pool : m_instance->handler_pool();
        struct Join {
            std::atomic<std::size_t> remaining;
            abt::Eventual<void> done;
        };
        auto join = std::make_shared<Join>();
        join->remaining.store(ways - 1);
        // Block partition: worker w owns [w*n/ways, (w+1)*n/ways). fn is
        // borrowed by reference — safe, the caller blocks on the join below.
        for (std::size_t w = 1; w < ways; ++w) {
            std::size_t lo = w * n / ways;
            std::size_t hi = (w + 1) * n / ways;
            m_instance->runtime()->post(pool, [join, ctx, &fn, lo, hi] {
                ContextScope scope{ctx};
                for (std::size_t i = lo; i < hi; ++i) fn(i);
                if (join->remaining.fetch_sub(1) == 1) join->done.set();
            });
        }
        for (std::size_t i = 0; i < n / ways; ++i) fn(i);
        join->done.wait();
    }

  private:
    InstancePtr m_instance;
    std::uint16_t m_provider_id;
    std::string m_type;
    std::shared_ptr<abt::Pool> m_pool;
    std::vector<std::string> m_rpc_names;
};

/// Base class for client-side handles: "maps to a remote resource by
/// encapsulating the address and provider ID of the provider holding that
/// resource" (Figure 1).
class ResourceHandle {
  public:
    ResourceHandle(InstancePtr instance, std::string address, std::uint16_t provider_id,
                   std::string type)
    : m_instance(std::move(instance)), m_address(std::move(address)),
      m_provider_id(provider_id), m_type(std::move(type)) {}

    [[nodiscard]] const std::string& address() const noexcept { return m_address; }
    [[nodiscard]] std::uint16_t provider_id() const noexcept { return m_provider_id; }
    [[nodiscard]] const InstancePtr& instance() const noexcept { return m_instance; }

  protected:
    /// Typed RPC to the remote provider: packs inputs, unpacks outputs.
    template <typename... Outs, typename... Ins>
    Expected<std::tuple<Outs...>> call(std::string_view op, const Ins&... ins) const {
        ForwardOptions opts;
        opts.provider_id = m_provider_id;
        return m_instance->call<Outs...>(m_address, m_type + "/" + std::string(op), opts,
                                         ins...);
    }

    /// Fire the RPC without waiting for the reply: returns a handle whose
    /// wait_unpack<Outs...>() yields the typed result. Batched clients use
    /// this to overlap round trips to several providers.
    template <typename... Ins>
    [[nodiscard]] AsyncRequest async_call(std::string_view op, const Ins&... ins) const {
        ForwardOptions opts;
        opts.provider_id = m_provider_id;
        return m_instance->forward_async(m_address, m_type + "/" + std::string(op),
                                         mercury::pack(ins...), opts);
    }

    /// As `call`, but with an explicit timeout.
    template <typename... Outs, typename... Ins>
    Expected<std::tuple<Outs...>> call_with_timeout(std::string_view op,
                                                    std::chrono::milliseconds timeout,
                                                    const Ins&... ins) const {
        ForwardOptions opts;
        opts.provider_id = m_provider_id;
        opts.timeout = timeout;
        return m_instance->call<Outs...>(m_address, m_type + "/" + std::string(op), opts,
                                         ins...);
    }

  private:
    InstancePtr m_instance;
    std::string m_address;
    std::uint16_t m_provider_id;
    std::string m_type;
};

} // namespace mochi::margo
