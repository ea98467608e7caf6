// The Margo runtime: binds the ULT runtime (abt) and the RPC fabric
// (mercury) into the shared per-process runtime all Mochi components use
// (Figure 2). One Instance == one simulated service process.
//
// Features reproduced from the paper:
//  - JSON-configured pools/execution streams (Listing 2) with runtime
//    query (find_pool_by_name) and modification (add_pool_from_json, ...),
//    with validity checks (§5, Observation 2).
//  - A network progress loop running on a configurable pool, dispatching
//    incoming RPCs to per-provider handler pools (Figure 2).
//  - The monitoring infrastructure of §4, reporting Listing 1 statistics.
#pragma once

#include "abt/abt.hpp"
#include "common/expected.hpp"
#include "common/json.hpp"
#include "common/pool_alloc.hpp"
#include "common/ring_queue.hpp"
#include "margo/metrics.hpp"
#include "margo/monitoring.hpp"
#include "margo/qos.hpp"
#include "margo/tracing.hpp"
#include "mercury/archive.hpp"
#include "mercury/fabric.hpp"

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>

namespace mochi::margo {

class Instance;
using InstancePtr = std::shared_ptr<Instance>;

/// Compute the stable 32-bit id of an RPC name (Mercury hashes RPC names
/// the same way; Listing 1's rpc_id 2924675071 is such a hash).
[[nodiscard]] std::uint64_t rpc_name_to_id(std::string_view name) noexcept;

namespace detail {
struct AsyncForwardState;
struct DispatchCtx;
}

/// An incoming RPC being handled. Handlers receive a const reference and
/// must call respond()/respond_error() exactly once (unless the RPC was
/// forwarded fire-and-forget).
class Request {
  public:
    [[nodiscard]] const std::string& source() const noexcept { return m_msg.source; }
    [[nodiscard]] const std::string& payload() const noexcept { return m_msg.payload; }
    [[nodiscard]] const std::string& rpc_name() const noexcept { return m_msg.rpc_name; }
    [[nodiscard]] std::uint64_t rpc_id() const noexcept { return m_msg.rpc_id; }
    [[nodiscard]] std::uint16_t provider_id() const noexcept { return m_msg.provider_id; }
    /// QoS identity carried in the envelope; 0 = untenanted legacy caller.
    [[nodiscard]] std::uint32_t tenant_id() const noexcept { return m_msg.tenant_id; }

    /// Deserialize the request payload into `values`.
    template <typename... Ts>
    [[nodiscard]] bool unpack(Ts&... values) const {
        return mercury::unpack(m_msg.payload, values...);
    }

    void respond(std::string payload) const;
    template <typename... Ts>
    void respond_values(const Ts&... values) const {
        respond(mercury::pack(values...));
    }
    void respond_error(const Error& err) const;

  private:
    friend class Instance;
    friend struct detail::DispatchCtx;
    Request(Instance* inst, mercury::Message msg) : m_instance(inst), m_msg(std::move(msg)) {}
    Instance* m_instance;
    mercury::Message m_msg;
};

using Handler = std::function<void(const Request&)>;

/// Typed handler definition: the RPC's argument types are declared once,
/// next to its body, the way Mercury registers an RPC with its input proc.
/// The returned Handler decodes the payload into `Args...` and runs
/// `fn(req, args...)`; a payload that does not decode is answered with
/// an InvalidArgument error and never reaches `fn`. std::string_view
/// arguments alias the request payload (zero-copy, valid while the body
/// runs). With no `Args` the body runs on the bare request.
template <typename... Args, typename F>
[[nodiscard]] Handler typed_handler(F fn) {
    return [fn = std::move(fn)](const Request& req) {
        std::tuple<Args...> args{};
        if (!std::apply([&](Args&... a) { return req.unpack(a...); }, args)) {
            req.respond_error(Error{Error::Code::InvalidArgument, "bad payload"});
            return;
        }
        std::apply([&](Args&... a) { fn(req, a...); }, args);
    };
}

struct ForwardOptions {
    std::chrono::milliseconds timeout{2000};
    std::uint16_t provider_id = k_default_provider_id;
};

/// Handle to an RPC issued with Instance::forward_async(). The request is
/// already on the wire when the handle is returned; wait() blocks
/// (ULT-aware) for the response, so a caller can launch N forwards and
/// overlap their round trips. Handles share state when copied; wait() may
/// be called repeatedly (the first outcome is cached). Dropping the last
/// handle without waiting abandons the call: its registry slot is released
/// and its forward span closes as failed, so monitors stay paired.
///
/// Shutdown composes exactly like the synchronous path: an in-flight async
/// forward lives in the same pending-call registry, shutdown()'s sweep
/// cancels it, and any waiter (current or future) observes Canceled instead
/// of hanging. A waiter that is blocked counts toward the shutdown drain
/// (m_active_forwards) for the duration of its wait.
class AsyncRequest {
  public:
    AsyncRequest() = default;

    [[nodiscard]] bool valid() const noexcept { return m_state != nullptr; }
    /// True once the response (or failure) is ready: wait() will not block.
    [[nodiscard]] bool test() const;
    /// Block until the response arrives, the timeout fires, or shutdown
    /// cancels the call. Error codes match forward(): Timeout / Canceled /
    /// the remote error. Calling wait() on an empty handle is InvalidState.
    Expected<std::string> wait();

    /// Typed wait: unpack the response payload into a tuple, surfacing
    /// malformed payloads (and throwing serialize() implementations) as
    /// Expected errors rather than exceptions.
    template <typename... Outs>
    Expected<std::tuple<Outs...>> wait_unpack() {
        auto resp = wait();
        if (!resp) return std::move(resp).error();
        std::tuple<Outs...> out;
        try {
            bool ok =
                std::apply([&](auto&... o) { return mercury::unpack(*resp, o...); }, out);
            if (!ok) return Error{Error::Code::Corruption, "malformed async response payload"};
        } catch (const std::exception& e) {
            return Error{Error::Code::Corruption,
                         std::string("async response unpack threw: ") + e.what()};
        }
        return out;
    }

  private:
    friend class Instance;
    explicit AsyncRequest(std::shared_ptr<detail::AsyncForwardState> state)
    : m_state(std::move(state)) {}
    std::shared_ptr<detail::AsyncForwardState> m_state;
};

class Instance : public std::enable_shared_from_this<Instance> {
  public:
    /// Create a Margo instance attached to `fabric` under `address`.
    /// `config` (optional) carries {"argobots": {...}, "progress_pool": "...",
    /// "handler_pool": "...", "rpc_timeout_ms": N,
    /// "monitoring": {"enable": bool, "sampling_period_ms": N},
    /// "qos": {"default": {...}, "tenants": {"<id>": {...}}} (see qos.hpp)}.
    static Expected<InstancePtr> create(std::shared_ptr<mercury::Fabric> fabric,
                                        std::string address,
                                        const json::Value& config = {});

    ~Instance();
    Instance(const Instance&) = delete;
    Instance& operator=(const Instance&) = delete;

    [[nodiscard]] const std::string& address() const noexcept { return m_address; }
    [[nodiscard]] const std::shared_ptr<abt::Runtime>& runtime() const noexcept {
        return m_runtime;
    }
    [[nodiscard]] const std::shared_ptr<mercury::Fabric>& fabric() const noexcept {
        return m_fabric;
    }
    /// Default pool handler ULTs run on (providers without a dedicated pool
    /// fan vectored batches out to it).
    [[nodiscard]] const std::shared_ptr<abt::Pool>& handler_pool() const noexcept {
        return m_handler_pool;
    }

    // -- RPC registration ----------------------------------------------------

    /// Register `handler` for (name, provider_id); its ULTs run in `pool`
    /// (default: the handler pool). Fails on duplicates.
    Expected<std::uint64_t> register_rpc(std::string name, std::uint16_t provider_id,
                                         Handler handler,
                                         std::shared_ptr<abt::Pool> pool = nullptr);
    /// Remove the registration and wait until no handler invocation for it
    /// is still running, so the caller may destroy whatever the handler
    /// captured. Must not be called from inside the handler being removed.
    Status deregister_rpc(std::string_view name, std::uint16_t provider_id);
    /// Remove every RPC of a provider (used when a provider shuts down).
    /// Drains in-flight handlers like deregister_rpc().
    void deregister_provider(std::uint16_t provider_id);

    // -- RPC invocation ------------------------------------------------------

    /// Send a request and block (ULT-aware) for the response payload.
    Expected<std::string> forward(const std::string& address, std::string_view rpc_name,
                                  std::string payload, ForwardOptions options = {});

    /// Send a request without blocking for the response; see AsyncRequest.
    /// A send-side failure (shutdown, unreachable address) is reported by
    /// the returned handle's wait(), never thrown.
    [[nodiscard]] AsyncRequest forward_async(const std::string& address,
                                             std::string_view rpc_name, std::string payload,
                                             ForwardOptions options = {});

    /// Typed convenience: pack arguments, forward, unpack the result tuple.
    template <typename... Outs, typename... Ins>
    Expected<std::tuple<Outs...>> call(const std::string& address, std::string_view rpc_name,
                                       ForwardOptions options, const Ins&... ins) {
        auto resp = forward(address, rpc_name, mercury::pack(ins...), options);
        if (!resp) return std::move(resp).error();
        std::tuple<Outs...> out;
        // unpack() reports malformed input through its return value, but a
        // user-defined serialize() may throw (resource exhaustion, value
        // validation); an exception escaping here would unwind through the
        // calling ULT's fiber boundary and terminate the process, so both
        // failure modes collapse into the Expected.
        try {
            bool ok =
                std::apply([&](auto&... o) { return mercury::unpack(*resp, o...); }, out);
            if (!ok)
                return Error{Error::Code::Corruption, "malformed response payload for " +
                                                          std::string(rpc_name)};
        } catch (const std::exception& e) {
            return Error{Error::Code::Corruption, "response unpack for " +
                                                      std::string(rpc_name) + " threw: " +
                                                      e.what()};
        }
        return out;
    }

    // -- bulk (RDMA) ---------------------------------------------------------

    mercury::BulkHandle expose(char* data, std::size_t size, bool writable);
    void unexpose(std::uint64_t id);
    /// ULT-aware bulk transfers; the modeled network time is slept on the
    /// calling ULT so the execution stream stays available.
    Status bulk_pull(const mercury::BulkHandle& remote, std::size_t remote_offset, char* local,
                     std::size_t size);
    Status bulk_push(const mercury::BulkHandle& remote, std::size_t remote_offset,
                     const char* local, std::size_t size);
    /// Pull a whole handle into a new buffer. The buffer is allocated only
    /// once the owner has confirmed it exposes `remote.size` bytes, so a
    /// handler can take a client-supplied handle as is: a forged size
    /// yields InvalidArgument, never an allocation of that size.
    Expected<std::string> bulk_pull_all(const mercury::BulkHandle& remote);

    // -- monitoring (§4) -----------------------------------------------------

    /// Install an additional monitor (the "inject callbacks" API).
    void add_monitor(std::shared_ptr<Monitor> monitor);
    /// Report one logical operation executed inside a batched (vectored)
    /// RPC handler: emits Monitor::on_batch_op with a child span of the
    /// ambient handler span, so coalescing N ops into one RPC keeps per-op
    /// resolution in traces and metrics. `op_name` is the logical operation
    /// ("yokan/put"), `payload_size` that op's bytes, `duration_us` its
    /// execution time.
    void notify_batch_op(std::string_view op_name, std::size_t payload_size,
                         double duration_us, bool ok);
    /// The always-installed statistics monitor.
    [[nodiscard]] const std::shared_ptr<StatisticsMonitor>& statistics() const noexcept {
        return m_stats;
    }
    /// Listing-1-shaped JSON document, available at run time.
    [[nodiscard]] json::Value monitoring_json() const { return m_stats->to_json(); }
    /// §4: "outputs them as JSON when shutting down the service" — if set,
    /// shutdown() hands the final statistics document to this sink (e.g. a
    /// writer into the node's store; margo itself stays storage-agnostic).
    void set_monitoring_dump_sink(std::function<void(const json::Value&)> sink) {
        m_monitoring_dump_sink = std::move(sink);
    }
    /// Enable/disable monitoring callbacks (for overhead ablation, E1).
    void set_monitoring_enabled(bool enabled) noexcept { m_monitoring_enabled = enabled; }
    [[nodiscard]] std::size_t in_flight_rpcs() const noexcept { return m_in_flight.load(); }

    // -- metrics export --------------------------------------------------------

    /// The process's metrics registry. The runtime feeds the margo_* metrics
    /// through an always-installed MetricsMonitor; components add their own
    /// counters/gauges/histograms here (docs/OBSERVABILITY.md names them).
    [[nodiscard]] const std::shared_ptr<MetricsRegistry>& metrics() const noexcept {
        return m_metrics;
    }
    /// Rendered snapshot of the registry (what bedrock/get_metrics returns).
    /// Folds the free-list recycle totals into margo_pool_recycled_total
    /// first, so the counter is current without the hot path touching it.
    [[nodiscard]] json::Value metrics_json() const {
        sync_pool_metrics();
        return m_metrics->to_json();
    }

    // -- multi-tenant QoS ------------------------------------------------------

    /// Weighted admission + quota state for this process. Dispatch charges
    /// every tenant-tagged request here (priority on prio pools); providers
    /// call qos().admit() — usually via margo::Provider::admit() — to
    /// enforce quotas with retryable backpressure. Configure under the
    /// "qos" key of the instance config or via qos().set_tenant().
    [[nodiscard]] QosManager& qos() noexcept { return *m_qos; }
    [[nodiscard]] const QosManager& qos() const noexcept { return *m_qos; }

    // -- configuration & online reconfiguration (§5) --------------------------

    [[nodiscard]] json::Value config() const;
    [[nodiscard]] Expected<std::shared_ptr<abt::Pool>> find_pool_by_name(std::string_view name) const;
    Expected<std::shared_ptr<abt::Pool>> add_pool_from_json(const json::Value& pool_config);
    /// Margo-level validity checks on top of abt's: the progress/handler
    /// pools and pools bound to registered RPCs cannot be removed.
    Status remove_pool(std::string_view name);
    Status add_xstream_from_json(const json::Value& xstream_config);
    Status remove_xstream(std::string_view name);

    /// Stop the progress loop, detach from the network, finalize the ULT
    /// runtime. Idempotent; also called by the destructor.
    void shutdown();

    [[nodiscard]] bool is_shutdown() const noexcept { return m_stopped.load(); }

  private:
    friend class Request;
    friend class AsyncRequest;
    friend struct detail::AsyncForwardState;
    friend struct detail::DispatchCtx;
    Instance() = default;

    /// RAII tracker of in-progress forward sections: synchronous forwards
    /// for their whole duration, async ones while registering/sending and
    /// again while a waiter blocks. The guard doubles as the drain signal —
    /// the last forward out the door after m_stopping wakes shutdown()
    /// instead of shutdown() polling the counter.
    struct ForwardGuard {
        Instance* inst;
        explicit ForwardGuard(Instance* i) : inst(i) { i->m_active_forwards.fetch_add(1); }
        ~ForwardGuard() {
            if (inst->m_active_forwards.fetch_sub(1) == 1 && inst->m_stopping.load())
                inst->m_forwards_drained.set();
        }
    };

    struct RpcEntry {
        std::string name;
        Handler handler;
        std::shared_ptr<abt::Pool> pool;
        /// Number of handler ULTs currently executing for this registration.
        /// Incremented under m_rpc_mutex at dispatch, decremented when the
        /// handler returns; deregister_rpc() waits for it to reach zero so
        /// the owner of the handler's captures can be destroyed safely.
        std::shared_ptr<std::atomic<int>> inflight = std::make_shared<std::atomic<int>>(0);
    };
    struct PendingCall {
        abt::Eventual<mercury::Message> response;
        /// Set by shutdown() before completing the eventual, so a forward
        /// whose wait_for() raced the cancellation (the timeout fired while
        /// set_value was in flight) still reports Canceled, not Timeout.
        std::atomic<bool> cancelled{false};
    };
    // Per-handler-ULT context (margo::RpcContext, tracing.hpp) lets nested
    // forwards inherit parent RPC ids and the active trace.

    void on_network_message(mercury::Message msg);
    void progress_loop();
    void dispatch_request(mercury::Message msg);
    void dispatch_response(mercury::Message msg);
    void start_sampler();
    void sampler_tick();
    double now_us() const;
    /// Reconcile the absolute FreeList recycle counts into the monotonic
    /// margo_pool_recycled_total counter (called from metrics_json()).
    void sync_pool_metrics() const;
    /// CallContext for a bulk transfer, attributed to the ambient RPC/trace.
    CallContext bulk_call_context(const std::string& peer) const;
    /// Shared tail of the bulk calls: sleep the modeled transfer time on
    /// the calling ULT and report the transfer to the monitors.
    Status finish_bulk(const Expected<double>& delay, const std::string& peer,
                       std::size_t size, double t0);

    std::shared_ptr<mercury::Fabric> m_fabric;
    std::shared_ptr<mercury::Endpoint> m_endpoint;
    std::shared_ptr<abt::Runtime> m_runtime;
    std::string m_address;
    std::chrono::steady_clock::time_point m_epoch;

    std::shared_ptr<abt::Pool> m_progress_pool;
    std::shared_ptr<abt::Pool> m_handler_pool;
    std::chrono::milliseconds m_default_timeout{2000};

    // The one request inbox, consumed by the progress ULT in arrival order
    // (replies never enter it: they complete at delivery). Every delivery
    // path, cached or mutex-guarded, lands requests here. The ring-buffer
    // queue recycles its slots, so steady-state traffic stays
    // allocation-free (unlike a deque's chunk churn).
    abt::Mutex m_queue_mutex;
    abt::CondVar m_queue_cv;
    RingQueue<mercury::Message> m_queue;
    std::atomic<bool> m_stopping{false};
    std::atomic<bool> m_stopped{false};
    abt::Eventual<void> m_progress_done;

    mutable std::mutex m_rpc_mutex;
    // Entries are shared_ptr-held so dispatch pins a registration with one
    // refcount bump instead of copying the name + handler (a std::function
    // copy re-allocates any non-trivial capture on every request).
    std::map<std::pair<std::uint64_t, std::uint16_t>, std::shared_ptr<const RpcEntry>> m_rpcs;

    // Free lists behind the per-call hot-path objects; see pool_alloc.hpp.
    // shared_ptr-held because allocator copies (inside allocate_shared
    // control blocks and map internals) may outlive the Instance.
    std::shared_ptr<FreeList> m_pending_call_pool = std::make_shared<FreeList>();
    std::shared_ptr<FreeList> m_pending_node_pool = std::make_shared<FreeList>();
    std::shared_ptr<FreeList> m_async_state_pool = std::make_shared<FreeList>();
    std::shared_ptr<FreeList> m_dispatch_pool = std::make_shared<FreeList>();
    /// Last total already folded into margo_pool_recycled_total.
    mutable std::atomic<std::uint64_t> m_pool_recycled_exported{0};

    using PendingMap =
        std::map<std::uint64_t, std::shared_ptr<PendingCall>, std::less<std::uint64_t>,
                 PoolAllocator<std::pair<const std::uint64_t, std::shared_ptr<PendingCall>>>>;
    std::mutex m_pending_mutex;
    PendingMap m_pending{PendingMap::key_compare{},
                         PendingMap::allocator_type{m_pending_node_pool}};
    /// Guarded by m_pending_mutex. Bumped exactly once, when shutdown()
    /// closes the registry and sweeps it; a forward that captured an older
    /// generation knows its entry was already claimed by that sweep, and a
    /// forward arriving afterwards fails fast instead of registering a call
    /// nobody would ever cancel.
    std::uint64_t m_pending_generation = 0;
    std::atomic<std::uint64_t> m_next_seq{1};
    std::atomic<std::size_t> m_active_forwards{0};
    /// Condition-based shutdown drain: set by the last in-flight forward to
    /// exit once m_stopping is visible (or by shutdown() itself when none
    /// are active). One-shot is sufficient: after m_stopping no new forward
    /// can get past the closed registry and block.
    abt::Eventual<void> m_forwards_drained;

    std::atomic<std::size_t> m_in_flight{0};
    std::unique_ptr<QosManager> m_qos;
    std::atomic<bool> m_monitoring_enabled{true};
    std::shared_ptr<StatisticsMonitor> m_stats;
    std::shared_ptr<MetricsRegistry> m_metrics;
    mutable std::mutex m_monitors_mutex;
    std::vector<std::shared_ptr<Monitor>> m_monitors;
    std::chrono::milliseconds m_sampling_period{100};
    std::atomic<bool> m_sampler_active{false};
    std::function<void(const json::Value&)> m_monitoring_dump_sink;

    template <typename F>
    void emit(F&& f) {
        if (!m_monitoring_enabled.load(std::memory_order_relaxed)) return;
        std::lock_guard lk{m_monitors_mutex};
        for (auto& m : m_monitors) f(*m);
    }
};

} // namespace mochi::margo
