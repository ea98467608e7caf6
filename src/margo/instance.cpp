#include "margo/instance.hpp"
#include "common/logging.hpp"

#include <thread>

namespace mochi::margo {

std::uint64_t rpc_name_to_id(std::string_view name) noexcept {
    // 32-bit FNV-1a, like Mercury's hashing of RPC names.
    std::uint32_t h = 2166136261u;
    for (unsigned char c : name) {
        h ^= c;
        h *= 16777619u;
    }
    return h;
}

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

void Request::respond(std::string payload) const {
    mercury::Message resp;
    resp.kind = mercury::Message::Kind::Response;
    resp.rpc_id = m_msg.rpc_id;
    resp.provider_id = m_msg.provider_id;
    resp.seq = m_msg.seq;
    resp.payload = std::move(payload);
    resp.status = 0;
    (void)m_instance->m_endpoint->send(m_msg.source, std::move(resp));
}

void Request::respond_error(const Error& err) const {
    mercury::Message resp;
    resp.kind = mercury::Message::Kind::Response;
    resp.rpc_id = m_msg.rpc_id;
    resp.provider_id = m_msg.provider_id;
    resp.seq = m_msg.seq;
    resp.payload = err.message;
    resp.status = static_cast<std::int32_t>(err.code) + 1; // 0 reserved for ok
    (void)m_instance->m_endpoint->send(m_msg.source, std::move(resp));
}

// ---------------------------------------------------------------------------
// Instance lifecycle
// ---------------------------------------------------------------------------

Expected<InstancePtr> Instance::create(std::shared_ptr<mercury::Fabric> fabric,
                                       std::string address, const json::Value& config) {
    auto inst = InstancePtr(new Instance());
    inst->m_fabric = std::move(fabric);
    inst->m_address = std::move(address);
    inst->m_epoch = std::chrono::steady_clock::now();

    // Lightweight mode: no dedicated OS threads for this instance — its ESs
    // register with the fabric's shared worker crew instead of each owning
    // one, and its timer is a child of the fabric's shared timer. This is
    // what makes 100+ simulated nodes per process affordable.
    abt::SharedExecution shared;
    if (config.get_bool("lightweight", false)) {
        shared.executor = &inst->m_fabric->lite_executor();
        shared.parent_timer = &inst->m_fabric->lite_timer();
    }
    auto rt = abt::Runtime::create(config["argobots"], shared);
    if (!rt) return rt.error();
    inst->m_runtime = std::move(rt).value();

    // Resolve progress/handler pools (default: first pool).
    auto resolve = [&](const char* key) -> Expected<std::shared_ptr<abt::Pool>> {
        std::string name = config.get_string(key);
        if (name.empty()) return inst->m_runtime->primary_pool();
        return inst->m_runtime->find_pool(name);
    };
    auto progress = resolve("progress_pool");
    if (!progress) return progress.error();
    inst->m_progress_pool = std::move(progress).value();
    auto handler = resolve("handler_pool");
    if (!handler) return handler.error();
    inst->m_handler_pool = std::move(handler).value();

    if (auto t = config.get_integer("rpc_timeout_ms", 0); t > 0)
        inst->m_default_timeout = std::chrono::milliseconds(t);

    inst->m_stats = std::make_shared<StatisticsMonitor>();
    inst->m_monitors.push_back(inst->m_stats);
    inst->m_metrics = std::make_shared<MetricsRegistry>();
    inst->m_monitors.push_back(std::make_shared<MetricsMonitor>(inst->m_metrics));
    inst->m_qos = std::make_unique<QosManager>(inst->m_metrics);
    inst->m_qos->configure(config["qos"]);
    const auto& mon = config["monitoring"];
    inst->m_monitoring_enabled = mon.get_bool("enable", true);
    if (auto p = mon.get_integer("sampling_period_ms", 0); p > 0)
        inst->m_sampling_period = std::chrono::milliseconds(p);

    auto ep = inst->m_fabric->attach(inst->m_address, [w = std::weak_ptr<Instance>(inst)](
                                                          mercury::Message msg) {
        if (auto self = w.lock()) self->on_network_message(std::move(msg));
    });
    if (!ep) return ep.error();
    inst->m_endpoint = std::move(ep).value();
    // Register the recycle counter up front so it shows up (at zero) in
    // metrics snapshots taken before the first sync.
    inst->m_metrics->counter("margo_pool_recycled_total");

    // Start the network progress loop on its pool (Figure 2).
    inst->m_runtime->post(inst->m_progress_pool,
                          [w = std::weak_ptr<Instance>(inst)] {
                              if (auto self = w.lock()) self->progress_loop();
                          });
    inst->start_sampler();
    return inst;
}

Instance::~Instance() { shutdown(); }

void Instance::shutdown() {
    bool was = m_stopping.exchange(true);
    if (was) return;
    // Stop the periodic sampler by marking inactive (timer self-reschedules).
    m_sampler_active.store(false);
    // Let monitors quiesce background work (e.g. autoscaler decision
    // threads) while the runtime is still fully alive. Copied out so a
    // monitor joining a thread never holds m_monitors_mutex.
    {
        std::vector<std::shared_ptr<Monitor>> monitors;
        {
            std::lock_guard lk{m_monitors_mutex};
            monitors = m_monitors;
        }
        for (auto& m : monitors) m->on_shutdown();
    }
    // Wake the progress loop and wait for it to drain.
    m_queue_cv.signal_all();
    m_progress_done.wait();
    // Close the pending-call registry and cancel everything registered so
    // far. Bumping the generation under the lock makes the race with
    // forward() deterministic: a forward that registered before this sweep
    // is cancelled right here; one arriving after sees the closed registry
    // and fails fast without ever blocking.
    PendingMap pending{PendingMap::key_compare{}, PendingMap::allocator_type{m_pending_node_pool}};
    {
        std::lock_guard lk{m_pending_mutex};
        ++m_pending_generation;
        pending = std::move(m_pending); // same allocator: node steal, no copies
        m_pending.clear();
    }
    for (auto& [seq, call] : pending) {
        call->cancelled.store(true);
        mercury::Message m;
        m.status = static_cast<std::int32_t>(Error::Code::Canceled) + 1;
        m.payload = "instance shut down";
        call->response.set_value(std::move(m));
    }
    // Condition-based drain: the last in-flight forward signals on its way
    // out (its guard observes m_stopping). If a forward's decrement to zero
    // predates the m_stopping store in the seq_cst order, its guard may skip
    // the signal — but then the load below is ordered after that decrement
    // and reads zero, so exactly one side always sets the eventual.
    if (m_active_forwards.load() == 0) m_forwards_drained.set();
    m_forwards_drained.wait();
    m_endpoint->detach();
    m_runtime->finalize();
    // "The default implementation of this monitoring system captures
    // statistics and outputs them as JSON when shutting down the service."
    if (m_monitoring_dump_sink) m_monitoring_dump_sink(m_stats->to_json());
    m_stopped.store(true);
}

double Instance::now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - m_epoch)
        .count();
}

// ---------------------------------------------------------------------------
// RPC registration
// ---------------------------------------------------------------------------

Expected<std::uint64_t> Instance::register_rpc(std::string name, std::uint16_t provider_id,
                                               Handler handler,
                                               std::shared_ptr<abt::Pool> pool) {
    std::uint64_t id = rpc_name_to_id(name);
    std::lock_guard lk{m_rpc_mutex};
    auto key = std::make_pair(id, provider_id);
    if (auto it = m_rpcs.find(key); it != m_rpcs.end()) {
        // Distinguish a true duplicate from a 32-bit hash collision between
        // different names: the latter would silently alias two RPCs.
        if (it->second->name != name)
            return Error{Error::Code::Conflict,
                         "RPC id collision: '" + name + "' and '" + it->second->name +
                             "' hash to the same 32-bit id " + std::to_string(id) +
                             " (provider " + std::to_string(provider_id) + ")"};
        return Error{Error::Code::AlreadyExists,
                     "RPC '" + name + "' already registered for provider " +
                         std::to_string(provider_id)};
    }
    auto entry = std::make_shared<RpcEntry>();
    entry->name = std::move(name);
    entry->handler = std::move(handler);
    entry->pool = pool ? std::move(pool) : m_handler_pool;
    m_rpcs[key] = std::move(entry);
    return id;
}

namespace {
/// Wait until no handler ULT for an erased registration is still running.
/// ULT-aware: abt::yield() lets sibling ULTs proceed when called from one,
/// and degrades to a thread yield (plus a short sleep so a single-core host
/// is not starved) elsewhere. Handlers finish on their own and the erased
/// map entry guarantees no new invocation starts, but a handler stuck on a
/// long forward timeout stalls this wait for the full duration — returning
/// early would let the caller destroy state the handler still uses, so the
/// wait stays unbounded and instead logs its progress once per second.
void drain_handlers(const std::shared_ptr<std::atomic<int>>& inflight) {
    auto next_warn = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    int waited_s = 0;
    while (inflight->load(std::memory_order_acquire) != 0) {
        abt::yield();
        if (!abt::current_ult())
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        if (std::chrono::steady_clock::now() >= next_warn) {
            ++waited_s;
            log::warn("margo",
                      "deregister: still waiting on %d in-flight handler(s) after %d s",
                      inflight->load(std::memory_order_relaxed), waited_s);
            next_warn += std::chrono::seconds(1);
        }
    }
}
} // namespace

Status Instance::deregister_rpc(std::string_view name, std::uint16_t provider_id) {
    std::shared_ptr<std::atomic<int>> inflight;
    {
        std::lock_guard lk{m_rpc_mutex};
        auto key = std::make_pair(rpc_name_to_id(name), provider_id);
        auto it = m_rpcs.find(key);
        if (it == m_rpcs.end())
            return Error{Error::Code::NotFound,
                         "RPC '" + std::string(name) + "' not registered for provider " +
                             std::to_string(provider_id)};
        if (it->second->name != name)
            return Error{Error::Code::Conflict,
                         "deregister_rpc('" + std::string(name) + "') would remove '" +
                             it->second->name + "': the names collide on 32-bit id " +
                             std::to_string(key.first)};
        inflight = it->second->inflight;
        m_rpcs.erase(it);
    }
    drain_handlers(inflight);
    return {};
}

void Instance::deregister_provider(std::uint16_t provider_id) {
    std::vector<std::shared_ptr<std::atomic<int>>> inflight;
    {
        std::lock_guard lk{m_rpc_mutex};
        for (auto it = m_rpcs.begin(); it != m_rpcs.end();) {
            if (it->first.second == provider_id) {
                inflight.push_back(it->second->inflight);
                it = m_rpcs.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const auto& c : inflight) drain_handlers(c);
}

// ---------------------------------------------------------------------------
// Forward / dispatch
// ---------------------------------------------------------------------------

namespace detail {

/// Shared state behind AsyncRequest handles. Created by forward_async()
/// after the request is on the wire (or failed to get there — then
/// `completed` is already true and `result` holds the send error).
struct AsyncForwardState {
    InstancePtr instance;
    std::shared_ptr<Instance::PendingCall> call;
    std::uint64_t seq = 0;
    std::uint64_t generation = 0;
    std::chrono::milliseconds timeout{0};
    CallContext mctx;
    double t0 = 0;
    // Completion is resolved exactly once (first waiter, or the destructor
    // for an abandoned call); the mutex orders concurrent waiters on copies
    // of the handle. It is never held across a blocking wait.
    std::mutex mutex;
    bool completed = false;
    std::optional<Expected<std::string>> result;

    ~AsyncForwardState() {
        if (completed || !instance) return;
        // Abandoned without wait(): release the registry slot so
        // dispatch_response() drops a late reply, and close the forward
        // span as failed so every on_forward_start stays paired.
        {
            std::lock_guard lk{instance->m_pending_mutex};
            if (instance->m_pending_generation == generation)
                instance->m_pending.erase(seq);
        }
        mctx.duration_us = instance->now_us() - t0;
        instance->emit([&](Monitor& m) { m.on_forward_complete(mctx, false); });
    }
};

} // namespace detail

Expected<std::string> Instance::forward(const std::string& address, std::string_view rpc_name,
                                        std::string payload, ForwardOptions options) {
    // Track in-progress forwards so shutdown() can drain them after failing
    // their pending calls (their ULTs must run to completion before the
    // execution streams are stopped). Held across send *and* wait so the
    // synchronous path counts as one uninterrupted in-flight section.
    ForwardGuard guard{this};
    return forward_async(address, rpc_name, std::move(payload), options).wait();
}

AsyncRequest Instance::forward_async(const std::string& address, std::string_view rpc_name,
                                     std::string payload, ForwardOptions options) {
    // Pooled: the control block + state live in one recycled block, so a
    // warm forward does not touch the heap for its bookkeeping.
    auto state = std::allocate_shared<detail::AsyncForwardState>(
        PoolAllocator<detail::AsyncForwardState>{m_async_state_pool});
    state->instance = shared_from_this();
    state->timeout = options.timeout.count() > 0 ? options.timeout : m_default_timeout;
    auto fail_now = [&](Error e) {
        state->completed = true;
        state->result.emplace(std::move(e));
        return AsyncRequest{std::move(state)};
    };
    if (m_stopping.load())
        return fail_now(Error{Error::Code::InvalidState, "instance is shutting down"});
    // Cover the registration/send window; a blocked waiter re-enters the
    // guard inside AsyncRequest::wait().
    ForwardGuard guard{this};

    mercury::Message msg;
    msg.kind = mercury::Message::Kind::Request;
    msg.rpc_id = rpc_name_to_id(rpc_name);
    msg.rpc_name = std::string(rpc_name);
    msg.provider_id = options.provider_id;
    msg.seq = m_next_seq.fetch_add(1);
    msg.payload = std::move(payload);
    // Parent RPC context (Listing 1): inherited from the ambient RpcContext
    // if the caller is itself serving an RPC (handler ULTs carry it; worker
    // ULTs inherit it via ContextScope).
    RpcContext ambient = current_rpc_context();
    msg.parent_rpc_id = ambient.rpc_id;
    msg.parent_provider_id = ambient.provider_id;
    // Tenant identity rides the envelope like the trace: set by TenantScope
    // on clients, inherited by handler ULTs on servers, so multi-hop fan-out
    // bills to the originating tenant.
    msg.tenant_id = ambient.tenant.id;
    // Forward span: continue the ambient trace, or root a fresh one so every
    // client-side call is traceable end to end. The envelope carries the
    // span id; the target's handler span becomes its child.
    TraceContext span;
    span.trace_id = ambient.trace.active() ? ambient.trace.trace_id : next_trace_id();
    span.parent_span_id = ambient.trace.active() ? ambient.trace.span_id : 0;
    span.span_id = next_span_id();
    msg.trace_id = span.trace_id;
    msg.span_id = span.span_id;

    CallContext& mctx = state->mctx;
    mctx.rpc_id = msg.rpc_id;
    mctx.provider_id = msg.provider_id;
    mctx.parent_rpc_id = msg.parent_rpc_id;
    mctx.parent_provider_id = msg.parent_provider_id;
    mctx.name = std::string(rpc_name);
    mctx.peer = address;
    mctx.self = m_address;
    mctx.payload_size = msg.payload.size();
    mctx.trace_id = span.trace_id;
    mctx.span_id = span.span_id;
    mctx.parent_span_id = span.parent_span_id;

    auto call = std::allocate_shared<PendingCall>(PoolAllocator<PendingCall>{m_pending_call_pool});
    {
        std::lock_guard lk{m_pending_mutex};
        if (m_pending_generation != 0) {
            // shutdown() already swept the registry; registering now would
            // park this call forever since nobody will cancel it again.
            return fail_now(Error{Error::Code::Canceled, "RPC '" + std::string(rpc_name) +
                                                             "' canceled: instance shut down"});
        }
        state->generation = m_pending_generation;
        m_pending[msg.seq] = call;
    }
    state->call = call;
    state->seq = msg.seq;
    state->t0 = now_us();
    emit([&](Monitor& m) { m.on_forward_start(mctx); });

    if (auto st = m_endpoint->send(address, std::move(msg)); !st.ok()) {
        {
            std::lock_guard lk{m_pending_mutex};
            if (m_pending_generation == state->generation) m_pending.erase(state->seq);
        }
        emit([&](Monitor& m) { m.on_forward_complete(mctx, false); });
        return fail_now(st.error());
    }
    return AsyncRequest{std::move(state)};
}

bool AsyncRequest::test() const {
    if (!m_state) return false;
    std::lock_guard lk{m_state->mutex};
    if (m_state->completed) return true;
    return m_state->call && m_state->call->response.test();
}

Expected<std::string> AsyncRequest::wait() {
    if (!m_state)
        return Error{Error::Code::InvalidState, "wait() on an empty AsyncRequest"};
    detail::AsyncForwardState& st = *m_state;
    {
        std::lock_guard lk{st.mutex};
        if (st.completed) return *st.result;
    }
    Instance* inst = st.instance.get();
    // A blocked waiter counts toward the shutdown drain, exactly like a
    // synchronous forward; shutdown()'s sweep sets the eventual, so this
    // never outlives the drain by more than the wakeup.
    Instance::ForwardGuard guard{inst};
    // take_for moves the response Message out of the eventual: the single
    // logical consumer of a pending call never copies the payload. (A
    // concurrent waiter on a copied handle observes `completed` below and
    // reads the cached result instead.)
    auto response = st.call->response.take_for(
        std::chrono::duration_cast<std::chrono::microseconds>(st.timeout));
    std::lock_guard lk{st.mutex};
    if (st.completed) return *st.result; // a concurrent waiter resolved it
    {
        std::lock_guard plk{inst->m_pending_mutex};
        // If the generation moved, shutdown's sweep already emptied the map
        // (and a different call could in principle reuse the slot); only the
        // registering generation may erase.
        if (inst->m_pending_generation == st.generation) inst->m_pending.erase(st.seq);
    }
    st.mctx.duration_us = inst->now_us() - st.t0;
    const std::string& rpc_name = st.mctx.name;
    if (!response) {
        inst->emit([&](Monitor& m) { m.on_forward_complete(st.mctx, false); });
        if (st.call->cancelled.load())
            st.result.emplace(Error{Error::Code::Canceled,
                                    "RPC '" + rpc_name + "' canceled: instance shut down"});
        else
            st.result.emplace(Error{Error::Code::Timeout,
                                    "RPC '" + rpc_name + "' to " + st.mctx.peer +
                                        " timed out"});
    } else if (response->status != 0) {
        inst->emit([&](Monitor& m) { m.on_forward_complete(st.mctx, false); });
        auto code = static_cast<Error::Code>(response->status - 1);
        st.result.emplace(Error{
            code, response->payload.empty() ? "remote error" : response->payload});
    } else {
        inst->emit([&](Monitor& m) { m.on_forward_complete(st.mctx, true); });
        st.result.emplace(std::move(response->payload));
    }
    st.completed = true;
    return *st.result;
}

void Instance::on_network_message(mercury::Message msg) {
    // Called on the delivering thread: the sender, or the fabric timer for
    // delayed links. A reply completes its pending call right here, waking
    // the caller without a hop through the progress loop. Requests are
    // enqueued for the progress ULT; the CondVar enqueues waiters before
    // releasing the held mutex, so signaling after the push is never lost.
    if (msg.kind == mercury::Message::Kind::Response) return dispatch_response(std::move(msg));
    m_queue_mutex.lock();
    m_queue.push_back(std::move(msg));
    m_queue_mutex.unlock();
    m_queue_cv.signal_one();
}

void Instance::progress_loop() {
    using namespace std::chrono_literals;
    // One inbox, drained in arrival order. The lock is dropped around each
    // dispatch so producers never block behind handler bookkeeping. The
    // CondVar registers the waiter before releasing the mutex, so a push +
    // signal that races the park is never lost; the timed wait only bounds
    // how long a stop request goes unnoticed.
    mercury::Message msg;
    m_queue_mutex.lock();
    for (;;) {
        while (!m_queue.empty()) {
            msg = m_queue.pop_front();
            m_queue_mutex.unlock();
            dispatch_request(std::move(msg));
            m_queue_mutex.lock();
        }
        if (m_stopping.load()) break;
        m_queue_cv.wait_for(m_queue_mutex, 50ms);
    }
    m_queue_mutex.unlock();
    m_progress_done.set();
}

namespace detail {

/// Per-request dispatch state. Pooled (allocate_shared over the instance's
/// dispatch free list) and carried to the handler ULT in Ult::task_payload,
/// so a warm dispatch allocates nothing. The destructor owns the counter
/// decrements — Runtime::finalize()'s abort backstop destroys queued ULTs
/// without running them, and only a destructor fires on that path, which
/// keeps drain_handlers() from spinning forever on a dispatch discarded
/// un-run.
struct DispatchCtx {
    InstancePtr self;
    std::shared_ptr<const Instance::RpcEntry> entry;
    mercury::Message msg;
    CallContext mctx;
    double t_received = 0;

    ~DispatchCtx() {
        self->m_in_flight.fetch_sub(1);
        entry->inflight->fetch_sub(1, std::memory_order_release);
    }

    /// ULT entry point (function pointer: the posting closure stays within
    /// std::function's small-buffer optimization).
    static void run(void* p) {
        auto* ctx = static_cast<DispatchCtx*>(p);
        Instance* self = ctx->self.get();
        double t_start = self->now_us();
        ctx->mctx.queue_delay_us = t_start - ctx->t_received;
        self->emit([&](Monitor& m) { m.on_handler_start(ctx->mctx); });
        {
            // Ambient context for the handler: nested forwards report this
            // RPC as their parent and extend this handler's span.
            ContextScope scope{RpcContext{
                ctx->msg.rpc_id, ctx->msg.provider_id,
                TraceContext{ctx->mctx.trace_id, ctx->mctx.span_id, ctx->mctx.parent_span_id},
                TenantContext{ctx->msg.tenant_id}}};
            Request req{self, std::move(ctx->msg)};
            ctx->entry->handler(req);
        }
        ctx->mctx.duration_us = self->now_us() - t_start;
        self->emit([&](Monitor& m) { m.on_handler_complete(ctx->mctx); });
    }
};

} // namespace detail

void Instance::dispatch_request(mercury::Message msg) {
    std::shared_ptr<const RpcEntry> entry;
    {
        std::lock_guard lk{m_rpc_mutex};
        auto it = m_rpcs.find({msg.rpc_id, msg.provider_id});
        if (it == m_rpcs.end()) {
            Request req{this, std::move(msg)};
            req.respond_error(Error{Error::Code::NoSuchRpc,
                                    "no such RPC (id " + std::to_string(req.rpc_id()) +
                                        ", provider " + std::to_string(req.provider_id()) + ")"});
            return;
        }
        if (!msg.rpc_name.empty() && msg.rpc_name != it->second->name) {
            // Hash collision across processes: the caller's name maps to the
            // same 32-bit id as a different RPC registered here. Running the
            // wrong handler would silently corrupt both protocols.
            std::string local_name = it->second->name;
            Request req{this, std::move(msg)};
            req.respond_error(Error{Error::Code::Conflict,
                                    "RPC id " + std::to_string(req.rpc_id()) +
                                        " names '" + local_name + "' here but '" +
                                        req.rpc_name() + "' at the caller (hash collision)"});
            return;
        }
        // Pin the registration with a refcount instead of copying it (a
        // Handler copy would re-allocate its captures on every request).
        entry = it->second;
        // Claimed under m_rpc_mutex, so a concurrent deregister either sees
        // this invocation and drains it, or already erased the entry and we
        // would not be here.
        entry->inflight->fetch_add(1, std::memory_order_relaxed);
    }
    m_in_flight.fetch_add(1);

    // From here on, ctx's destructor releases both counters claimed above.
    auto ctx = std::allocate_shared<detail::DispatchCtx>(
        PoolAllocator<detail::DispatchCtx>{m_dispatch_pool});
    ctx->self = shared_from_this();
    CallContext& mctx = ctx->mctx;
    mctx.rpc_id = msg.rpc_id;
    mctx.provider_id = msg.provider_id;
    mctx.parent_rpc_id = msg.parent_rpc_id;
    mctx.parent_provider_id = msg.parent_provider_id;
    mctx.name = entry->name;
    mctx.peer = msg.source;
    mctx.self = m_address;
    mctx.payload_size = msg.payload.size();
    // Handler span: child of the caller's forward span carried in the
    // envelope. Allocated here so received/start/complete callbacks all
    // correlate under one span id.
    if (msg.trace_id != 0) {
        mctx.trace_id = msg.trace_id;
        mctx.parent_span_id = msg.span_id;
        mctx.span_id = next_span_id();
    }
    ctx->t_received = now_us();
    emit([&](Monitor& m) { m.on_request_received(mctx); });

    // Weighted admission: charge the request to its tenant's WFQ account and
    // dispatch at the resulting deficit priority. Tenants behind their fair
    // share overtake over-consumers inside a prio handler pool; untenanted
    // traffic (tenant 0) skips the QoS lock entirely and dispatches at 0.
    const int priority = m_qos->charge(msg.tenant_id, msg.payload.size());

    auto pool = entry->pool; // keep alive across the move below
    ctx->entry = std::move(entry);
    ctx->msg = std::move(msg);
    m_runtime->post_with_payload(pool, std::move(ctx), &detail::DispatchCtx::run, priority);
}

void Instance::dispatch_response(mercury::Message msg) {
    std::shared_ptr<PendingCall> call;
    {
        std::lock_guard lk{m_pending_mutex};
        auto it = m_pending.find(msg.seq);
        if (it == m_pending.end()) return; // caller timed out; drop
        call = it->second;
        m_pending.erase(it);
    }
    call->response.set_value(std::move(msg));
}

// ---------------------------------------------------------------------------
// Bulk
// ---------------------------------------------------------------------------

CallContext Instance::bulk_call_context(const std::string& peer) const {
    // Attribute the transfer to the RPC whose handler drives it (REMI's
    // fetch_rdma, warabi reads, ...) and open a bulk child span so RDMA
    // phases show up inside the handler span in a trace.
    CallContext mctx;
    mctx.name = "__bulk__";
    mctx.peer = peer;
    mctx.self = m_address;
    RpcContext ambient = current_rpc_context();
    mctx.rpc_id = ambient.rpc_id;
    mctx.provider_id = ambient.provider_id;
    if (ambient.trace.active()) {
        mctx.trace_id = ambient.trace.trace_id;
        mctx.parent_span_id = ambient.trace.span_id;
        mctx.span_id = next_span_id();
    }
    return mctx;
}

mercury::BulkHandle Instance::expose(char* data, std::size_t size, bool writable) {
    return m_endpoint->expose(data, size, writable);
}

void Instance::unexpose(std::uint64_t id) { m_endpoint->unexpose(id); }

Status Instance::finish_bulk(const Expected<double>& delay, const std::string& peer,
                             std::size_t size, double t0) {
    if (!delay) return delay.error();
    if (*delay >= 1.0)
        m_runtime->sleep_for(std::chrono::microseconds(static_cast<std::int64_t>(*delay)));
    CallContext mctx = bulk_call_context(peer);
    emit([&](Monitor& m) { m.on_bulk_complete(mctx, size, now_us() - t0); });
    return {};
}

Status Instance::bulk_pull(const mercury::BulkHandle& remote, std::size_t remote_offset,
                           char* local, std::size_t size) {
    double t0 = now_us();
    return finish_bulk(m_endpoint->bulk_pull(remote, remote_offset, local, size),
                       remote.address, size, t0);
}

Status Instance::bulk_push(const mercury::BulkHandle& remote, std::size_t remote_offset,
                           const char* local, std::size_t size) {
    double t0 = now_us();
    return finish_bulk(m_endpoint->bulk_push(remote, remote_offset, local, size),
                       remote.address, size, t0);
}

Expected<std::string> Instance::bulk_pull_all(const mercury::BulkHandle& remote) {
    double t0 = now_us();
    std::string buffer;
    auto st = finish_bulk(m_endpoint->bulk_pull_all(remote, buffer), remote.address,
                          remote.size, t0);
    if (!st.ok()) return st.error();
    return buffer;
}

// ---------------------------------------------------------------------------
// Monitoring plumbing
// ---------------------------------------------------------------------------

void Instance::sync_pool_metrics() const {
    // The free lists count recycles monotonically; fold the delta since the
    // last export into the counter. exchange() makes concurrent snapshots
    // count each delta exactly once (a stale total simply contributes zero).
    std::uint64_t total = m_pending_call_pool->recycled() + m_pending_node_pool->recycled() +
                          m_async_state_pool->recycled() + m_dispatch_pool->recycled() +
                          m_runtime->ult_pool_recycled();
    std::uint64_t last = m_pool_recycled_exported.exchange(total, std::memory_order_relaxed);
    if (total > last) m_metrics->counter("margo_pool_recycled_total").inc(total - last);
}

void Instance::add_monitor(std::shared_ptr<Monitor> monitor) {
    std::lock_guard lk{m_monitors_mutex};
    m_monitors.push_back(std::move(monitor));
}

void Instance::notify_batch_op(std::string_view op_name, std::size_t payload_size,
                               double duration_us, bool ok) {
    // Attribute the op to the enclosing batched RPC (the ambient handler
    // context) and open a child span under the handler span, mirroring how
    // bulk transfers report themselves.
    RpcContext ambient = current_rpc_context();
    CallContext mctx;
    mctx.rpc_id = rpc_name_to_id(op_name);
    mctx.provider_id = ambient.provider_id;
    mctx.parent_rpc_id = ambient.rpc_id;
    mctx.parent_provider_id = ambient.provider_id;
    mctx.name = std::string(op_name);
    mctx.peer = m_address;
    mctx.self = m_address;
    mctx.payload_size = payload_size;
    mctx.duration_us = duration_us;
    if (ambient.trace.active()) {
        mctx.trace_id = ambient.trace.trace_id;
        mctx.parent_span_id = ambient.trace.span_id;
        mctx.span_id = next_span_id();
    }
    emit([&](Monitor& m) { m.on_batch_op(mctx, ok); });
}

void Instance::start_sampler() {
    m_sampler_active.store(true);
    auto w = std::weak_ptr<Instance>(shared_from_this());
    m_runtime->timer().schedule(
        std::chrono::duration_cast<std::chrono::microseconds>(m_sampling_period), [w] {
            if (auto self = w.lock()) self->sampler_tick();
        });
}

void Instance::sampler_tick() {
    if (!m_sampler_active.load() || m_stopping.load()) return;
    std::map<std::string, std::size_t> pool_sizes;
    for (const auto& name : m_runtime->pool_names()) {
        if (auto p = m_runtime->find_pool(name)) pool_sizes[name] = (*p)->size();
    }
    emit([&](Monitor& m) { m.on_progress_sample(m_in_flight.load(), pool_sizes); });
    auto w = std::weak_ptr<Instance>(shared_from_this());
    m_runtime->timer().schedule(
        std::chrono::duration_cast<std::chrono::microseconds>(m_sampling_period), [w] {
            if (auto self = w.lock()) self->sampler_tick();
        });
}

// ---------------------------------------------------------------------------
// Configuration & reconfiguration
// ---------------------------------------------------------------------------

json::Value Instance::config() const {
    auto cfg = json::Value::object();
    cfg["address"] = m_address;
    cfg["argobots"] = m_runtime->config();
    cfg["progress_pool"] = m_progress_pool->name();
    cfg["handler_pool"] = m_handler_pool->name();
    cfg["rpc_timeout_ms"] = static_cast<std::int64_t>(m_default_timeout.count());
    cfg["monitoring"]["enable"] = m_monitoring_enabled.load();
    cfg["monitoring"]["sampling_period_ms"] =
        static_cast<std::int64_t>(m_sampling_period.count());
    return cfg;
}

Expected<std::shared_ptr<abt::Pool>> Instance::find_pool_by_name(std::string_view name) const {
    return m_runtime->find_pool(name);
}

Expected<std::shared_ptr<abt::Pool>> Instance::add_pool_from_json(const json::Value& pool_config) {
    return m_runtime->add_pool(pool_config);
}

Status Instance::remove_pool(std::string_view name) {
    // Margo-level checks first (§5: "Margo ensures that the changes are
    // always valid").
    if (m_progress_pool->name() == name)
        return Error{Error::Code::InvalidState, "cannot remove the progress pool"};
    if (m_handler_pool->name() == name)
        return Error{Error::Code::InvalidState, "cannot remove the default handler pool"};
    {
        std::lock_guard lk{m_rpc_mutex};
        for (const auto& [key, entry] : m_rpcs) {
            if (entry->pool->name() == name)
                return Error{Error::Code::InvalidState,
                             "pool '" + std::string(name) + "' is in use by RPC '" + entry->name +
                                 "'"};
        }
    }
    return m_runtime->remove_pool(name);
}

Status Instance::add_xstream_from_json(const json::Value& xstream_config) {
    return m_runtime->add_xstream(xstream_config);
}

Status Instance::remove_xstream(std::string_view name) {
    return m_runtime->remove_xstream(name);
}

} // namespace mochi::margo
