#include "abt/runtime.hpp"
#include "abt/sync.hpp"
#include "common/logging.hpp"

#include <cassert>

// ThreadSanitizer cannot follow raw ucontext switches: without annotations
// its shadow-stack bookkeeping dereferences stale state after swapcontext
// and crashes (observed as a SEGV inside libtsan on the first fiber switch).
// The fiber API below tells TSan about every stack we switch to.
#if defined(__SANITIZE_THREAD__)
#define MOCHI_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MOCHI_TSAN_FIBERS 1
#endif
#endif
#ifndef MOCHI_TSAN_FIBERS
#define MOCHI_TSAN_FIBERS 0
#endif
#if MOCHI_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace mochi::abt {

// ---------------------------------------------------------------------------
// ULT machinery: the fiber context switch and the suspend/resume protocol.
// ---------------------------------------------------------------------------

namespace {

#if MOCHI_TSAN_FIBERS
#define MOCHI_NO_TSAN __attribute__((no_sanitize_thread, noinline))
#else
#define MOCHI_NO_TSAN inline
#endif

thread_local Ult* tl_current_ult = nullptr;
thread_local ucontext_t* tl_sched_ctx = nullptr;

// The scheduling thread-locals are only ever touched by their owning OS
// thread and by fibers currently executing on it, so they are race-free by
// construction. They must still go through these uninstrumented accessors:
// glibc recycles the stack+TLS block of exited threads, and TSan attributes
// fiber-context accesses to the fiber's own history, so a recycled TLS
// address would otherwise pair a dead fiber's access with a fresh thread's
// write and produce false data-race reports.
MOCHI_NO_TSAN Ult* cur_ult_get() noexcept { return tl_current_ult; }
MOCHI_NO_TSAN void cur_ult_set(Ult* u) noexcept { tl_current_ult = u; }
MOCHI_NO_TSAN ucontext_t* sched_ctx_get() noexcept { return tl_sched_ctx; }
MOCHI_NO_TSAN void sched_ctx_set(ucontext_t* c) noexcept { tl_sched_ctx = c; }
#if MOCHI_TSAN_FIBERS
// TSan fiber handle of the context a ULT must switch back to (the scheduler
// frame that swapped it in). Mirrors tl_sched_ctx.
thread_local void* tl_sched_fiber = nullptr;
MOCHI_NO_TSAN void* sched_fiber_get() noexcept { return tl_sched_fiber; }
MOCHI_NO_TSAN void sched_fiber_set(void* f) noexcept { tl_sched_fiber = f; }
#endif

// Announce to TSan that we are about to switch to the scheduler frame. Must
// immediately precede every ULT -> scheduler swapcontext.
inline void tsan_switch_to_sched() {
#if MOCHI_TSAN_FIBERS
    __tsan_switch_to_fiber(sched_fiber_get(), 0);
#endif
}

// Trampoline entered on a fresh fiber stack. Reads the ULT via the
// thread-local, which the scheduler sets immediately before swapping in.
void ult_trampoline() {
    Ult* self = cur_ult_get();
    self->fn();
    self->fn = nullptr; // destroy captured state while the fiber is alive
    self->task_payload.reset();
    self->state.store(UltState::Terminated);
    tsan_switch_to_sched();
    swapcontext(&self->ctx, sched_ctx_get());
    // unreachable
}

} // namespace

Ult* current_ult() noexcept { return cur_ult_get(); }

void yield() {
    Ult* self = cur_ult_get();
    if (self == nullptr) {
        std::this_thread::yield();
        return;
    }
    self->state.store(UltState::Yielding);
    tsan_switch_to_sched();
    swapcontext(&self->ctx, sched_ctx_get());
}

void suspend_current() {
    Ult* self = cur_ult_get();
    assert(self != nullptr && "suspend_current outside ULT context");
    UltState expected = UltState::Running;
    if (!self->state.compare_exchange_strong(expected, UltState::Blocking)) {
        // resume() raced us and already arrived: consume it without switching.
        assert(expected == UltState::ResumeRequested);
        self->state.store(UltState::Running);
        return;
    }
    tsan_switch_to_sched();
    swapcontext(&self->ctx, sched_ctx_get());
}

void resume(Ult* ult) {
    for (;;) {
        UltState s = ult->state.load();
        switch (s) {
        case UltState::Blocked: {
            UltState expected = UltState::Blocked;
            if (ult->state.compare_exchange_strong(expected, UltState::Ready)) {
                // The scheduler parked a self-reference before publishing
                // the Blocked state; hand it back to the pool.
                UltPtr keepalive = std::move(ult->self_keepalive);
                assert(keepalive != nullptr);
                Pool* pool = ult->home_pool;
                pool->push(std::move(keepalive));
                return;
            }
            break; // state changed under us; retry
        }
        case UltState::Running:
        case UltState::Blocking: {
            UltState expected = s;
            if (ult->state.compare_exchange_strong(expected, UltState::ResumeRequested))
                return; // suspend path / scheduler will requeue
            break;
        }
        case UltState::ResumeRequested:
            return; // already requested
        default:
            assert(false && "resume() on a ULT that is not suspending");
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Xstream: a registration on an Executor
// ---------------------------------------------------------------------------

Xstream::Xstream(std::string name, std::string sched_type,
                 std::vector<std::shared_ptr<Pool>> pools, Executor* executor)
: m_name(std::move(name)), m_sched_type(std::move(sched_type)), m_pools(std::move(pools)),
  m_own_executor(executor != nullptr ? nullptr : std::make_unique<Executor>(1)),
  m_executor(executor != nullptr ? executor : m_own_executor.get()) {
    for (auto& p : m_pools) p->subscribe(this);
    m_entry = m_executor->register_xstream(this);
}

Xstream::~Xstream() { stop_and_join(); }

std::vector<std::string> Xstream::pool_names() const {
    std::lock_guard lk{m_pools_mutex};
    std::vector<std::string> names;
    names.reserve(m_pools.size());
    for (const auto& p : m_pools) names.push_back(p->name());
    return names;
}

bool Xstream::uses_pool(const Pool* pool) const {
    std::lock_guard lk{m_pools_mutex};
    for (const auto& p : m_pools)
        if (p.get() == pool) return true;
    return false;
}

UltPtr Xstream::try_pop() {
    std::lock_guard lk{m_pools_mutex};
    for (auto& p : m_pools)
        if (UltPtr ult = p->pop()) return ult;
    return nullptr;
}

void Xstream::stop_and_join() {
    if (m_entry) {
        // Quiesce: after unregister() no worker touches this xstream.
        m_executor->unregister(m_entry);
        m_entry.reset();
    }
    std::lock_guard lk{m_pools_mutex};
    for (auto& p : m_pools) p->unsubscribe(this);
    m_pools.clear();
    // No push can reach notify() any more: the private crew may go.
    m_own_executor.reset();
}

// ---------------------------------------------------------------------------
// ThreadHandle
// ---------------------------------------------------------------------------

void ThreadHandle::join() {
    if (!m_ult) return;
    if (m_event) m_event->wait();
    m_ult.reset();
    m_event.reset();
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Expected<std::shared_ptr<Runtime>> Runtime::create(const json::Value& config,
                                                   SharedExecution shared) {
    auto rt = std::shared_ptr<Runtime>(new Runtime());
    rt->m_executor = shared.executor;
    rt->m_timer = shared.parent_timer != nullptr
                      ? std::make_unique<Timer>(*shared.parent_timer)
                      : std::make_unique<Timer>();
    if (auto st = rt->apply_config(config); !st.ok()) {
        rt->finalize();
        return st.error();
    }
    return rt;
}

std::shared_ptr<Runtime> Runtime::create_default() {
    auto result = create(json::Value{});
    assert(result.has_value());
    return std::move(result).value();
}

Runtime::~Runtime() { finalize(); }

Status Runtime::apply_config(const json::Value& config) {
    json::Value cfg = config;
    if (cfg.is_null()) cfg = json::Value::object();
    if (!cfg.is_object())
        return Error{Error::Code::InvalidArgument, "argobots config must be an object"};
    if (!cfg.contains("pools")) {
        auto pool = json::Value::object();
        pool["name"] = "__primary__";
        pool["type"] = "fifo_wait";
        pool["access"] = "mpmc";
        cfg["pools"].push_back(pool);
    }
    if (!cfg.contains("xstreams")) {
        auto es = json::Value::object();
        es["name"] = "__primary__";
        es["scheduler"]["type"] = "basic_wait";
        es["scheduler"]["pools"].push_back(cfg["pools"][std::size_t{0}].get_string("name"));
        cfg["xstreams"].push_back(es);
    }
    std::lock_guard lk{m_mutex};
    for (const auto& p : cfg["pools"].as_array()) {
        if (auto r = add_pool_locked(p); !r) return r.error();
    }
    for (const auto& x : cfg["xstreams"].as_array()) {
        if (auto st = add_xstream_locked(x); !st.ok()) return st;
    }
    if (m_xstreams.empty())
        return Error{Error::Code::InvalidArgument, "configuration has no execution stream"};
    return {};
}

Expected<std::shared_ptr<Pool>> Runtime::find_pool(std::string_view name) const {
    std::lock_guard lk{m_mutex};
    for (const auto& p : m_pools)
        if (p->name() == name) return p;
    return Error{Error::Code::NotFound, "no pool named '" + std::string(name) + "'"};
}

std::vector<std::string> Runtime::pool_names() const {
    std::lock_guard lk{m_mutex};
    std::vector<std::string> names;
    names.reserve(m_pools.size());
    for (const auto& p : m_pools) names.push_back(p->name());
    return names;
}

std::vector<std::string> Runtime::xstream_names() const {
    std::lock_guard lk{m_mutex};
    std::vector<std::string> names;
    names.reserve(m_xstreams.size());
    for (const auto& x : m_xstreams) names.push_back(x->name());
    return names;
}

std::size_t Runtime::num_pools() const {
    std::lock_guard lk{m_mutex};
    return m_pools.size();
}

std::size_t Runtime::num_xstreams() const {
    std::lock_guard lk{m_mutex};
    return m_xstreams.size();
}

json::Value Runtime::config() const {
    std::lock_guard lk{m_mutex};
    auto cfg = json::Value::object();
    cfg["pools"] = json::Value::array();
    for (const auto& p : m_pools) {
        auto pj = json::Value::object();
        pj["name"] = p->name();
        pj["type"] = to_string(p->kind());
        pj["access"] = to_string(p->access());
        cfg["pools"].push_back(std::move(pj));
    }
    cfg["xstreams"] = json::Value::array();
    for (const auto& x : m_xstreams) {
        auto xj = json::Value::object();
        xj["name"] = x->name();
        xj["scheduler"]["type"] = x->scheduler_type();
        auto pools = json::Value::array();
        for (const auto& pn : x->pool_names()) pools.push_back(pn);
        xj["scheduler"]["pools"] = std::move(pools);
        cfg["xstreams"].push_back(std::move(xj));
    }
    return cfg;
}

Expected<std::shared_ptr<Pool>> Runtime::add_pool_locked(const json::Value& pool_config) {
    if (!pool_config.is_object())
        return Error{Error::Code::InvalidArgument, "pool config must be an object"};
    std::string name = pool_config.get_string("name");
    if (name.empty())
        return Error{Error::Code::InvalidArgument, "pool config requires a name"};
    for (const auto& p : m_pools)
        if (p->name() == name)
            return Error{Error::Code::AlreadyExists, "a pool named '" + name + "' already exists"};
    std::string kind_str = pool_config.get_string("type", pool_config.get_string("kind", "fifo_wait"));
    auto kind = pool_kind_from_string(kind_str);
    if (!kind) return kind.error();
    auto access = pool_access_from_string(pool_config.get_string("access", "mpmc"));
    if (!access) return access.error();
    auto pool = std::make_shared<Pool>(name, *kind, *access);
    m_pools.push_back(pool);
    return pool;
}

Expected<std::shared_ptr<Pool>> Runtime::add_pool(const json::Value& pool_config) {
    std::lock_guard lk{m_mutex};
    return add_pool_locked(pool_config);
}

Status Runtime::remove_pool(std::string_view name) {
    std::lock_guard lk{m_mutex};
    auto it = std::find_if(m_pools.begin(), m_pools.end(),
                           [&](const auto& p) { return p->name() == name; });
    if (it == m_pools.end())
        return Error{Error::Code::NotFound, "no pool named '" + std::string(name) + "'"};
    for (const auto& x : m_xstreams) {
        if (x->uses_pool(it->get()))
            return Error{Error::Code::InvalidState,
                         "pool '" + std::string(name) + "' is in use by xstream '" + x->name() + "'"};
    }
    if ((*it)->size() != 0)
        return Error{Error::Code::InvalidState,
                     "pool '" + std::string(name) + "' still has queued work"};
    m_pools.erase(it);
    return {};
}

Status Runtime::add_xstream_locked(const json::Value& xstream_config) {
    if (!xstream_config.is_object())
        return Error{Error::Code::InvalidArgument, "xstream config must be an object"};
    std::string name = xstream_config.get_string("name");
    if (name.empty())
        return Error{Error::Code::InvalidArgument, "xstream config requires a name"};
    for (const auto& x : m_xstreams)
        if (x->name() == name)
            return Error{Error::Code::AlreadyExists,
                         "an xstream named '" + name + "' already exists"};
    const json::Value& sched = xstream_config["scheduler"];
    std::string sched_type = sched.get_string("type", "basic_wait");
    if (sched_type != "basic" && sched_type != "basic_wait")
        return Error{Error::Code::InvalidArgument, "unknown scheduler type: " + sched_type};
    std::vector<std::shared_ptr<Pool>> pools;
    if (!sched["pools"].is_array() || sched["pools"].size() == 0)
        return Error{Error::Code::InvalidArgument,
                     "xstream '" + name + "' needs at least one pool"};
    for (const auto& pn : sched["pools"].as_array()) {
        if (!pn.is_string())
            return Error{Error::Code::InvalidArgument, "scheduler pools must be names"};
        auto found = std::find_if(m_pools.begin(), m_pools.end(),
                                  [&](const auto& p) { return p->name() == pn.as_string(); });
        if (found == m_pools.end())
            return Error{Error::Code::NotFound,
                         "xstream '" + name + "' references unknown pool '" + pn.as_string() + "'"};
        pools.push_back(*found);
    }
    m_xstreams.push_back(
        std::make_unique<Xstream>(name, sched_type, std::move(pools), m_executor));
    return {};
}

Status Runtime::add_xstream(const json::Value& xstream_config) {
    std::lock_guard lk{m_mutex};
    return add_xstream_locked(xstream_config);
}

Status Runtime::remove_xstream(std::string_view name) {
    std::unique_ptr<Xstream> victim;
    {
        std::lock_guard lk{m_mutex};
        auto it = std::find_if(m_xstreams.begin(), m_xstreams.end(),
                               [&](const auto& x) { return x->name() == name; });
        if (it == m_xstreams.end())
            return Error{Error::Code::NotFound, "no xstream named '" + std::string(name) + "'"};
        // Note: removing an xstream may leave pools without a consumer; their
        // queued ULTs simply wait until another xstream is attached (tested
        // in AbtRuntime.OrphanedPoolResumesWhenXstreamAdded). The validity
        // rule the paper states (§5) is on the pool side: a pool *in use by
        // an ES* cannot be removed, which remove_pool enforces.
        victim = std::move(*it);
        m_xstreams.erase(it);
    }
    victim->stop_and_join(); // outside the lock: running ULTs may call into us
    return {};
}

UltPtr Runtime::make_ult(const std::shared_ptr<Pool>& pool) {
    auto ult = std::allocate_shared<Ult>(PoolAllocator<Ult>{m_ult_pool});
    ult->home_pool = pool.get();
    ult->runtime = this;
    ult->state.store(UltState::Ready);
    return ult;
}

void Runtime::post(const std::shared_ptr<Pool>& pool, std::function<void()> fn) {
    auto ult = make_ult(pool);
    ult->fn = std::move(fn);
    if (UltPtr refused = pool->push(std::move(ult))) abort_ult(refused);
}

void Runtime::post_with_payload(const std::shared_ptr<Pool>& pool, std::shared_ptr<void> payload,
                                void (*fn)(void*), int priority) {
    auto ult = make_ult(pool);
    ult->task_payload = std::move(payload);
    // Captures one function pointer (8 bytes, trivially copyable): stays in
    // std::function's inline buffer. The payload rides in the descriptor.
    ult->fn = [fn] { fn(current_ult()->task_payload.get()); };
    if (UltPtr refused = pool->push(std::move(ult), priority)) abort_ult(refused);
}

ThreadHandle Runtime::post_thread(const std::shared_ptr<Pool>& pool, std::function<void()> fn) {
    auto ult = make_ult(pool);
    auto event = std::make_shared<Eventual<void>>();
    ult->fn = std::move(fn);
    ult->on_terminate = [event] { event->set(); };
    ThreadHandle handle{ult, event};
    if (UltPtr refused = pool->push(std::move(ult))) abort_ult(refused);
    return handle;
}

std::shared_ptr<Pool> Runtime::primary_pool() const {
    std::lock_guard lk{m_mutex};
    assert(!m_pools.empty());
    return m_pools.front();
}

void Runtime::sleep_for(std::chrono::microseconds d) {
    if (!in_ult()) {
        std::this_thread::sleep_for(d);
        return;
    }
    Eventual<void> ev;
    m_timer->schedule_wakeup(d, [&ev] { ev.set(); });
    ev.wait();
}

void Runtime::execute_ult(const UltPtr& ult) {
    Ult* u = ult.get();
    if (u->stack == nullptr) {
        u->stack_size = Runtime::k_default_stack_size;
        u->stack = acquire_stack(u->stack_size);
        getcontext(&u->ctx);
        u->ctx.uc_stack.ss_sp = u->stack;
        u->ctx.uc_stack.ss_size = u->stack_size;
        u->ctx.uc_link = nullptr;
        makecontext(&u->ctx, ult_trampoline, 0);
#if MOCHI_TSAN_FIBERS
        u->tsan_fiber = __tsan_create_fiber(0);
#endif
    }
    // Save and restore the scheduling thread-locals: execute_ult must be
    // reentrant because finalize() drains pools inline, possibly from inside
    // a ULT of another runtime (e.g. a handler tearing down a second margo
    // instance).
    Ult* prev_ult = cur_ult_get();
    ucontext_t* prev_sched_ctx = sched_ctx_get();
    ucontext_t sched_ctx;
    sched_ctx_set(&sched_ctx);
    cur_ult_set(u);
    u->state.store(UltState::Running);
#if MOCHI_TSAN_FIBERS
    void* prev_sched_fiber = sched_fiber_get();
    sched_fiber_set(__tsan_get_current_fiber());
    __tsan_switch_to_fiber(u->tsan_fiber, 0);
#endif
    swapcontext(&sched_ctx, &u->ctx);
#if MOCHI_TSAN_FIBERS
    sched_fiber_set(prev_sched_fiber);
#endif
    cur_ult_set(prev_ult);
    sched_ctx_set(prev_sched_ctx);

    switch (u->state.load()) {
    case UltState::Terminated: {
#if MOCHI_TSAN_FIBERS
        if (u->tsan_fiber) {
            __tsan_destroy_fiber(u->tsan_fiber);
            u->tsan_fiber = nullptr;
        }
#endif
        release_stack(u->stack, u->stack_size);
        u->stack = nullptr;
        u->done.store(true);
        if (u->on_terminate) {
            auto fn = std::move(u->on_terminate);
            u->on_terminate = nullptr;
            fn();
        }
        break;
    }
    case UltState::Yielding:
        u->state.store(UltState::Ready);
        u->home_pool->push(ult);
        break;
    case UltState::Blocking: {
        // Park a self-reference so the ULT survives while blocked, then
        // publish the Blocked state. If resume() raced us, requeue.
        u->self_keepalive = ult;
        UltState expected = UltState::Blocking;
        if (!u->state.compare_exchange_strong(expected, UltState::Blocked)) {
            assert(expected == UltState::ResumeRequested);
            u->self_keepalive.reset();
            u->state.store(UltState::Ready);
            u->home_pool->push(ult);
        }
        break;
    }
    case UltState::ResumeRequested:
        // resume() arrived between the ULT's state store and our inspection;
        // treat as a completed suspend/resume pair and requeue.
        u->self_keepalive.reset();
        u->state.store(UltState::Ready);
        u->home_pool->push(ult);
        break;
    default:
        assert(false && "unexpected ULT state after context switch");
    }
}

std::size_t Runtime::drain_pools(const std::vector<std::shared_ptr<Pool>>& pools,
                                 std::size_t budget) {
    std::size_t executed = 0;
    bool progress = true;
    while (progress && executed < budget) {
        progress = false;
        for (const auto& p : pools) {
            while (executed < budget) {
                UltPtr ult = p->pop();
                if (!ult) break;
                execute_ult(ult);
                ++executed;
                progress = true;
            }
        }
    }
    return executed;
}

void Runtime::abort_ult(const UltPtr& ult) {
    Ult* u = ult.get();
#if MOCHI_TSAN_FIBERS
    if (u->tsan_fiber) {
        __tsan_destroy_fiber(u->tsan_fiber);
        u->tsan_fiber = nullptr;
    }
#endif
    if (u->stack != nullptr) {
        release_stack(u->stack, u->stack_size);
        u->stack = nullptr;
    }
    u->fn = nullptr;
    u->task_payload.reset(); // destroy the un-run task's state
    u->state.store(UltState::Terminated);
    u->done.store(true);
    if (u->on_terminate) {
        auto fn = std::move(u->on_terminate);
        u->on_terminate = nullptr;
        fn();
    }
}

void Runtime::finalize() {
    std::vector<std::unique_ptr<Xstream>> xstreams;
    std::vector<std::shared_ptr<Pool>> pools;
    {
        std::lock_guard lk{m_mutex};
        if (m_finalized) return;
        m_finalized = true;
        xstreams = std::move(m_xstreams);
        m_xstreams.clear();
        pools = m_pools;
    }
    for (auto& x : xstreams) x->stop_and_join();
    // From here on new posts are aborted un-run: a thread that keeps posting
    // cannot keep the drain below busy, and nothing lands in a pool after
    // the backstop has emptied it.
    for (const auto& p : pools) p->close();
    // The streams stopped mid-flight: pools may still hold ULTs that were
    // posted but never ran, or that were resumed while the streams were
    // shutting down. Dropping them would leave every ThreadHandle::join()
    // (and any Eventual their on_terminate would set) hung forever — the
    // teardown dead-end this drain exists to prevent. Run them inline on
    // this thread instead, bounded so a ULT that endlessly yields cannot
    // wedge finalize. The timer is still live during the first pass so
    // drained ULTs may sleep/timeout normally.
    constexpr std::size_t k_drain_budget = 100000;
    std::size_t executed = drain_pools(pools, k_drain_budget);
    // ULTs parked in a sleep or timed wait would be dropped with the timer
    // and leak their stacks and captured state. Wake them early instead
    // (a timed wait reports a timeout) and run them to completion.
    while (executed < k_drain_budget && m_timer->expire_wakeups() > 0)
        executed += drain_pools(pools, k_drain_budget - executed);
    m_timer->stop();
    // Timer callbacks that fired during the passes may have resumed more
    // ULTs; sweep again now that no new wakeups can arrive.
    if (executed < k_drain_budget)
        executed += drain_pools(pools, k_drain_budget - executed);
    // Backstop: anything still queued (budget exhausted) is aborted without
    // running. Its join event still completes; objects alive on a partially
    // executed fiber stack are leaked deliberately. on_terminate may resume
    // further ULTs into any pool, hence the outer fixpoint loop.
    bool aborted = true;
    while (aborted) {
        aborted = false;
        for (const auto& p : pools) {
            while (UltPtr ult = p->pop()) {
                aborted = true;
                abort_ult(ult);
            }
        }
    }
    std::lock_guard slk{m_stack_mutex};
    for (char* s : m_free_stacks) delete[] s;
    m_free_stacks.clear();
}

char* Runtime::acquire_stack(std::size_t size) {
    if (size == k_default_stack_size) {
        std::lock_guard lk{m_stack_mutex};
        if (!m_free_stacks.empty()) {
            char* s = m_free_stacks.back();
            m_free_stacks.pop_back();
            return s;
        }
    }
    return new char[size];
}

void Runtime::release_stack(char* stack, std::size_t size) {
    constexpr std::size_t k_max_cached = 64;
    if (size == k_default_stack_size) {
        std::lock_guard lk{m_stack_mutex};
        if (m_free_stacks.size() < k_max_cached) {
            m_free_stacks.push_back(stack);
            return;
        }
    }
    delete[] stack;
}

} // namespace mochi::abt
