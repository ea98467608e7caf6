#include "abt/executor.hpp"
#include "abt/runtime.hpp"

#include <algorithm>
#include <cassert>

namespace mochi::abt {

namespace {
/// Entry the calling worker thread is currently inside; guards against a ULT
/// trying to quiesce its own carrier thread.
thread_local Executor::Entry* tl_worker_entry = nullptr;
} // namespace

Executor::Executor(std::size_t workers) {
    if (workers == 0) {
        auto hw = static_cast<std::size_t>(std::thread::hardware_concurrency());
        workers = std::clamp<std::size_t>(hw / 2, 2, 8);
    }
    m_entries = std::make_shared<const Entries>();
    m_threads.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        m_threads.emplace_back([this] { worker_loop(); });
}

Executor::~Executor() {
    m_stop.store(true);
    {
        std::lock_guard lk{m_cv_mutex};
        m_wake_pending = true;
    }
    m_cv.notify_all();
    for (auto& t : m_threads)
        if (t.joinable()) t.join();
#ifndef NDEBUG
    std::lock_guard lk{m_entries_mutex};
    assert(m_entries->empty() && "executor destroyed with registered xstreams");
#endif
}

std::shared_ptr<Executor::Entry> Executor::register_xstream(Xstream* xs) {
    auto entry = std::make_shared<Entry>();
    entry->xs = xs;
    {
        std::lock_guard lk{m_entries_mutex};
        auto next = std::make_shared<Entries>(*m_entries);
        next->push_back(entry);
        m_entries = std::move(next);
        m_generation.fetch_add(1, std::memory_order_release);
    }
    notify();
    return entry;
}

void Executor::unregister(const std::shared_ptr<Entry>& entry) {
    if (!entry) return;
    assert(tl_worker_entry != entry.get() &&
           "a ULT cannot unregister the xstream carrying it");
    entry->removed.store(true);
    std::unique_lock lk{m_entries_mutex};
    auto next = std::make_shared<Entries>(*m_entries);
    next->erase(std::remove(next->begin(), next->end(), entry), next->end());
    m_entries = std::move(next);
    m_generation.fetch_add(1, std::memory_order_release);
    // Workers that hold the old snapshot may still enter the entry once,
    // see `removed`, and back out; wait for the active count to drain.
    m_quiesce_cv.wait(lk, [&] { return entry->active.load() == 0; });
}

void Executor::notify() {
    {
        std::lock_guard lk{m_cv_mutex};
        m_wake_pending = true;
    }
    m_cv.notify_all();
}

void Executor::worker_loop() {
    using namespace std::chrono_literals;
    std::shared_ptr<const Entries> entries;
    std::uint64_t seen = ~std::uint64_t{0};
    while (!m_stop.load()) {
        if (m_generation.load(std::memory_order_acquire) != seen) {
            std::lock_guard lk{m_entries_mutex};
            entries = m_entries;
            seen = m_generation.load(std::memory_order_relaxed);
        }
        bool ran = false;
        for (const auto& e : *entries) {
            e->active.fetch_add(1);
            if (!e->removed.load()) {
                if (UltPtr ult = e->xs->try_pop()) {
                    tl_worker_entry = e.get();
                    // A ULT knows its runtime, so one worker can interleave
                    // fibers from many lightweight instances.
                    ult->runtime->execute_ult(ult);
                    tl_worker_entry = nullptr;
                    ran = true;
                }
            }
            if (e->active.fetch_sub(1) == 1 && e->removed.load()) {
                std::lock_guard lk{m_entries_mutex};
                m_quiesce_cv.notify_all();
            }
        }
        if (ran) continue;
        std::unique_lock lk{m_cv_mutex};
        // The one timed wait of the ULT runtime: it bounds the latency of
        // observing stop or work in a pool attached after the sweep above.
        m_cv.wait_for(lk, 500us, [&] { return m_wake_pending || m_stop.load(); });
        m_wake_pending = false;
    }
}

} // namespace mochi::abt
