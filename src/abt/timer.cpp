#include "abt/timer.hpp"

#include <vector>

namespace mochi::abt {

Timer::Timer() : m_host(*this), m_thread([this] { loop(); }) {}

Timer::Timer(Timer& host) : m_host(host.m_host) {}

Timer::~Timer() { stop(); }

Timer::TimerId Timer::schedule(std::chrono::microseconds delay, std::function<void()> fn) {
    return schedule_at(Clock::now() + delay, std::move(fn));
}

Timer::TimerId Timer::schedule_wakeup(std::chrono::microseconds delay,
                                      std::function<void()> fn) {
    return schedule_at(Clock::now() + delay, std::move(fn), true);
}

Timer::TimerId Timer::schedule_at(Clock::time_point deadline, std::function<void()> fn,
                                  bool wakeup) {
    Timer& h = m_host;
    std::lock_guard lk{h.m_mutex};
    if (m_stopped || h.m_stopped) return 0;
    TimerId id = h.m_next_id++;
    h.m_entries.emplace(deadline, Entry{id, this, wakeup, std::move(fn)});
    // Wake the timer thread only if this entry is due before whatever it is
    // currently sleeping toward. The common RPC pattern — schedule a far-out
    // timeout, complete, cancel — then never touches the condvar, saving a
    // futex wake + context switch per call.
    if (deadline < h.m_wait_deadline) h.m_cv.notify_one();
    return id;
}

bool Timer::cancel(TimerId id) {
    if (id == 0) return false; // never scheduled (timer was stopped)
    Timer& h = m_host;
    std::unique_lock lk{h.m_mutex};
    for (auto it = h.m_entries.begin(); it != h.m_entries.end(); ++it) {
        if (it->second.id == id && it->second.owner == this) {
            // No notify: if this was the earliest entry the thread wakes at
            // the stale deadline, finds nothing due, and re-sleeps. That is
            // cheaper than unconditionally waking it now.
            h.m_entries.erase(it);
            return true;
        }
    }
    // Not pending: either already done, or running right now. Wait out a
    // running callback so the caller may free state the callback captures.
    h.m_cv.wait(lk, [&] { return h.m_running_id != id; });
    return false;
}

std::size_t Timer::expire_wakeups() {
    std::vector<std::function<void()>> due;
    {
        std::lock_guard lk{m_host.m_mutex};
        for (auto it = m_host.m_entries.begin(); it != m_host.m_entries.end();) {
            if (it->second.owner == this && it->second.wakeup) {
                due.push_back(std::move(it->second.fn));
                it = m_host.m_entries.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto& fn : due) fn();
    return due.size();
}

void Timer::stop() {
    Timer& h = m_host;
    std::unique_lock lk{h.m_mutex};
    if (m_stopped) return;
    m_stopped = true;
    if (&h != this) {
        std::erase_if(h.m_entries, [this](const auto& kv) { return kv.second.owner == this; });
        h.m_cv.wait(lk, [&] { return h.m_running_owner != this; });
        return;
    }
    m_entries.clear();
    m_cv.notify_all();
    lk.unlock();
    if (m_thread.joinable()) m_thread.join();
}

void Timer::loop() {
    std::unique_lock lk{m_mutex};
    while (!m_stopped) {
        if (m_entries.empty()) {
            m_wait_deadline = Clock::time_point::max();
            m_cv.wait(lk, [&] { return m_stopped || !m_entries.empty(); });
            m_wait_deadline = Clock::time_point::min();
            continue;
        }
        auto it = m_entries.begin();
        if (it->first > Clock::now()) {
            m_wait_deadline = it->first;
            m_cv.wait_until(lk, it->first);
            m_wait_deadline = Clock::time_point::min();
            continue; // re-evaluate: earlier entries / stop may have arrived
        }
        std::function<void()> fn = std::move(it->second.fn);
        m_running_id = it->second.id;
        m_running_owner = it->second.owner;
        m_entries.erase(it);
        lk.unlock();
        fn();
        fn = nullptr; // captured state dies before cancel()/stop() may return
        lk.lock();
        m_running_id = 0;
        m_running_owner = nullptr;
        m_cv.notify_all(); // unblock cancel()/stop() waiting on this callback
    }
}

} // namespace mochi::abt
