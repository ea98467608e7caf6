#include "abt/sync.hpp"

#include <cassert>

namespace mochi::abt {

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

void Mutex::lock() {
    std::unique_lock lk{m_mutex};
    if (!m_locked && m_waiters.empty()) {
        m_locked = true;
        return;
    }
    detail::WaitNode node;
    node.ult = current_ult();
    m_waiters.push_back(&node);
    if (node.ult != nullptr) {
        lk.unlock();
        suspend_current();
        // Ownership was handed off by unlock() before resuming us.
        return;
    }
    m_cv.wait(lk, [&] { return node.signaled.load(std::memory_order_acquire); });
}

bool Mutex::try_lock() {
    std::lock_guard lk{m_mutex};
    if (m_locked || !m_waiters.empty()) return false;
    m_locked = true;
    return true;
}

void Mutex::unlock() {
    std::unique_lock lk{m_mutex};
    assert(m_locked);
    if (m_waiters.empty()) {
        m_locked = false;
        return;
    }
    // FIFO handoff: m_locked stays true; the woken waiter owns the mutex.
    detail::WaitNode* node = m_waiters.pop_front();
    lk.unlock();
    detail::wake_node(node, m_cv, m_mutex);
}

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

void CondVar::wait(Mutex& mtx) {
    detail::WaitNode node;
    node.ult = current_ult();
    {
        std::lock_guard lk{m_mutex};
        m_waiters.push_back(&node);
    }
    mtx.unlock();
    if (node.ult != nullptr) {
        suspend_current();
    } else {
        std::unique_lock lk{m_mutex};
        m_cv.wait(lk, [&] { return node.signaled.load(std::memory_order_acquire); });
    }
    mtx.lock();
}

bool CondVar::wait_for(Mutex& mtx, std::chrono::microseconds timeout) {
    detail::WaitNode node;
    node.ult = current_ult();
    {
        std::lock_guard lk{m_mutex};
        m_waiters.push_back(&node);
    }
    mtx.unlock();
    if (node.ult != nullptr) {
        Timer& timer = node.ult->runtime->timer();
        auto tid = timer.schedule_wakeup(timeout, [this, &node] {
            std::unique_lock lk{m_mutex};
            if (!m_waiters.remove(&node)) return; // already signaled
            node.timed_out = true;
            Ult* u = node.ult;
            lk.unlock();
            resume(u);
        });
        suspend_current();
        timer.cancel(tid);
    } else {
        std::unique_lock lk{m_mutex};
        bool ok = m_cv.wait_for(lk, timeout,
                                [&] { return node.signaled.load(std::memory_order_acquire); });
        if (!ok) {
            if (m_waiters.remove(&node)) {
                node.timed_out = true;
            } else {
                // A signaler already dequeued us; wait until it finishes
                // touching the (stack-allocated) node before returning.
                m_cv.wait(lk, [&] { return node.signaled.load(std::memory_order_acquire); });
            }
        }
    }
    mtx.lock();
    return !node.timed_out;
}

void CondVar::signal_one() {
    detail::WaitNode* node = nullptr;
    {
        std::lock_guard lk{m_mutex};
        node = m_waiters.pop_front();
    }
    if (node != nullptr) detail::wake_node(node, m_cv, m_mutex);
}

void CondVar::signal_all() {
    // Dequeue everything under the lock, then wake outside it. Unlike the
    // one-shot primitives, CondVar waiters re-check a predicate under the
    // paired abt::Mutex, so waking them one at a time is fine — but an
    // external-thread waiter may time out, fail remove(), and then block on
    // `signaled`, so the chain must not be walked after a node is signaled.
    // wake_node touches exactly one node, and the next pointer is read
    // before signaling it.
    detail::WaitList waiters;
    {
        std::lock_guard lk{m_mutex};
        waiters = m_waiters.take();
    }
    for (detail::WaitNode* node = waiters.head; node != nullptr;) {
        detail::WaitNode* next = node->next;
        detail::wake_node(node, m_cv, m_mutex);
        node = next;
    }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

void Barrier::wait() {
    m_mutex.lock();
    std::uint64_t gen = m_generation;
    if (++m_arrived == m_expected) {
        m_arrived = 0;
        ++m_generation;
        m_mutex.unlock();
        m_cv.signal_all();
        return;
    }
    while (gen == m_generation) m_cv.wait(m_mutex);
    m_mutex.unlock();
}

} // namespace mochi::abt
