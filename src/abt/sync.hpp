// ULT-aware synchronization primitives. Every primitive supports *mixed*
// waiters: a ULT blocks by suspending its fiber (freeing the execution
// stream to run other work — the property that makes Margo handlers cheap),
// while a plain OS thread blocks on a condition variable. This mirrors
// Argobots/Margo semantics where e.g. margo_wait() may be called both from
// handler ULTs and from the application's main thread.
//
// Waiters are linked intrusively through their stack-resident WaitNodes, so
// parking and waking never allocate — a property the RPC hot path depends
// on (every forward waits on an Eventual, and the allocation-count
// regression test asserts the warm path is heap-free).
#pragma once

#include "abt/runtime.hpp"
#include "abt/timer.hpp"
#include "abt/ult.hpp"

#include <condition_variable>
#include <mutex>
#include <optional>
#include <vector>

namespace mochi::abt {

namespace detail {

/// One parked waiter. Lives on the waiter's stack; the contract is that a
/// node is only touched (a) under the owning primitive's lock while it is
/// still linked, or (b) by the waiter itself after being woken.
struct WaitNode {
    Ult* ult = nullptr;               ///< nullptr => external-thread waiter
    std::atomic<bool> signaled{false};
    bool timed_out = false;
    WaitNode* next = nullptr;         ///< intrusive FIFO link (see WaitList)
};

/// Intrusive FIFO of WaitNodes. Nodes are stack-resident; the list only
/// stores pointers into them, so linking/unlinking is allocation-free.
/// All operations require the owning primitive's lock.
struct WaitList {
    WaitNode* head = nullptr;
    WaitNode* tail = nullptr;

    [[nodiscard]] bool empty() const noexcept { return head == nullptr; }

    void push_back(WaitNode* n) noexcept {
        n->next = nullptr;
        if (tail)
            tail->next = n;
        else
            head = n;
        tail = n;
    }

    WaitNode* pop_front() noexcept {
        WaitNode* n = head;
        if (n) {
            head = n->next;
            if (!head) tail = nullptr;
            n->next = nullptr;
        }
        return n;
    }

    /// Unlink `target` if present; returns false when it was already
    /// removed (i.e. a waker claimed it).
    bool remove(WaitNode* target) noexcept {
        WaitNode* prev = nullptr;
        for (WaitNode* n = head; n; prev = n, n = n->next) {
            if (n != target) continue;
            if (prev)
                prev->next = n->next;
            else
                head = n->next;
            if (tail == n) tail = prev;
            n->next = nullptr;
            return true;
        }
        return false;
    }

    /// Detach the whole list, leaving this one empty.
    [[nodiscard]] WaitList take() noexcept {
        WaitList out = *this;
        head = tail = nullptr;
        return out;
    }
};

/// Wake a single node: marks it signaled, then resumes the fiber or pokes
/// the external-thread condvar. Call *without* holding the primitive lock;
/// `mtx` is the primitive's internal mutex (the one external waiters sleep
/// on). For an external-thread waiter the signaled flag must be published
/// while holding that mutex: the waiter holds it from predicate check to
/// sleep, so a lock-free store could land in between and the notify would
/// be lost — the waiter then sleeps forever on an already-true predicate.
inline void wake_node(WaitNode* node, std::condition_variable& cv, std::mutex& mtx) {
    Ult* u = node->ult;
    if (u != nullptr) {
        node->signaled.store(true, std::memory_order_release);
        resume(u);
    } else {
        {
            std::lock_guard lk{mtx};
            node->signaled.store(true, std::memory_order_release);
        }
        cv.notify_all();
    }
}

/// Wake every waiter of a one-shot primitive without touching the primitive
/// after its lock drops. Call with the lock held and readiness already
/// published under it. The moment the lock is released, any waiter that
/// observed readiness may return and destroy the primitive (e.g. the
/// stack-local Eventual in Runtime::sleep_for), so external-thread signaling
/// and the condvar broadcast both happen under the lock. Suspended-fiber
/// nodes live on stacks that stay parked until resumed, and resuming
/// touches only the node and runtime structures — never the primitive — so
/// fibers are woken after the unlock, where resume() is safe to run.
inline void wake_all_and_release(std::unique_lock<std::mutex> lk, std::condition_variable& cv,
                                 WaitList waiters) {
    // Partition under the lock: an external-thread waiter may wake (via the
    // notify below) and destroy its stack-resident node the moment the lock
    // drops, so no node — including its `next` link — may be dereferenced
    // after unlock. Fiber waiters stay parked until resume() runs, so they
    // are relinked into a fiber-only chain here (their nodes, and thus the
    // chain, remain valid past the unlock).
    WaitList fibers;
    for (WaitNode* node = waiters.head; node != nullptr;) {
        WaitNode* next = node->next;
        node->signaled.store(true, std::memory_order_release);
        if (node->ult != nullptr) fibers.push_back(node);
        node = next;
    }
    // External-thread wait_for() blocks on the cv with a readiness predicate
    // without enqueuing a node, so always notify.
    cv.notify_all();
    lk.unlock();
    for (WaitNode* node = fibers.head; node != nullptr;) {
        // resume() hands the fiber back to its pool; the node (on the
        // fiber's stack) may be gone the instant it runs, so read the link
        // first.
        WaitNode* next = node->next;
        resume(node->ult);
        node = next;
    }
}

} // namespace detail

/// Eventual<T>: a one-shot value future (Argobots "eventual"). set_value()
/// may be called from any thread; wait() from ULTs or external threads.
template <typename T>
class Eventual {
  public:
    void set_value(T value) {
        std::unique_lock lk{m_mutex};
        if (m_ready) return; // one-shot; extra sets ignored
        m_value.emplace(std::move(value));
        complete(std::move(lk));
    }

    [[nodiscard]] bool test() const {
        std::lock_guard lk{m_mutex};
        return m_ready;
    }

    /// Block until set; returns a reference to the stored value.
    const T& wait() {
        wait_impl();
        return *m_value;
    }

    /// Block up to `timeout`; returns the value if set in time.
    std::optional<T> wait_for(std::chrono::microseconds timeout) {
        if (!wait_for_impl(timeout)) return std::nullopt;
        std::lock_guard lk{m_mutex};
        return m_value;
    }

    /// Like wait_for(), but *moves* the stored value out — for single-waiter
    /// protocols (one pending call, one waiter) where copying the value
    /// (e.g. a Message with a large payload) would defeat the zero-copy
    /// path. After a successful take_for(), other accessors see a
    /// moved-from value.
    std::optional<T> take_for(std::chrono::microseconds timeout) {
        if (!wait_for_impl(timeout)) return std::nullopt;
        std::lock_guard lk{m_mutex};
        return std::move(m_value);
    }

  private:
    void complete(std::unique_lock<std::mutex> lk) {
        m_ready = true;
        detail::wake_all_and_release(std::move(lk), m_cv, m_waiters.take());
    }

    void wait_impl() {
        std::unique_lock lk{m_mutex};
        if (m_ready) return;
        detail::WaitNode node;
        node.ult = current_ult();
        if (node.ult == nullptr) {
            m_waiters.push_back(&node);
            m_cv.wait(lk, [&] { return node.signaled.load(std::memory_order_acquire); });
            return;
        }
        m_waiters.push_back(&node);
        lk.unlock();
        suspend_current();
    }

    bool wait_for_impl(std::chrono::microseconds timeout) {
        std::unique_lock lk{m_mutex};
        if (m_ready) return true;
        detail::WaitNode node;
        node.ult = current_ult();
        if (node.ult == nullptr) {
            return m_cv.wait_for(lk, timeout, [&] { return m_ready; });
        }
        m_waiters.push_back(&node);
        Timer& timer = node.ult->runtime->timer();
        auto tid = timer.schedule_wakeup(timeout, [this, &node] {
            std::unique_lock lk2{m_mutex};
            if (!m_waiters.remove(&node)) return; // already woken by set_value
            node.timed_out = true;
            Ult* u = node.ult;
            lk2.unlock();
            resume(u);
        });
        lk.unlock();
        suspend_current();
        timer.cancel(tid); // blocks if the callback is mid-flight
        return !node.timed_out;
    }

    mutable std::mutex m_mutex;
    std::condition_variable m_cv;
    bool m_ready = false;
    std::optional<T> m_value;
    detail::WaitList m_waiters;
};

namespace detail {
struct Unit {};
} // namespace detail

/// Eventual<void>: a one-shot event, an Eventual over an empty value.
template <>
class Eventual<void> : private Eventual<detail::Unit> {
    using Base = Eventual<detail::Unit>;

  public:
    void set() { set_value({}); }
    using Base::test;
    void wait() { (void)Base::wait(); }
    bool wait_for(std::chrono::microseconds timeout) {
        return Base::wait_for(timeout).has_value();
    }
};

/// ULT-aware mutex with FIFO handoff (no barging, so ULT waiters cannot be
/// starved by external threads). Satisfies Lockable.
class Mutex {
  public:
    void lock();
    bool try_lock();
    void unlock();

  private:
    std::mutex m_mutex;
    std::condition_variable m_cv;
    bool m_locked = false;
    detail::WaitList m_waiters;
};

/// ULT-aware condition variable paired with abt::Mutex.
class CondVar {
  public:
    void wait(Mutex& mtx);
    /// Returns false on timeout. Only callable from ULT or external thread.
    bool wait_for(Mutex& mtx, std::chrono::microseconds timeout);
    void signal_one();
    void signal_all();

  private:
    std::mutex m_mutex;
    std::condition_variable m_cv;
    detail::WaitList m_waiters;
};

/// Cyclic barrier for a fixed number of participants.
class Barrier {
  public:
    explicit Barrier(std::size_t count) : m_expected(count) {}
    void wait();

  private:
    Mutex m_mutex;
    CondVar m_cv;
    std::size_t m_expected;
    std::size_t m_arrived = 0;
    std::uint64_t m_generation = 0;
};

} // namespace mochi::abt
