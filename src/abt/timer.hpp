// A shared timer thread: schedules callbacks at deadlines. Used for ULT
// sleeps, Eventual timeouts, Margo's periodic monitoring sampler (§4), SWIM
// protocol periods (§7), RAFT election timeouts and the fabric's delayed
// message delivery.
//
// Hot-path notes: every RPC forward schedules (and almost always cancels) a
// timeout entry, so this class is on the allocation- and wakeup-critical
// path. Map nodes come from a free list, and schedule() only pokes the
// timer thread when the new deadline is *earlier* than the one it is
// already sleeping toward — an RPC-timeout entry behind an existing
// deadline costs no context switch.
#pragma once

#include "common/pool_alloc.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

namespace mochi::abt {

class Timer {
  public:
    using Clock = std::chrono::steady_clock;
    using TimerId = std::uint64_t;

    /// A root timer: owns the thread and the entry queue.
    Timer();
    /// A child timer: no thread or queue of its own. Its entries live in
    /// `host`'s queue (the host must outlive it), tagged with the child as
    /// owner, and run on the host's thread. stop() removes exactly the
    /// entries the child owns and waits out one of its callbacks that is
    /// mid-flight, so after it returns none of the child's callbacks runs or
    /// is running — the finalize-safety a root timer gives by joining its
    /// thread — while the host and its other children keep ticking.
    /// Lightweight runtimes use this so 100+ nodes share one timer thread.
    explicit Timer(Timer& host);
    ~Timer();
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    /// Run `fn` once after `delay`. The callback executes on the timer
    /// thread and must be short and non-blocking (typically: resume a ULT).
    /// Returns 0 (and drops `fn`) once the timer is stopped.
    TimerId schedule(std::chrono::microseconds delay, std::function<void()> fn);

    /// Run `fn` once at `deadline`. Entries with equal deadlines run in the
    /// order they were scheduled. `wakeup`: see schedule_wakeup().
    TimerId schedule_at(Clock::time_point deadline, std::function<void()> fn,
                        bool wakeup = false);

    /// schedule() for a callback whose only job is to resume a parked ULT
    /// (a sleep or a timed wait): expire_wakeups() may run it early.
    TimerId schedule_wakeup(std::chrono::microseconds delay, std::function<void()> fn);

    /// Cancel a pending timer. Returns true if the callback was prevented
    /// from running. If the callback is currently executing, blocks until it
    /// finishes so that captured state can be destroyed safely afterwards.
    bool cancel(TimerId id);

    /// Run every pending wakeup entry of this timer now, on the calling
    /// thread; returns how many ran. Runtime::finalize uses it so ULTs
    /// parked on a sleep or timed wait finish instead of leaking. Only for
    /// callers that no one can race with cancel() on those entries (the ULTs
    /// they resume run on the calling thread).
    std::size_t expire_wakeups();

    /// Stop: pending callbacks owned by this timer are dropped. A root timer
    /// also joins its thread, dropping its children's entries with it.
    void stop();

  private:
    void loop();

    struct Entry {
        TimerId id;
        Timer* owner;
        bool wakeup;
        std::function<void()> fn;
    };
    using EntryMap =
        std::multimap<Clock::time_point, Entry, std::less<Clock::time_point>,
                      PoolAllocator<std::pair<const Clock::time_point, Entry>>>;

    Timer& m_host;          ///< owner of the queue and thread: *this for a root
    bool m_stopped = false; ///< guarded by m_host.m_mutex

    // Queue state; used on a root timer only.
    std::mutex m_mutex;
    std::condition_variable m_cv;
    std::shared_ptr<FreeList> m_node_pool = std::make_shared<FreeList>();
    EntryMap m_entries{PoolAllocator<std::pair<const Clock::time_point, Entry>>{m_node_pool}};
    TimerId m_next_id = 1;
    TimerId m_running_id = 0;         ///< id of the callback currently executing
    Timer* m_running_owner = nullptr; ///< its owner (a child's stop() waits on it)
    /// Deadline the timer thread is currently sleeping toward: max() while
    /// parked with no entries, min() while not blocked in a wait at all.
    /// schedule_at() compares against it (under m_mutex) to elide notifies.
    Clock::time_point m_wait_deadline = Clock::time_point::min();
    std::thread m_thread;
};

} // namespace mochi::abt
