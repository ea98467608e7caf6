// The scheduler of every execution stream: a crew of OS worker threads that
// pull ULTs from the pools of the xstreams registered with it.
//
// A standalone Xstream owns an Executor with one worker, so it costs one OS
// thread, as an Argobots ES does. Lightweight runtimes instead register all
// their xstreams with one shared Executor whose small fixed crew services
// the pools of many xstreams (possibly across many Runtimes): a process
// simulating 100+ Margo instances then does not burn hundreds of mostly
// idle threads. Sharing works because execute_ult() is reentrant and ULTs
// never block their carrier thread: an idle progress loop parks as a
// suspended fiber, costing the crew nothing.
//
// Quiescence contract: unregister() returns only when no worker is inside
// the entry — after it, the caller may unsubscribe the xstream's pools and
// finalize its runtime safely.
#pragma once

#include "abt/ult.hpp"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mochi::abt {

class Xstream;

class Executor {
  public:
    /// One registered xstream. Workers pop from `xs`'s pools while
    /// `removed` is clear; `active` counts workers currently inside the
    /// entry (the quiescence token unregister() waits on).
    struct Entry {
        Xstream* xs = nullptr;
        std::atomic<bool> removed{false};
        std::atomic<int> active{0};
    };

    explicit Executor(std::size_t workers = 0); ///< 0 => a hardware-derived default
    ~Executor();
    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    /// Register an xstream; workers start servicing its pools.
    std::shared_ptr<Entry> register_xstream(Xstream* xs);

    /// Stop servicing `entry` and wait until no worker touches it.
    /// Must not be called from a worker currently inside `entry` (a ULT
    /// cannot quiesce its own carrier — same rule as an ES joining itself).
    void unregister(const std::shared_ptr<Entry>& entry);

    /// Wake an idle worker (called from Pool::push via Xstream::notify).
    void notify();

  private:
    using Entries = std::vector<std::shared_ptr<Entry>>;

    void worker_loop();

    std::mutex m_entries_mutex;
    /// Copy-on-write snapshot: workers re-copy the shared_ptr only when
    /// m_generation moved, so a sweep takes no lock and registration churn
    /// never blocks a sweep mid-iteration.
    std::shared_ptr<const Entries> m_entries;
    std::atomic<std::uint64_t> m_generation{0}; ///< bumped under m_entries_mutex
    std::condition_variable m_quiesce_cv; ///< waits on Entry::active, under m_entries_mutex

    std::mutex m_cv_mutex;
    std::condition_variable m_cv;
    bool m_wake_pending = false;
    std::atomic<bool> m_stop{false};
    std::vector<std::thread> m_threads;
};

} // namespace mochi::abt
