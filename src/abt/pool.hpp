// Work pools: thread-safe queues of ready ULTs. Execution streams subscribe
// to pools and are notified on push. Corresponds to Argobots pools as used
// by Margo (Figure 2 of the paper; "fifo_wait" / "prio_wait" kinds of
// Listing 2).
#pragma once

#include "abt/ult.hpp"
#include "common/expected.hpp"
#include "common/ring_queue.hpp"

#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

namespace mochi::abt {

class Xstream;

enum class PoolKind { Fifo, FifoWait, Prio };
enum class PoolAccess { Mpmc, Mpsc, Spmc, Spsc };

[[nodiscard]] Expected<PoolKind> pool_kind_from_string(std::string_view s);
[[nodiscard]] const char* to_string(PoolKind k) noexcept;
[[nodiscard]] Expected<PoolAccess> pool_access_from_string(std::string_view s);
[[nodiscard]] const char* to_string(PoolAccess a) noexcept;

/// A queue of runnable ULTs. All kinds are internally MPMC-safe; the access
/// mode is retained for configuration fidelity (Listing 2) and validation.
class Pool {
  public:
    Pool(std::string name, PoolKind kind, PoolAccess access);

    [[nodiscard]] const std::string& name() const noexcept { return m_name; }
    [[nodiscard]] PoolKind kind() const noexcept { return m_kind; }
    [[nodiscard]] PoolAccess access() const noexcept { return m_access; }

    /// Enqueue a ready ULT and wake one subscribed execution stream. After
    /// close(), a ULT that never ran (no stack yet) is refused and handed
    /// back; requeues of started ULTs still land. Returns nullptr otherwise.
    UltPtr push(UltPtr ult, int priority = 0);

    /// Refuse fresh ULTs from now on (Runtime::finalize).
    void close();

    /// Dequeue the next runnable ULT, or nullptr if empty.
    [[nodiscard]] UltPtr pop();

    /// Number of queued ULTs (the metric Margo's monitoring samples, §4).
    [[nodiscard]] std::size_t size() const;

    /// Total ULTs ever pushed (monotonic counter for monitoring).
    [[nodiscard]] std::uint64_t total_pushed() const;

    // Execution-stream subscription (managed by Xstream attach/detach).
    void subscribe(Xstream* es);
    void unsubscribe(Xstream* es);
    [[nodiscard]] std::size_t subscriber_count() const;

  private:
    struct Item {
        UltPtr ult;
        int priority;
        std::uint64_t seq;
    };

    std::string m_name;
    PoolKind m_kind;
    PoolAccess m_access;

    mutable std::mutex m_mutex;
    RingQueue<Item> m_queue;      // FIFO kinds (steady-state allocation-free)
    std::vector<Item> m_heap;     // Prio kind (max-heap by priority, FIFO ties)
    std::uint64_t m_seq = 0;
    std::uint64_t m_total_pushed = 0;
    bool m_closed = false;
    /// Subscribers are raw pointers into Runtime-owned Xstreams, so their
    /// lifetime is guarded by quiescence: push() notifies while holding
    /// m_sub_mutex shared, and unsubscribe() takes it exclusively — once
    /// unsubscribe returns, no in-flight notify can still touch the stream
    /// (remove_xstream destroys it right after). Separate from m_mutex so
    /// the queue critical section stays free of condvar/futex work.
    mutable std::shared_mutex m_sub_mutex;
    std::vector<Xstream*> m_subscribers;
};

} // namespace mochi::abt
