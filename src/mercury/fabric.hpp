// The simulated network fabric: the stand-in for Mercury's NA transport
// layer (DESIGN.md §4, substitutions). Endpoints attach under a string
// address; messages are delivered to the target's callback after a delay
// computed from a per-link cost model (latency + size/bandwidth with link
// serialization). Fault injection supports the paper's resilience scenarios:
// crashed endpoints (§7), network partitions and silent message loss (SWIM,
// RAFT elections).
#pragma once

#include "abt/executor.hpp"
#include "abt/timer.hpp"
#include "common/expected.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

namespace mochi::mercury {

/// One network message. `kind` disambiguates the RPC protocol implemented by
/// Margo on top of this layer.
struct Message {
    enum class Kind : std::uint8_t { Request, Response };

    Kind kind = Kind::Request;
    std::uint64_t rpc_id = 0;
    std::uint16_t provider_id = 0;
    std::string rpc_name;             ///< full RPC name; guards against rpc_id
                                      ///< (32-bit hash) collisions at dispatch
    std::uint64_t seq = 0;            ///< correlation id (request <-> response)
    std::string source;               ///< sender address
    std::string payload;
    // Monitoring context propagated with the call (§4, Listing 1).
    std::uint64_t parent_rpc_id = 0;
    std::uint16_t parent_provider_id = 0;
    // Distributed-tracing context propagated with the call: the trace this
    // request belongs to and the origin-side (forward) span that sent it.
    // 0 = untraced. The target's handler span links to `span_id` as parent,
    // which is what stitches nested forwards, migrations, and replication
    // into one cross-process trace.
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    /// Multi-tenant QoS identity propagated with the call (carried like the
    /// tracing context above). 0 = untenanted (legacy clients): the target
    /// dispatches it at default priority and applies no quotas.
    std::uint32_t tenant_id = 0;
    /// Response status: 0 = ok; otherwise an Error::Code cast to int.
    std::int32_t status = 0;
};

/// Cost model of one directional link, including fault-injection knobs for
/// the lifecycle stress scenarios (drops, delay jitter, duplication).
struct LinkModel {
    double latency_us = 0.0;            ///< propagation + per-message overhead
    double bandwidth_bytes_per_us = 0.0; ///< 0 => infinite
    double loss_probability = 0.0;       ///< silent drops
    double duplicate_probability = 0.0;  ///< deliver a second, delayed copy
    double jitter_us = 0.0;              ///< uniform [0, jitter_us) extra delay;
                                         ///< deliveries are clamped so jitter
                                         ///< never reorders a link's messages

    [[nodiscard]] double transfer_us(std::size_t bytes) const noexcept {
        if (bandwidth_bytes_per_us <= 0.0) return 0.0;
        return static_cast<double>(bytes) / bandwidth_bytes_per_us;
    }
};

/// Registered RDMA-exposed memory region (Mercury bulk handle).
struct BulkRegion {
    char* data = nullptr;
    std::size_t size = 0;
    bool writable = false;
};

/// A remotely usable bulk handle descriptor (what gets sent inside RPC
/// arguments, as in REMI's migration protocol).
struct BulkHandle {
    std::string address;   ///< owner endpoint
    std::uint64_t id = 0;  ///< region id at the owner
    std::uint64_t size = 0;

    template <typename A>
    void serialize(A& ar) {
        ar& address& id& size;
    }
};

class Fabric;

/// An attached communication endpoint: one per simulated service process.
class Endpoint {
  public:
    using MessageHandler = std::function<void(Message)>;

    ~Endpoint();
    Endpoint(const Endpoint&) = delete;
    Endpoint& operator=(const Endpoint&) = delete;

    [[nodiscard]] const std::string& address() const noexcept { return m_address; }

    /// Send a message; returns Unreachable if the target is not attached
    /// (crashed/never existed). Partitioned or lossy links drop silently.
    Status send(const std::string& dst, Message msg);

    /// Expose a memory region for remote bulk access; returns its handle.
    BulkHandle expose(char* data, std::size_t size, bool writable);
    void unexpose(std::uint64_t id);

    /// RDMA-like transfer between a local buffer and a remote exposed
    /// region. `pull` copies remote->local; otherwise local->remote (the
    /// remote region must be writable). Returns the modeled transfer
    /// duration in microseconds; the caller is responsible for realizing it
    /// (Margo sleeps ULT-aware so the execution stream stays usable).
    Expected<double> bulk_pull(const BulkHandle& remote, std::size_t remote_offset, char* local,
                               std::size_t size);
    Expected<double> bulk_push(const BulkHandle& remote, std::size_t remote_offset,
                               const char* local, std::size_t size);
    /// Pull all `remote.size` bytes of a handle into `out`. `out` is sized
    /// only after the owner's region is found, under the region lock, to
    /// hold that many bytes, so a forged size is rejected (InvalidArgument)
    /// before anything is allocated for it.
    Expected<double> bulk_pull_all(const BulkHandle& remote, std::string& out);

    void detach();

  private:
    friend class Fabric;
    Endpoint(std::shared_ptr<Fabric> fabric, std::string address, MessageHandler handler);

    std::shared_ptr<Fabric> m_fabric;
    std::string m_address;
    MessageHandler m_handler;
    /// Held shared around every handler invocation; detach() takes it
    /// exclusively after flipping m_attached, so once detach() returns no
    /// delivery is running and none will start. Without this, a
    /// timer-scheduled delivery could race the m_attached check and call
    /// into a handler whose owner is already being destroyed.
    std::shared_mutex m_deliver_mutex;
    std::mutex m_regions_mutex;
    std::map<std::uint64_t, BulkRegion> m_regions;
    std::atomic<std::uint64_t> m_next_region_id{1};
    std::atomic<bool> m_attached{false};
};

/// The fabric shared by all simulated processes of one test/benchmark.
class Fabric : public std::enable_shared_from_this<Fabric> {
  public:
    static std::shared_ptr<Fabric> create(LinkModel default_link = {}, std::uint64_t seed = 1);
    ~Fabric();

    /// Attach an endpoint. Fails if the address is taken.
    Expected<std::shared_ptr<Endpoint>> attach(std::string address,
                                               Endpoint::MessageHandler handler);

    // -- fault injection -----------------------------------------------------

    /// Partition: cut both directions between a and b. Idempotent.
    void cut(const std::string& a, const std::string& b);
    /// Heal a previously cut pair.
    void heal(const std::string& a, const std::string& b);
    /// Heal everything.
    void heal_all();
    /// Override the model for one directional link.
    void set_link(const std::string& src, const std::string& dst, LinkModel model);
    /// Change the default model for links without an override.
    void set_default_link(LinkModel model);
    /// Globally enable/disable the cached fast path (default: enabled).
    /// Benchmarks use this for before/after ablations; links fall back to
    /// the mutex-guarded delivery path when disabled.
    void set_fast_path_enabled(bool enabled);

    /// Addresses currently attached.
    [[nodiscard]] std::vector<std::string> attached() const;
    [[nodiscard]] bool is_attached(const std::string& addr) const;

    // -- shared execution for lightweight nodes ------------------------------
    //
    // Lazily-created resources backing "lightweight" margo instances: one
    // worker crew and one timer thread shared by every such instance on this
    // fabric, instead of one ES thread + one timer thread per node. The
    // fabric is the natural owner — it is the one object all simulated
    // processes of a test already share and outlive. Instances must be shut
    // down before the fabric is destroyed (Cluster guarantees this).

    /// The shared scheduling executor (created on first use).
    [[nodiscard]] abt::Executor& lite_executor();
    /// The shared parent timer for lightweight runtimes' child timers.
    [[nodiscard]] abt::Timer& lite_timer();

    /// Total messages delivered (for tests and monitoring cross-checks):
    /// one count per handler invocation, whichever path delivered it.
    ///
    /// Ordering contract: m_delivered is a statistics counter, not a
    /// synchronization point. Increments and this load are all
    /// `memory_order_relaxed`: the count is monotonically exact, but reading
    /// it implies nothing about the visibility of any message's side
    /// effects. Tests that compare it against per-message effects must
    /// establish their own happens-before (e.g. join the RPC first).
    [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
        return m_delivered.load(std::memory_order_relaxed);
    }

  private:
    friend class Endpoint;
    explicit Fabric(LinkModel default_link, std::uint64_t seed);

    Status send_from(const std::string& src, const std::string& dst, Message msg);
    /// With `resize` set (a pull), `local` is ignored: the region is copied
    /// into `*resize`, sized to `size` once the bounds check has passed.
    Expected<double> bulk_op(const std::string& src, const BulkHandle& remote,
                             std::size_t remote_offset, char* local, std::size_t size, bool pull,
                             std::string* resize = nullptr);
    void do_detach(const std::string& addr);

    /// Per directional link timing state. Map nodes are never erased, so
    /// a scheduled delivery may hold a LinkState* across the timer wait.
    struct LinkState {
        double busy_until_us = 0.0;    ///< transfers occupy the link until then
        double last_delivery_us = 0.0; ///< latest delivery time handed out
        /// Deliveries still waiting in m_timer (incremented under m_mutex,
        /// decremented once the handler returned): a message may be
        /// delivered inline only when this is 0, or it would overtake them.
        std::atomic<std::uint32_t> pending{0};
    };

    /// Compute the modeled completion delay for `bytes` on link src->dst and
    /// advance the link's busy horizon (serializes transfers per link).
    [[nodiscard]] double reserve_link_us(const std::string& src, const std::string& dst,
                                         std::size_t bytes);
    /// Queue `msg` for delivery at `at_us` (µs since m_epoch). Called under
    /// m_mutex, so deliveries with equal times keep their send order.
    void schedule_delivery(LinkState& link, const std::shared_ptr<Endpoint>& target,
                           Message msg, double at_us);
    /// Hand `msg` to the target's handler unless it detached meanwhile.
    void deliver(Endpoint& target, Message msg);
    [[nodiscard]] bool link_blocked(const std::string& src, const std::string& dst) const;
    [[nodiscard]] LinkModel link_model(const std::string& src, const std::string& dst) const;

    // -- fast path -----------------------------------------------------------

    /// Per-thread cached verdict for one (fabric, src, dst) triple, so the
    /// sender's hot path touches neither m_mutex nor the endpoint map. A
    /// cached entry is valid only while its epoch matches m_epoch; every
    /// topology/model mutation bumps the epoch, forcing revalidation.
    struct FastSendCacheEntry {
        std::uint64_t fabric_uid = 0;
        std::uint64_t epoch = 0;
        bool eligible = false;
        std::string src, dst;
        std::weak_ptr<Endpoint> target;
    };

    /// Recompute `entry` under m_mutex. Returns entry.eligible.
    bool validate_fast_entry(const std::string& src, const std::string& dst,
                             FastSendCacheEntry& entry);
    /// Deliver inline to the target's handler over a cached clean-link
    /// verdict; false => use the slow path.
    bool try_fast_send(const std::string& src, const std::string& dst, Message& msg);
    /// Bump m_epoch; call with m_mutex held, after any mutation that could
    /// change a cached fast-path verdict.
    void bump_epoch_locked() noexcept {
        m_topology_epoch.fetch_add(1, std::memory_order_release);
    }

    mutable std::mutex m_mutex;
    LinkModel m_default_link;
    std::map<std::string, std::weak_ptr<Endpoint>> m_endpoints;
    std::set<std::pair<std::string, std::string>> m_cuts; ///< directional
    std::map<std::pair<std::string, std::string>, LinkModel> m_links;
    std::map<std::pair<std::string, std::string>, LinkState> m_link_state;
    std::mt19937_64 m_rng;
    std::atomic<std::uint64_t> m_delivered{0};
    abt::Timer m_timer; ///< delayed message delivery
    /// Lightweight-node resources (see lite_executor/lite_timer). Kept
    /// separate from m_timer so node-side callbacks (samplers, RPC
    /// timeouts) never add jitter to modeled message delivery times.
    std::once_flag m_lite_once;
    std::unique_ptr<abt::Executor> m_lite_executor;
    std::unique_ptr<abt::Timer> m_lite_timer;
    std::chrono::steady_clock::time_point m_epoch;
    /// Distinguishes this fabric in the thread-local send caches (a new
    /// fabric may reuse a destroyed one's address).
    const std::uint64_t m_uid;
    /// Generation counter for cached fast-path verdicts (see
    /// FastSendCacheEntry). Mutated under m_mutex only.
    std::atomic<std::uint64_t> m_topology_epoch{1};
    std::atomic<bool> m_fast_path_enabled{true};

    [[nodiscard]] double now_us() const;
};

} // namespace mochi::mercury
