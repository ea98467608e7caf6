// The elastic (and optionally resilient) sharded key-value service — the
// paper's capstone composition. It assembles:
//   - Yokan shard providers managed by Bedrock on every node (Listing 3),
//   - REMI for shard migration and split/merge data movement (§6 Obs. 4-5),
//   - Pufferscale for rebalancing decisions (§6 Obs. 6, executed through
//     dependency injection),
//   - Margo monitoring as the load signal driving those decisions (§4),
//   - SSG for dynamic membership, SWIM fault detection, and layout
//     dissemination (§6 Obs. 7, §7 Obs. 12),
//   - periodic checkpoints to the simulated PFS plus a top-down controller
//     that re-provisions shards of dead nodes (§7 Obs. 9 + "top-down"
//     design).
//
// Routing plane: instead of a per-op-refreshable shard directory, the
// controller publishes an epoch-numbered consistent-hash **Layout** (see
// layout.hpp) from which every process computes `key -> shard -> node`
// locally. The layout reaches servers by direct push (update_epoch RPC) and
// by SSG payload gossip; detached clients bootstrap it once from the
// controller (or any group member) and afterwards learn of changes only
// through the epoch hints piggybacked on their own data RPCs — steady-state
// traffic does zero directory lookups. Shards split (bisecting their hash
// range, moving ~1/2N of the keys over REMI) and merge (into their ring
// predecessor), which a modulo-hashed directory fundamentally cannot do
// without remapping every key.
#pragma once

#include "composed/cluster.hpp"
#include "composed/layout.hpp"
#include "pufferscale/rebalancer.hpp"
#include "ssg/group.hpp"
#include "yokan/provider.hpp"

#include <set>

namespace mochi::composed {

struct ElasticKvConfig {
    std::size_t num_shards = 16; ///< initial shard count (splits/merges change it)
    std::string backend = "map";
    remi::Method migration_method = remi::Method::Chunks;
    pufferscale::Objectives objectives;
    bool enable_resilience = false; ///< SWIM detection + shard re-provisioning
    bool enable_swim = true;
    std::chrono::milliseconds swim_period{100};
    std::string group_name = "elastic_kv";
    /// Margo instance config applied to every service node (including ones
    /// spawned later by scale_up / the autoscaler): pool/xstream layout,
    /// and the "qos" tenant table — e.g. a prio_wait handler pool plus
    /// per-tenant weights/quotas for multi-tenant deployments.
    json::Value margo;
};

class ElasticKvService {
  public:
    /// Deploy the service over `addresses` (nodes are spawned in `cluster`).
    static Expected<std::unique_ptr<ElasticKvService>>
    create(Cluster& cluster, std::vector<std::string> addresses, ElasticKvConfig config = {});

    ~ElasticKvService();

    // -- client operations (routed through the layout) -------------------------

    Status put(const std::string& key, const std::string& value);
    Expected<std::string> get(const std::string& key);
    Status erase(const std::string& key);

    /// Snapshot of the current layout (what the controller publishes).
    [[nodiscard]] Layout layout() const;
    [[nodiscard]] std::uint64_t epoch() const;
    [[nodiscard]] std::size_t num_shards() const;
    [[nodiscard]] std::vector<std::string> nodes() const;
    [[nodiscard]] std::uint64_t group_digest() const;

    /// Shard id a key routes to (under the current layout).
    [[nodiscard]] std::uint32_t shard_of(const std::string& key) const;

    // -- elasticity (§6) --------------------------------------------------------

    /// Add a node and rebalance shards onto it.
    Status scale_up(const std::string& address);
    /// Drain a node's shards to the others, then release it.
    Status scale_down(const std::string& address);
    /// Rebalance with Pufferscale using live monitoring-derived load.
    Status rebalance();
    /// Weighted-layout rebalance: reassign shards to nodes by weighted
    /// rendezvous hashing (pufferscale-derived weights), migrate the shards
    /// that moved, and publish the new epoch.
    Status rebalance_weighted(const std::vector<WeightedNode>& weights);
    /// Shard load/size snapshot (the Pufferscale input), derived from each
    /// node's Margo monitoring statistics (§4) and Yokan sizes.
    [[nodiscard]] std::vector<pufferscale::Resource> shard_resources() const;

    // -- shard split / merge ----------------------------------------------------

    /// Split a (hot) shard: bisect its hash range, seed a child provider
    /// with the upper half's keys (REMI when the child lands on another
    /// node), flip the layout, then drop the moved keys from the parent.
    /// Only ~1/2N of the service's keys move. Returns the applied plan.
    Expected<Layout::SplitPlan> split_shard(std::uint32_t shard_id,
                                            std::string child_node = {});
    /// Merge a (cold) shard into its ring predecessor: the victim's keys
    /// are staged into the survivor, the layout flips, and the victim
    /// provider is stopped. Returns the applied plan.
    Expected<Layout::MergePlan> merge_shards(std::uint32_t victim_id);

    // -- resilience (§7) ---------------------------------------------------------

    /// Checkpoint every shard to the PFS (also runs before risky steps).
    Status checkpoint_all();
    /// Number of shard re-provisionings performed by the controller.
    [[nodiscard]] std::size_t recoveries() const noexcept { return m_recoveries.load(); }

    static constexpr std::uint16_t k_remi_provider_id = 1;
    static constexpr std::uint16_t k_first_shard_provider_id = 100;

    /// Provider id shard `id` is served under (stable across moves).
    [[nodiscard]] static constexpr std::uint16_t shard_provider_id(std::uint32_t id) noexcept {
        return static_cast<std::uint16_t>(k_first_shard_provider_id + id);
    }

    /// Address of the controller process (serves the layout RPC).
    [[nodiscard]] const std::string& controller_address() const {
        return m_client->address();
    }

  private:
    ElasticKvService(Cluster& cluster, ElasticKvConfig config)
    : m_cluster(cluster), m_config(std::move(config)) {}

    Status spawn_service_node(const std::string& address);
    [[nodiscard]] json::Value node_bootstrap_config() const;
    [[nodiscard]] json::Value shard_descriptor(std::uint32_t shard) const;
    Status migrate_shard(std::uint32_t shard, const std::string& dest);
    void on_member_died(const std::string& address);
    Status recover_shards_of(const std::string& address);
    /// Push the current layout everywhere: update_epoch RPC to every shard
    /// provider, payload publish into the SSG group, so both guarded
    /// servers and gossip listeners see the new epoch.
    void publish_layout();
    /// Client handle to shard `id` under the current layout.
    [[nodiscard]] yokan::Database shard_db(const LayoutShard& shard) const {
        return yokan::Database{m_client, shard.node, shard_provider_id(shard.id)};
    }
    [[nodiscard]] std::string shard_name(std::uint32_t shard) const {
        return "shard" + std::to_string(shard);
    }
    [[nodiscard]] std::string shard_root(std::uint32_t shard) const {
        return "/yokan/" + shard_name(shard) + "/";
    }
    [[nodiscard]] std::string checkpoint_path(std::uint32_t shard) const {
        return "/ckpt/" + m_config.group_name + "/" + shard_name(shard);
    }

    Cluster& m_cluster;
    ElasticKvConfig m_config;
    margo::InstancePtr m_client; ///< the controller/client margo instance

    mutable std::mutex m_mutex;
    Layout m_layout;
    std::set<std::string> m_nodes;
    std::map<std::string, std::shared_ptr<ssg::Group>> m_groups; ///< per node
    std::atomic<std::size_t> m_recoveries{0};
    std::atomic<bool> m_stopping{false};
};

/// A detached application client. It bootstraps the layout once (from the
/// controller, or from any SSG member via refresh_from_member) and from then
/// on routes every operation locally: key -> shard -> node is computed from
/// the cached layout, and the layout epoch rides on every data RPC. When the
/// layout moved on, the server rejects the stale request with a retryable
/// error carrying the new epoch — and usually the new layout itself — so the
/// client repairs its cache *from the rejection* and retries, without ever
/// asking a directory. Steady-state traffic therefore performs zero
/// layout/directory RPCs.
class ElasticKvClient {
  public:
    /// `instance` is the application's own margo runtime; `controller` the
    /// address returned by ElasticKvService::controller_address().
    ElasticKvClient(margo::InstancePtr instance, std::string controller);

    Status put(const std::string& key, const std::string& value);
    Expected<std::string> get(const std::string& key);
    Status erase(const std::string& key);

    /// Batched writes: pairs are grouped by shard and each group leaves as
    /// one put_multi RPC, all shards in flight concurrently (async
    /// forwards). On a stale layout only the *failed* shard groups are
    /// regrouped under the repaired layout and re-sent (put_multi is
    /// idempotent); groups that succeeded are not re-sent.
    Status put_multi(const std::vector<std::pair<std::string, std::string>>& pairs);
    /// Batched reads, same shard-grouped fan-out with per-group retry;
    /// results align with `keys` (nullopt for missing keys).
    Expected<std::vector<std::optional<std::string>>>
    get_multi(const std::vector<std::string>& keys);

    /// Explicitly refresh the cached layout from the controller.
    Status refresh();
    /// Refresh from any SSG group member instead of the controller (the
    /// dissemination path detached clients use when the controller is
    /// unreachable).
    Status refresh_from_member(const std::string& member_address,
                               const std::string& group_name = "elastic_kv");

    /// Epoch of the cached layout.
    [[nodiscard]] std::uint64_t cached_version() const noexcept {
        return m_layout.epoch();
    }
    [[nodiscard]] const Layout& cached_layout() const noexcept { return m_layout; }
    /// Explicit layout fetches performed (bootstrap + fallback refreshes).
    [[nodiscard]] std::size_t refreshes() const noexcept { return m_refreshes; }
    /// Operations retried after a piggybacked stale-epoch rejection.
    [[nodiscard]] std::size_t stale_retries() const noexcept { return m_stale_retries; }

  private:
    template <typename Op>
    auto with_routing(const std::string& key, Op op)
        -> decltype(op(std::declval<yokan::Database&>()));

    /// Adopt a layout blob if its epoch is newer than the cache.
    bool adopt(std::uint64_t epoch, const std::string& blob);
    /// Handle a stale-epoch rejection: repair the cache from the piggybacked
    /// layout when present, refresh explicitly otherwise. True if the cache
    /// advanced (retry is worthwhile).
    bool handle_stale(const Error& err);
    Status ensure_layout();
    [[nodiscard]] yokan::Database shard_db(const LayoutShard& shard) const {
        return yokan::Database{m_instance, shard.node,
                               ElasticKvService::shard_provider_id(shard.id),
                               m_epoch_context};
    }

    margo::InstancePtr m_instance;
    std::string m_controller;
    Layout m_layout;
    std::shared_ptr<yokan::EpochContext> m_epoch_context;
    std::size_t m_refreshes = 0;
    std::size_t m_stale_retries = 0;
    // Process-wide totals, resolved once; the registry owns them.
    margo::Counter& m_refreshes_total;     ///< elastic_layout_refreshes_total
    margo::Counter& m_stale_retries_total; ///< elastic_stale_epoch_retries_total
};

} // namespace mochi::composed
