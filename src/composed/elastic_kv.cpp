#include "composed/elastic_kv.hpp"
#include "common/logging.hpp"

#include <numeric>
#include <thread>

namespace mochi::composed {

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

json::Value ElasticKvService::node_bootstrap_config() const {
    // Listing-3-style bootstrap: every node gets the component libraries and
    // a REMI provider; shard providers are started dynamically.
    auto cfg = json::Value::object();
    // Deployment-wide margo config (QoS tenant table, prio pools) applies to
    // every node, so late joiners enforce the same tenancy policy as the
    // seed set.
    if (m_config.margo.is_object()) cfg["margo"] = m_config.margo;
    cfg["libraries"]["yokan"] = "libyokan.so";
    cfg["libraries"]["remi"] = "libremi.so";
    auto remi_desc = json::Value::object();
    remi_desc["name"] = "remi";
    remi_desc["type"] = "remi";
    remi_desc["provider_id"] = static_cast<std::int64_t>(k_remi_provider_id);
    cfg["providers"].push_back(std::move(remi_desc));
    return cfg;
}

json::Value ElasticKvService::shard_descriptor(std::uint32_t shard) const {
    auto desc = json::Value::object();
    desc["name"] = shard_name(shard);
    desc["type"] = "yokan";
    desc["provider_id"] = static_cast<std::int64_t>(shard_provider_id(shard));
    desc["config"]["name"] = shard_name(shard);
    desc["config"]["backend"] = m_config.backend;
    desc["dependencies"]["remi"] = "remi";
    return desc;
}

Expected<std::unique_ptr<ElasticKvService>>
ElasticKvService::create(Cluster& cluster, std::vector<std::string> addresses,
                         ElasticKvConfig config) {
    if (addresses.empty())
        return Error{Error::Code::InvalidArgument, "service needs at least one node"};
    yokan::register_module();
    remi::register_module();
    auto service =
        std::unique_ptr<ElasticKvService>(new ElasticKvService(cluster, std::move(config)));
    auto client = margo::Instance::create(
        cluster.fabric(), "sim://" + service->m_config.group_name + "-controller");
    if (!client) return client.error();
    service->m_client = std::move(client).value();

    for (const auto& addr : addresses) {
        if (auto st = service->spawn_service_node(addr); !st.ok()) return st.error();
    }
    // Initial layout: even ring partition, shards round-robin over nodes.
    Layout layout = Layout::initial(service->m_config.num_shards, addresses);
    for (const auto& shard : layout.shards()) {
        auto node = cluster.node(shard.node);
        if (auto st = node->start_provider(service->shard_descriptor(shard.id)); !st.ok())
            return st.error();
    }
    {
        std::lock_guard lk{service->m_mutex};
        service->m_layout = std::move(layout);
    }
    // Serve the layout to detached clients: the one explicit fetch they do
    // (bootstrap); everything after rides on piggybacked epoch hints.
    ElasticKvService* raw = service.get();
    (void)service->m_client->register_rpc(
        "elastic_kv/layout", margo::k_default_provider_id, [raw](const margo::Request& req) {
            auto layout = raw->layout();
            req.respond_values(layout.epoch(), layout.pack());
        });
    service->publish_layout();
    return service;
}

Status ElasticKvService::spawn_service_node(const std::string& address) {
    auto proc = m_cluster.spawn_node(address, node_bootstrap_config());
    if (!proc) return proc.error();
    {
        std::lock_guard lk{m_mutex};
        m_nodes.insert(address);
    }
    // Membership: bootstrap or join the SSG group on the node's runtime.
    ssg::GroupConfig gcfg;
    gcfg.enable_swim = m_config.enable_swim;
    gcfg.swim_period = m_config.swim_period;
    std::shared_ptr<ssg::Group> group;
    std::string seed;
    {
        std::lock_guard lk{m_mutex};
        for (const auto& [a, g] : m_groups) {
            seed = a;
            break;
        }
    }
    auto instance = (*proc)->margo_instance();
    if (seed.empty()) {
        auto g = ssg::Group::create(instance, m_config.group_name, {address}, gcfg);
        if (!g) return g.error();
        group = std::move(g).value();
    } else {
        auto g = ssg::Group::join(instance, m_config.group_name, seed, gcfg);
        if (!g) return g.error();
        group = std::move(g).value();
    }
    // Gossip-delivered layouts flow into the node's local shard providers
    // (supplements the controller's direct update_epoch push, and covers
    // providers the push raced with).
    group->on_payload([instance](std::uint64_t version, const std::string& blob) {
        yokan::apply_epoch_update(instance, version, blob);
    });
    if (m_config.enable_resilience) {
        group->on_membership_change([this](const std::string& addr,
                                           ssg::MembershipEvent ev) {
            if (ev == ssg::MembershipEvent::Died && !m_stopping.load()) on_member_died(addr);
        });
    }
    std::lock_guard lk{m_mutex};
    m_groups[address] = std::move(group);
    return {};
}

ElasticKvService::~ElasticKvService() {
    m_stopping.store(true);
    (void)m_client->deregister_rpc("elastic_kv/layout", margo::k_default_provider_id);
    {
        std::lock_guard lk{m_mutex};
        for (auto& [a, g] : m_groups) g->leave();
        m_groups.clear();
    }
    if (m_client) m_client->shutdown();
}

void ElasticKvService::publish_layout() {
    Layout layout;
    std::shared_ptr<ssg::Group> group;
    {
        std::lock_guard lk{m_mutex};
        layout = m_layout;
        if (!m_groups.empty()) group = m_groups.begin()->second;
    }
    if (layout.empty()) return;
    const std::string blob = layout.pack();
    // Direct push to every shard provider: after this returns, stale-epoch
    // requests are rejected service-wide (best effort per provider — a
    // missed one catches up via gossip or a guarded client's next request).
    for (const auto& shard : layout.shards())
        (void)shard_db(shard).update_epoch(layout.epoch(), blob);
    // One member publishes; SWIM piggybacks the version and the rest of the
    // group pulls the blob (anti-entropy).
    if (group) group->publish_payload(layout.epoch(), blob);
}

// ---------------------------------------------------------------------------
// Client operations
// ---------------------------------------------------------------------------

std::uint32_t ElasticKvService::shard_of(const std::string& key) const {
    std::lock_guard lk{m_mutex};
    return m_layout.shard_for_key(key).id;
}

Layout ElasticKvService::layout() const {
    std::lock_guard lk{m_mutex};
    return m_layout;
}

std::uint64_t ElasticKvService::epoch() const {
    std::lock_guard lk{m_mutex};
    return m_layout.epoch();
}

std::size_t ElasticKvService::num_shards() const {
    std::lock_guard lk{m_mutex};
    return m_layout.num_shards();
}

std::vector<std::string> ElasticKvService::nodes() const {
    std::lock_guard lk{m_mutex};
    return {m_nodes.begin(), m_nodes.end()};
}

std::uint64_t ElasticKvService::group_digest() const {
    std::lock_guard lk{m_mutex};
    if (m_groups.empty()) return 0;
    return m_groups.begin()->second->view_digest();
}

Status ElasticKvService::put(const std::string& key, const std::string& value) {
    LayoutShard shard;
    {
        std::lock_guard lk{m_mutex};
        shard = m_layout.shard_for_key(key);
    }
    return shard_db(shard).put(key, value);
}

Expected<std::string> ElasticKvService::get(const std::string& key) {
    LayoutShard shard;
    {
        std::lock_guard lk{m_mutex};
        shard = m_layout.shard_for_key(key);
    }
    return shard_db(shard).get(key);
}

Status ElasticKvService::erase(const std::string& key) {
    LayoutShard shard;
    {
        std::lock_guard lk{m_mutex};
        shard = m_layout.shard_for_key(key);
    }
    return shard_db(shard).erase(key);
}

// ---------------------------------------------------------------------------
// Elasticity
// ---------------------------------------------------------------------------

std::vector<pufferscale::Resource> ElasticKvService::shard_resources() const {
    // Load signal: per-provider handler activity from each node's Margo
    // monitoring (§4 — "using the performance introspection tools presented
    // in Section 4 to guide load rebalancing"); size from a live count query.
    std::vector<pufferscale::Resource> resources;
    Layout layout = this->layout();
    for (const auto& shard : layout.shards()) {
        pufferscale::Resource r;
        r.id = shard_name(shard.id);
        r.node = shard.node;
        auto proc = m_cluster.node(r.node);
        if (!proc) continue;
        auto stats = proc->margo_instance()->monitoring_json();
        double load = 0;
        std::uint16_t pid = shard_provider_id(shard.id);
        for (const auto& [key, rpc] : stats["rpcs"].as_object()) {
            if (rpc["provider_id"].as_integer() != pid) continue;
            for (const auto& [peer, t] : rpc["target"].as_object())
                load += static_cast<double>(t["ult"]["duration"]["num"].as_integer());
        }
        r.load = load;
        yokan::Database db = shard_db(shard);
        if (auto c = db.count()) r.size = static_cast<double>(*c);
        resources.push_back(std::move(r));
    }
    return resources;
}

Status ElasticKvService::migrate_shard(std::uint32_t shard, const std::string& dest) {
    LayoutShard source;
    Layout staged;
    {
        std::lock_guard lk{m_mutex};
        const auto* s = m_layout.find_shard(shard);
        if (!s) return Error{Error::Code::NotFound, "no shard " + std::to_string(shard)};
        source = *s;
        staged = m_layout;
    }
    if (source.node == dest) return {};
    if (auto st = staged.move_shard(shard, dest); !st.ok()) return st;
    // 1. Freeze the source *before* the checkpoint: push the staged epoch
    //    (with the staged layout as the repair hint) so no guarded write can
    //    land after the snapshot and silently miss the transfer. Writers
    //    adopt the hinted layout and retry against `dest`, backing off until
    //    the restore below brings the provider up there.
    if (auto st = shard_db(source).update_epoch(staged.epoch(), staged.pack()); !st.ok())
        return st;
    // 2. Checkpoint-and-restore the frozen provider onto `dest` (Bedrock's
    //    managed migration over REMI).
    bedrock::Client bc{m_client};
    auto handle = bc.makeServiceHandle(source.node);
    auto options = json::Value::object();
    options["method"] = m_config.migration_method == remi::Method::Rdma ? "rdma" : "chunks";
    if (auto st = handle.migrateProvider(shard_name(shard), dest, options); !st.ok())
        return st;
    // 3. Flip: commit the staged layout and publish the new epoch.
    {
        std::lock_guard lk{m_mutex};
        if (auto st = m_layout.move_shard(shard, dest); !st.ok()) return st;
    }
    publish_layout();
    return {};
}

Status ElasticKvService::rebalance() {
    auto resources = shard_resources();
    auto plan = pufferscale::plan_rescale(resources, nodes(), m_config.objectives);
    if (!plan) return plan.error();
    // Pufferscale executes through dependency injection: the injected
    // function is Bedrock's managed provider migration (which also flips the
    // layout entry and publishes the new epoch).
    return pufferscale::execute(*plan, [this](const pufferscale::Move& move) -> Status {
        auto shard = static_cast<std::uint32_t>(std::stoul(move.resource.substr(5)));
        return migrate_shard(shard, move.to);
    });
}

Status ElasticKvService::rebalance_weighted(const std::vector<WeightedNode>& weights) {
    // Plan on a scratch copy (rendezvous placement over the weighted nodes);
    // each executed migration flips the live layout and publishes.
    Layout staged = layout();
    auto moves = staged.rebalance_weighted(weights);
    for (const auto& move : moves) {
        if (auto st = migrate_shard(move.shard, move.to); !st.ok()) return st;
    }
    return {};
}

Status ElasticKvService::scale_up(const std::string& address) {
    if (auto st = spawn_service_node(address); !st.ok()) return st;
    return rebalance();
}

Status ElasticKvService::scale_down(const std::string& address) {
    {
        std::lock_guard lk{m_mutex};
        if (!m_nodes.count(address))
            return Error{Error::Code::NotFound, "no service node at " + address};
        if (m_nodes.size() == 1)
            return Error{Error::Code::InvalidState, "cannot remove the last node"};
        m_nodes.erase(address);
    }
    // §6 Obs. 4: "removing nodes first requires their data to be sent to
    // remaining nodes" — plan a rescale excluding the leaving node.
    auto resources = shard_resources();
    auto plan = pufferscale::plan_rescale(resources, nodes(), m_config.objectives);
    if (!plan) return plan.error();
    if (auto st = pufferscale::execute(*plan, [this](const pufferscale::Move& move) {
            auto shard = static_cast<std::uint32_t>(std::stoul(move.resource.substr(5)));
            return migrate_shard(shard, move.to);
        });
        !st.ok())
        return st;
    // Leave the group gracefully and release the node.
    std::shared_ptr<ssg::Group> group;
    {
        std::lock_guard lk{m_mutex};
        auto it = m_groups.find(address);
        if (it != m_groups.end()) {
            group = it->second;
            m_groups.erase(it);
        }
    }
    if (group) group->leave();
    return m_cluster.crash_node(address);
}

// ---------------------------------------------------------------------------
// Shard split / merge
// ---------------------------------------------------------------------------

Expected<Layout::SplitPlan> ElasticKvService::split_shard(std::uint32_t shard_id,
                                                          std::string child_node) {
    Layout staged = layout();
    auto plan = staged.split(shard_id, std::move(child_node));
    if (!plan) return plan.error();
    yokan::Database parent{m_client, plan->parent_node, shard_provider_id(plan->parent)};
    const std::string method =
        m_config.migration_method == remi::Method::Rdma ? "rdma" : "chunks";
    // 1. Start the (empty) child provider so post-flip traffic has a target.
    auto node = m_cluster.node(plan->child_node);
    if (!node)
        return Error{Error::Code::NotFound, "no service node at " + plan->child_node};
    if (auto st = node->start_provider(shard_descriptor(plan->child)); !st.ok())
        return st.error();
    // 2. Flip: commit the staged layout and publish the new epoch. Guarded
    //    writes for the upper half now land on the child, and the parent's
    //    epoch guard rejects stale writers — the parent's copy of the upper
    //    half is frozen from here on.
    {
        std::lock_guard lk{m_mutex};
        m_layout = staged;
    }
    publish_layout();
    // 3. Copy the frozen upper half into the child (REMI ships the files
    //    when the child landed on another node). absorb() is put-if-absent:
    //    any key the child already holds was written *after* the flip and is
    //    newer than the parent's frozen copy, so the copy can never clobber
    //    a post-flip update. Reads of not-yet-copied keys transiently miss;
    //    acknowledged writes are never lost.
    auto seeded = parent.extract_range(plan->mid, plan->end, shard_root(plan->child), "seed",
                                       plan->child_node, method, k_remi_provider_id);
    if (!seeded) return seeded.error();
    yokan::Database child{m_client, plan->child_node, shard_provider_id(plan->child)};
    if (auto a = child.absorb("seed"); !a) return a.error();
    // 4. Drop the moved range from the parent.
    auto erased = parent.erase_range(plan->mid, plan->end);
    if (!erased) return erased.error();
    log::info("elastic_kv", "split shard%u -> shard%u on %s (%llu keys moved)",
              plan->parent, plan->child, plan->child_node.c_str(),
              static_cast<unsigned long long>(*seeded));
    return *plan;
}

Expected<Layout::MergePlan> ElasticKvService::merge_shards(std::uint32_t victim_id) {
    Layout staged = layout();
    const auto* victim_shard = staged.find_shard(victim_id);
    if (!victim_shard)
        return Error{Error::Code::NotFound, "no shard " + std::to_string(victim_id)};
    const std::uint64_t vbegin = victim_shard->range_begin;
    const std::uint64_t vend = staged.range_end_of(victim_id);
    auto plan = staged.merge(victim_id);
    if (!plan) return plan.error();
    yokan::Database victim{m_client, plan->victim_node, shard_provider_id(plan->victim)};
    yokan::Database survivor{m_client, plan->survivor_node,
                             shard_provider_id(plan->survivor)};
    const std::string method =
        m_config.migration_method == remi::Method::Rdma ? "rdma" : "chunks";
    const std::uint64_t new_epoch = staged.epoch();
    const std::string blob = staged.pack();
    // 1. Flip: the victim's range now belongs to the survivor. The victim
    //    left the layout, so publish_layout() cannot reach it — push the new
    //    epoch to it directly; from then on its guard rejects every stale
    //    writer and its data is frozen.
    {
        std::lock_guard lk{m_mutex};
        m_layout = staged;
    }
    publish_layout();
    if (auto st = victim.update_epoch(new_epoch, blob); !st.ok()) return st.error();
    // 2. Move the frozen range under the survivor's root and load it;
    //    put-if-absent, as in split_shard: the survivor's own post-flip
    //    writes win over the victim's frozen copies.
    auto moved = victim.extract_range(vbegin, vend, shard_root(plan->survivor), "xfer",
                                      plan->survivor_node, method, k_remi_provider_id);
    if (!moved) return moved.error();
    if (auto a = survivor.absorb("xfer"); !a) return a.error();
    // 3. Retire the victim.
    auto node = m_cluster.node(plan->victim_node);
    if (node) (void)node->stop_provider(shard_name(plan->victim));
    log::info("elastic_kv", "merged shard%u into shard%u (%llu keys moved)", plan->victim,
              plan->survivor, static_cast<unsigned long long>(*moved));
    return *plan;
}

// ---------------------------------------------------------------------------
// Resilience (§7)
// ---------------------------------------------------------------------------

Status ElasticKvService::checkpoint_all() {
    Layout layout = this->layout();
    bedrock::Client bc{m_client};
    for (const auto& shard : layout.shards()) {
        auto handle = bc.makeServiceHandle(shard.node);
        if (auto st = handle.checkpointProvider(shard_name(shard.id),
                                                checkpoint_path(shard.id));
            !st.ok())
            return st;
    }
    return {};
}

void ElasticKvService::on_member_died(const std::string& address) {
    log::info("elastic_kv", "controller: node %s died, re-provisioning its shards",
              address.c_str());
    (void)recover_shards_of(address);
}

Status ElasticKvService::recover_shards_of(const std::string& address) {
    // Top-down recovery (§7): the controller has the global view; it
    // restarts every shard the dead node hosted on surviving nodes, restored
    // from the latest PFS checkpoint.
    std::vector<std::uint32_t> lost;
    std::vector<std::string> survivors;
    {
        std::lock_guard lk{m_mutex};
        if (!m_nodes.erase(address)) return {}; // already handled
        m_groups.erase(address);
        for (const auto& shard : m_layout.shards())
            if (shard.node == address) lost.push_back(shard.id);
        survivors.assign(m_nodes.begin(), m_nodes.end());
    }
    if (survivors.empty())
        return Error{Error::Code::InvalidState, "no surviving node to recover onto"};
    bedrock::Client bc{m_client};
    std::size_t next = 0;
    for (std::uint32_t s : lost) {
        const std::string& target = survivors[next++ % survivors.size()];
        auto handle = bc.makeServiceHandle(target);
        if (auto st = handle.startProvider(shard_descriptor(s)); !st.ok()) return st;
        // Restore from the checkpoint if one exists (otherwise the shard
        // restarts empty — data since the last checkpoint is lost, which §7
        // Obs. 9 deems acceptable for this failure model).
        if (remi::SimFileStore::pfs()->exists(checkpoint_path(s)))
            (void)handle.restoreProvider(shard_name(s), checkpoint_path(s));
        {
            std::lock_guard lk{m_mutex};
            (void)m_layout.move_shard(s, target);
        }
        m_recoveries.fetch_add(1);
    }
    publish_layout();
    return {};
}

// ---------------------------------------------------------------------------
// ElasticKvClient (layout cache + piggybacked epoch invalidation)
// ---------------------------------------------------------------------------

ElasticKvClient::ElasticKvClient(margo::InstancePtr instance, std::string controller)
: m_instance(std::move(instance)), m_controller(std::move(controller)),
  m_epoch_context(std::make_shared<yokan::EpochContext>()),
  m_refreshes_total(m_instance->metrics()->counter("elastic_layout_refreshes_total")),
  m_stale_retries_total(m_instance->metrics()->counter("elastic_stale_epoch_retries_total")) {}

bool ElasticKvClient::adopt(std::uint64_t epoch, const std::string& blob) {
    if (epoch <= m_layout.epoch()) return false;
    auto layout = Layout::unpack_blob(blob);
    if (!layout || layout->epoch() <= m_layout.epoch()) return false;
    m_layout = std::move(*layout);
    m_epoch_context->epoch.store(m_layout.epoch(), std::memory_order_relaxed);
    return true;
}

Status ElasticKvClient::refresh() {
    auto r = m_instance->call<std::uint64_t, std::string>(m_controller, "elastic_kv/layout",
                                                          {});
    if (!r) return r.error();
    ++m_refreshes;
    m_refreshes_total.inc();
    (void)adopt(std::get<0>(*r), std::get<1>(*r));
    return {};
}

Status ElasticKvClient::refresh_from_member(const std::string& member_address,
                                            const std::string& group_name) {
    auto r = ssg::Group::fetch_payload(m_instance, group_name, member_address);
    if (!r) return r.error();
    ++m_refreshes;
    m_refreshes_total.inc();
    if (r->first == 0)
        return Error{Error::Code::NotFound, "member holds no layout payload yet"};
    (void)adopt(r->first, r->second);
    return {};
}

Status ElasticKvClient::ensure_layout() {
    if (!m_layout.empty()) return {};
    return refresh();
}

bool ElasticKvClient::handle_stale(const Error& err) {
    std::uint64_t epoch = 0;
    std::string blob;
    if (!yokan::decode_stale_epoch(err, epoch, blob)) return false;
    ++m_stale_retries;
    m_stale_retries_total.inc();
    // Fast path: the rejection carried the new layout — repair the cache
    // with zero extra RPCs.
    if (!blob.empty() && adopt(epoch, blob)) return true;
    // Blob too large (or raced): one explicit refresh.
    if (auto st = refresh(); !st.ok()) return false;
    return m_layout.epoch() >= epoch;
}

namespace {

/// True when an error indicates the client routed to the wrong node: the
/// node is gone, or it no longer hosts the shard's provider (the dispatch
/// layer answers Error::Code::NoSuchRpc). Epoch-guarded requests normally
/// fail with the richer stale-epoch rejection instead; this is the fallback
/// for nodes that died (resilience) or providers stopped by a merge.
bool indicates_stale_layout(const Error& err) {
    return err.code == Error::Code::Unreachable || err.code == Error::Code::NoSuchRpc;
}

/// Timeouts are ambiguous: a node mid-reconfiguration answers late (worth a
/// refresh + retry), but a genuinely dead node times out on every attempt —
/// refreshing the layout then just multiplies the damage by the full attempt
/// budget. Allow a short streak of timeout-driven refreshes, then surface
/// the Timeout to the caller.
constexpr int k_max_timeout_refreshes = 2;

/// Decide whether `err` warrants a layout refresh + retry, tracking the run
/// of consecutive timeouts in `timeout_streak` (reset by any other error).
bool should_refresh_layout(const Error& err, int& timeout_streak) {
    if (err.code == Error::Code::Timeout) return ++timeout_streak <= k_max_timeout_refreshes;
    timeout_streak = 0;
    return indicates_stale_layout(err);
}

/// Routing attempts per operation. A stale-epoch rejection repairs the cache
/// instantly (no backoff needed), but the wrong-node path may race an
/// in-flight migration: the source provider is already gone while the layout
/// still points at it. Backing off briefly between refreshes rides that
/// window out instead of surfacing a transient error to the caller.
constexpr int k_route_attempts = 8;

void routing_backoff(int attempt) {
    if (attempt > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min(1 << attempt, 32)));
}

} // namespace

template <typename Op>
auto ElasticKvClient::with_routing(const std::string& key, Op op)
    -> decltype(op(std::declval<yokan::Database&>())) {
    if (auto st = ensure_layout(); !st.ok()) return st.error();
    int timeout_streak = 0;
    for (int attempt = 0;; ++attempt) {
        LayoutShard shard = m_layout.shard_for_key(key);
        auto db = shard_db(shard);
        auto result = op(db);
        if (result) return result;
        if (attempt >= k_route_attempts - 1) return result;
        // Stale epoch? Repair from the piggybacked layout and retry.
        if (handle_stale(result.error())) continue;
        // Wrong node (death/migration)? Refresh (with backoff: the layout
        // may not have flipped yet) and retry.
        if (should_refresh_layout(result.error(), timeout_streak)) {
            routing_backoff(attempt);
            if (auto st = refresh(); !st.ok()) return st.error();
            continue;
        }
        return result;
    }
}

Status ElasticKvClient::put(const std::string& key, const std::string& value) {
    auto r = with_routing(key, [&](yokan::Database& db) -> Expected<bool> {
        auto st = db.put(key, value);
        if (!st.ok()) return st.error();
        return true;
    });
    if (!r) return r.error();
    return {};
}

Expected<std::string> ElasticKvClient::get(const std::string& key) {
    return with_routing(key,
                        [&](yokan::Database& db) -> Expected<std::string> { return db.get(key); });
}

Status ElasticKvClient::erase(const std::string& key) {
    auto r = with_routing(key, [&](yokan::Database& db) -> Expected<bool> {
        auto st = db.erase(key);
        if (!st.ok()) return st.error();
        return true;
    });
    if (!r) return r.error();
    return {};
}

Status ElasticKvClient::put_multi(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
    if (pairs.empty()) return {};
    if (auto st = ensure_layout(); !st.ok()) return st;
    // Indices into `pairs` still to be written; shrinks as groups succeed.
    std::vector<std::size_t> remaining(pairs.size());
    std::iota(remaining.begin(), remaining.end(), std::size_t{0});
    std::optional<Error> last_error;
    int timeout_streak = 0;
    for (int attempt = 0; attempt < k_route_attempts && !remaining.empty(); ++attempt) {
        // Group the remaining pairs by shard under the *current* layout;
        // every group leaves as one RPC and all round trips overlap.
        std::map<std::uint32_t, std::vector<std::size_t>> by_shard;
        for (auto i : remaining)
            by_shard[m_layout.shard_for_key(pairs[i].first).id].push_back(i);
        struct Flight {
            std::vector<std::size_t> items;
            margo::AsyncRequest req;
        };
        std::vector<Flight> inflight;
        inflight.reserve(by_shard.size());
        for (auto& [sid, items] : by_shard) {
            const auto* shard = m_layout.find_shard(sid);
            std::vector<std::pair<std::string, std::string>> group;
            group.reserve(items.size());
            for (auto i : items) group.push_back(pairs[i]);
            auto db = shard_db(*shard);
            inflight.push_back({std::move(items), db.put_multi_async(group)});
        }
        // Per-shard-group outcome: successful groups are done for good; only
        // failed groups carry over to the next attempt (regrouped under the
        // repaired layout).
        std::vector<std::size_t> failed;
        last_error.reset();
        for (auto& f : inflight) {
            auto r = f.req.wait_unpack<std::uint64_t, bool>();
            if (r) {
                m_epoch_context->observe(std::get<0>(*r));
                continue;
            }
            failed.insert(failed.end(), f.items.begin(), f.items.end());
            if (!last_error) last_error = std::move(r).error();
        }
        remaining = std::move(failed);
        if (remaining.empty()) return {};
        // Repair the layout before retrying; a non-stale error is final.
        if (!handle_stale(*last_error)) {
            if (!should_refresh_layout(*last_error, timeout_streak)) return *last_error;
            routing_backoff(attempt);
            if (auto st = refresh(); !st.ok()) return st;
        }
    }
    if (!remaining.empty())
        return last_error ? *last_error
                          : Error{Error::Code::Unreachable, "routing failed"};
    return {};
}

Expected<std::vector<std::optional<std::string>>>
ElasticKvClient::get_multi(const std::vector<std::string>& keys) {
    std::vector<std::optional<std::string>> values(keys.size());
    if (keys.empty()) return values;
    if (auto st = ensure_layout(); !st.ok()) return st.error();
    std::vector<std::size_t> remaining(keys.size());
    std::iota(remaining.begin(), remaining.end(), std::size_t{0});
    std::optional<Error> last_error;
    int timeout_streak = 0;
    for (int attempt = 0; attempt < k_route_attempts && !remaining.empty(); ++attempt) {
        // Group key positions by shard so results can be scattered back
        // into the caller's order.
        std::map<std::uint32_t, std::vector<std::size_t>> by_shard;
        for (auto i : remaining) by_shard[m_layout.shard_for_key(keys[i]).id].push_back(i);
        struct Flight {
            std::vector<std::size_t> positions;
            margo::AsyncRequest req;
        };
        std::vector<Flight> inflight;
        inflight.reserve(by_shard.size());
        for (auto& [sid, positions] : by_shard) {
            const auto* shard = m_layout.find_shard(sid);
            std::vector<std::string> group;
            group.reserve(positions.size());
            for (auto i : positions) group.push_back(keys[i]);
            auto db = shard_db(*shard);
            inflight.push_back({std::move(positions), db.get_multi_async(group)});
        }
        std::vector<std::size_t> failed;
        last_error.reset();
        for (auto& f : inflight) {
            auto r = f.req.wait_unpack<std::uint64_t, std::vector<std::optional<std::string>>>();
            if (!r) {
                failed.insert(failed.end(), f.positions.begin(), f.positions.end());
                if (!last_error) last_error = std::move(r).error();
                continue;
            }
            m_epoch_context->observe(std::get<0>(*r));
            auto& group_values = std::get<1>(*r);
            if (group_values.size() != f.positions.size()) {
                if (!last_error)
                    last_error =
                        Error{Error::Code::Corruption, "get_multi result size mismatch"};
                failed.insert(failed.end(), f.positions.begin(), f.positions.end());
                continue;
            }
            for (std::size_t j = 0; j < f.positions.size(); ++j)
                values[f.positions[j]] = std::move(group_values[j]);
        }
        remaining = std::move(failed);
        if (remaining.empty()) return values;
        if (!handle_stale(*last_error)) {
            if (!should_refresh_layout(*last_error, timeout_streak)) return *last_error;
            routing_backoff(attempt);
            if (auto st = refresh(); !st.ok()) return st.error();
        }
    }
    if (!remaining.empty())
        return last_error ? *last_error
                          : Error{Error::Code::Unreachable, "routing failed"};
    return values;
}

} // namespace mochi::composed
