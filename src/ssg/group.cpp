#include "ssg/group.hpp"
#include "common/logging.hpp"

#include <algorithm>

namespace mochi::ssg {

std::uint64_t GroupView::digest() const noexcept {
    // Deliberately hashes the member list only, not the version: the version
    // is a per-process change counter, and two members that witnessed a
    // different number of intermediate transitions (e.g. one saw a false
    // death + rejoin, the other saw nothing) must still agree on the digest
    // once their member lists converge — that agreement is what the
    // Colza-style staleness check needs.
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&](std::string_view s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ULL;
        }
        h ^= 0xFF;
        h *= 1099511628211ULL;
    };
    for (const auto& m : members) mix(m);
    return h;
}

const char* to_string(MembershipEvent e) noexcept {
    switch (e) {
    case MembershipEvent::Joined: return "joined";
    case MembershipEvent::Left: return "left";
    case MembershipEvent::Died: return "died";
    }
    return "?";
}

std::uint16_t Group::provider_id_for(std::string_view group_name) noexcept {
    std::uint32_t h = 2166136261u;
    for (unsigned char c : group_name) {
        h ^= c;
        h *= 16777619u;
    }
    // Avoid the default provider id.
    auto id = static_cast<std::uint16_t>(h % 65534);
    return id;
}

Group::Group(margo::InstancePtr instance, std::string group_name, GroupConfig config)
: m_instance(std::move(instance)), m_name(std::move(group_name)), m_config(config),
  m_provider_id(provider_id_for(m_name)),
  m_pings(m_instance->metrics()->counter("ssg_pings_total")),
  m_suspicions(m_instance->metrics()->counter("ssg_suspicions_total")),
  m_deaths(m_instance->metrics()->counter("ssg_deaths_total")),
  m_payload_pulls(m_instance->metrics()->counter("ssg_payload_pulls_total")),
  m_rng(std::hash<std::string>{}(m_instance->address() + m_name)) {}

const std::string& Group::self() const noexcept { return m_instance->address(); }

Expected<std::shared_ptr<Group>> Group::create(margo::InstancePtr instance,
                                               std::string group_name,
                                               std::vector<std::string> initial_members,
                                               GroupConfig config) {
    if (std::find(initial_members.begin(), initial_members.end(), instance->address()) ==
        initial_members.end())
        return Error{Error::Code::InvalidArgument,
                     "initial member list must contain this process's address"};
    auto group =
        std::shared_ptr<Group>(new Group(std::move(instance), std::move(group_name), config));
    {
        std::lock_guard lk{group->m_mutex};
        for (auto& m : initial_members) group->m_members[m] = MemberInfo{};
        group->m_version = 1;
    }
    group->register_rpcs();
    group->start_protocol_loop();
    return group;
}

Expected<std::shared_ptr<Group>> Group::join(margo::InstancePtr instance,
                                             std::string group_name,
                                             const std::string& seed_address,
                                             GroupConfig config) {
    auto group =
        std::shared_ptr<Group>(new Group(std::move(instance), std::move(group_name), config));
    margo::ForwardOptions opts;
    opts.provider_id = group->m_provider_id;
    auto r = group->m_instance->call<std::vector<std::string>, std::uint64_t>(
        seed_address, "ssg/join", opts, group->m_name, group->self());
    if (!r) return std::move(r).error();
    auto [members, version] = *r;
    {
        std::lock_guard lk{group->m_mutex};
        for (auto& m : members) group->m_members[m] = MemberInfo{};
        group->m_members[group->self()] = MemberInfo{};
        group->m_version = version;
    }
    group->register_rpcs();
    group->start_protocol_loop();
    return group;
}

Group::~Group() { leave(); }

void Group::leave() {
    bool was = m_stopped.exchange(true);
    if (was) return;
    // Gossip a graceful departure to a few members (best effort).
    std::vector<std::string> peers;
    std::uint64_t inc;
    {
        std::lock_guard lk{m_mutex};
        inc = ++m_self_incarnation;
        for (const auto& [addr, info] : m_members)
            if (addr != self() && info.state == MemberState::Alive) peers.push_back(addr);
        // Random recipients, not the first 3 in map (i.e. address-sort)
        // order: with many groups the same low-sorting members would absorb
        // every departure announcement, and members sorting last would only
        // learn of departures second-hand through gossip convergence.
        std::shuffle(peers.begin(), peers.end(), m_rng);
    }
    margo::ForwardOptions opts;
    opts.provider_id = m_provider_id;
    opts.timeout = std::chrono::milliseconds(200);
    std::uint8_t left_state = static_cast<std::uint8_t>(MemberState::Left);
    for (std::size_t i = 0; i < std::min<std::size_t>(peers.size(), 3); ++i) {
        std::vector<Update> gossip{{self(), left_state, inc}};
        (void)m_instance->forward(peers[i], "ssg/gossip",
                                  mercury::pack(m_name, self(), gossip, payload_version()),
                                  opts);
    }
    if (!m_instance->is_shutdown()) {
        m_instance->deregister_rpc("ssg/ping", m_provider_id);
        m_instance->deregister_rpc("ssg/ping_req", m_provider_id);
        m_instance->deregister_rpc("ssg/gossip", m_provider_id);
        m_instance->deregister_rpc("ssg/join", m_provider_id);
        m_instance->deregister_rpc("ssg/get_view", m_provider_id);
        m_instance->deregister_rpc("ssg/get_payload", m_provider_id);
    }
}

GroupView Group::view() const {
    std::lock_guard lk{m_mutex};
    return view_locked();
}

std::uint64_t Group::periods() const {
    std::lock_guard lk{m_mutex};
    return m_period_counter;
}

GroupView Group::view_locked() const {
    GroupView v;
    for (const auto& [addr, info] : m_members)
        if (info.state == MemberState::Alive || info.state == MemberState::Suspect)
            v.members.push_back(addr);
    v.version = m_version;
    return v;
}

void Group::on_membership_change(MembershipCallback cb) {
    std::lock_guard lk{m_mutex};
    m_callbacks.push_back(std::move(cb));
}

Expected<GroupView> Group::fetch_view(const margo::InstancePtr& instance,
                                      const std::string& group_name,
                                      const std::string& member_address) {
    margo::ForwardOptions opts;
    opts.provider_id = provider_id_for(group_name);
    auto r = instance->call<std::vector<std::string>, std::uint64_t>(
        member_address, "ssg/get_view", opts, group_name);
    if (!r) return std::move(r).error();
    GroupView v;
    v.members = std::move(std::get<0>(*r));
    v.version = std::get<1>(*r);
    return v;
}

// ---------------------------------------------------------------------------
// RPC handlers
// ---------------------------------------------------------------------------

template <typename... Args, typename F>
void Group::define_rpc(const char* name, F fn) {
    (void)m_instance->register_rpc(
        name, m_provider_id,
        margo::typed_handler<Args...>([weak = weak_from_this(), fn = std::move(fn)](
                                          const margo::Request& req, Args&... args) {
            auto g = weak.lock();
            if (!g || g->m_stopped.load()) {
                req.respond_error(Error{Error::Code::InvalidState, "group is gone"});
                return;
            }
            fn(*g, req, args...);
        }));
}

void Group::register_rpcs() {
    // Every request leads with the group name (decoded, not checked: the
    // provider id already selects the group).
    //
    // A ping and a gossip push are answered alike: apply the sender's
    // updates, reply with our own gossip (a suspected member's refutation,
    // Alive at incarnation+1, returns on this fast path), plus the sender's
    // own status if we (wrongly) hold it Dead/Left so it can refute.
    auto exchange = [](Group& g, const margo::Request& req, std::string_view,
                       const std::string& sender, const std::vector<Update>& gossip,
                       std::uint64_t remote_pv) {
        for (const auto& u : gossip) g.apply_update(u);
        req.respond(mercury::pack(g.collect_gossip_for(sender), g.payload_version()));
        g.maybe_pull_payload(sender, remote_pv);
    };
    for (const char* rpc : {"ssg/ping", "ssg/gossip"})
        define_rpc<std::string_view, std::string, std::vector<Update>, std::uint64_t>(
            rpc, exchange);
    define_rpc<std::string_view, std::string_view, std::string>(
        "ssg/ping_req", [](Group& g, const margo::Request& req, std::string_view,
                           std::string_view, const std::string& target) {
            bool ok = g.direct_ping(target);
            req.respond_values(ok);
        });
    define_rpc<std::string_view, std::string>(
        "ssg/join",
        [](Group& g, const margo::Request& req, std::string_view, std::string& joiner) {
            g.apply_update(Update{std::move(joiner),
                                  static_cast<std::uint8_t>(MemberState::Alive),
                                  /*incarnation=*/0});
            auto v = g.view();
            req.respond_values(v.members, v.version);
        });
    define_rpc<std::string_view>(
        "ssg/get_view", [](Group& g, const margo::Request& req, std::string_view) {
            auto v = g.view();
            req.respond_values(v.members, v.version);
        });
    define_rpc<std::string_view>(
        "ssg/get_payload", [](Group& g, const margo::Request& req, std::string_view) {
            auto [version, blob] = g.payload();
            req.respond_values(version, blob);
        });
}

// ---------------------------------------------------------------------------
// SWIM protocol
// ---------------------------------------------------------------------------

void Group::start_protocol_loop() {
    if (!m_config.enable_swim) return;
    auto weak = weak_from_this();
    auto period_us = std::chrono::duration_cast<std::chrono::microseconds>(
        m_config.swim_period);
    m_instance->runtime()->timer().schedule(period_us, [weak] {
        auto g = weak.lock();
        if (!g || g->m_stopped.load() || g->m_instance->is_shutdown()) return;
        // Run the period on a ULT (it blocks on pings).
        auto rt = g->m_instance->runtime();
        rt->post(rt->primary_pool(), [weak] {
            auto g2 = weak.lock();
            if (!g2 || g2->m_stopped.load()) return;
            g2->protocol_period();
            g2->start_protocol_loop(); // reschedule after the period's work
        });
    });
}

void Group::protocol_period() {
    // 1. Advance suspicion timers; collect currently suspected members so
    // we can (re-)notify them directly — the refutation fast path. Without
    // it, a suspected-but-alive member only learns of its suspicion through
    // gossip, which may not beat the suspicion timeout on a lossy network.
    std::vector<std::pair<std::string, std::uint64_t>> expired;
    std::vector<std::pair<std::string, std::uint64_t>> suspected;
    std::string target;
    {
        std::lock_guard lk{m_mutex};
        ++m_period_counter;
        for (auto& [addr, info] : m_members) {
            if (info.state == MemberState::Suspect &&
                m_period_counter - info.suspect_since_period >=
                    static_cast<std::uint64_t>(m_config.suspicion_periods))
                expired.emplace_back(addr, info.incarnation);
            else if (info.state == MemberState::Suspect)
                suspected.emplace_back(addr, info.incarnation);
        }
        // 2. Pick the next ping target (round-robin over a shuffled list —
        // SWIM's deterministic-coverage refinement).
        if (m_ping_cursor >= m_ping_order.size()) {
            m_ping_order.clear();
            for (const auto& [addr, info] : m_members)
                if (addr != self() &&
                    (info.state == MemberState::Alive || info.state == MemberState::Suspect))
                    m_ping_order.push_back(addr);
            std::shuffle(m_ping_order.begin(), m_ping_order.end(), m_rng);
            m_ping_cursor = 0;
        }
        if (m_ping_cursor < m_ping_order.size()) target = m_ping_order[m_ping_cursor++];
    }
    for (auto& [addr, inc] : expired) mark_dead(addr, inc, /*graceful=*/false);
    // Tell each suspect about its suspicion so it can refute (best effort,
    // repeated every period while the suspicion lasts).
    if (!suspected.empty()) {
        margo::ForwardOptions opts;
        opts.provider_id = m_provider_id;
        opts.timeout = std::chrono::duration_cast<std::chrono::milliseconds>(
            m_config.ping_timeout);
        for (auto& [addr, inc] : suspected) {
            std::vector<Update> gossip{
                {addr, static_cast<std::uint8_t>(MemberState::Suspect), inc}};
            auto r = m_instance->forward(
                addr, "ssg/gossip", mercury::pack(m_name, self(), gossip, payload_version()),
                opts);
            if (r) {
                std::vector<Update> reply;
                std::uint64_t remote_pv = 0;
                if (mercury::unpack(*r, reply, remote_pv)) {
                    for (const auto& u : reply) apply_update(u);
                    maybe_pull_payload(addr, remote_pv);
                }
            }
        }
    }
    if (target.empty()) return;
    {
        // Skip targets that died since the order was built.
        std::lock_guard lk{m_mutex};
        auto it = m_members.find(target);
        if (it == m_members.end() || it->second.state == MemberState::Dead ||
            it->second.state == MemberState::Left)
            return;
    }

    // 3. Direct ping.
    if (direct_ping(target)) return;

    // 4. Indirect pings through k proxies.
    std::vector<std::string> proxies;
    {
        std::lock_guard lk{m_mutex};
        for (const auto& [addr, info] : m_members)
            if (addr != self() && addr != target && info.state == MemberState::Alive)
                proxies.push_back(addr);
        std::shuffle(proxies.begin(), proxies.end(), m_rng);
        if (proxies.size() > static_cast<std::size_t>(m_config.ping_req_fanout))
            proxies.resize(static_cast<std::size_t>(m_config.ping_req_fanout));
    }
    margo::ForwardOptions opts;
    opts.provider_id = m_provider_id;
    opts.timeout = std::chrono::duration_cast<std::chrono::milliseconds>(
        2 * m_config.ping_timeout);
    for (const auto& proxy : proxies) {
        auto r = m_instance->call<bool>(proxy, "ssg/ping_req", opts, m_name, self(), target);
        if (r && std::get<0>(*r)) return; // somebody reached it
    }
    mark_suspect(target);
}

bool Group::direct_ping(const std::string& target) {
    margo::ForwardOptions opts;
    opts.provider_id = m_provider_id;
    opts.timeout =
        std::chrono::duration_cast<std::chrono::milliseconds>(m_config.ping_timeout);
    m_pings.inc();
    auto gossip = collect_gossip();
    auto r = m_instance->forward(
        target, "ssg/ping", mercury::pack(m_name, self(), gossip, payload_version()), opts);
    if (!r) return false;
    std::vector<Update> reply;
    std::uint64_t remote_pv = 0;
    if (mercury::unpack(*r, reply, remote_pv)) {
        for (const auto& u : reply) apply_update(u);
        maybe_pull_payload(target, remote_pv);
    }
    return true;
}

bool Group::apply_update(const Update& u) {
    MembershipEvent event{};
    bool notify = false;
    {
        std::lock_guard lk{m_mutex};
        auto state = static_cast<MemberState>(u.state);
        // Refutation: if someone suspects *us*, bump our incarnation past
        // theirs and gossip aliveness (SWIM's mechanism against false
        // positives). Even a *stale* suspicion (older incarnation) must be
        // answered by re-announcing the current aliveness: another member
        // may still be running a suspicion timer on that old incarnation.
        if (u.address == self()) {
            if (state == MemberState::Suspect || state == MemberState::Dead) {
                if (u.incarnation >= m_self_incarnation)
                    m_self_incarnation = u.incarnation + 1;
                // Deduplicate: one refutation entry, always newest first.
                for (auto it = m_gossip.begin(); it != m_gossip.end();) {
                    if (it->first.address == self())
                        it = m_gossip.erase(it);
                    else
                        ++it;
                }
                m_gossip.emplace_front(
                    Update{self(), static_cast<std::uint8_t>(MemberState::Alive),
                           m_self_incarnation},
                    m_config.gossip_transmissions);
            }
            return false;
        }
        auto it = m_members.find(u.address);
        if (it == m_members.end()) {
            if (state == MemberState::Alive) {
                m_members[u.address] = MemberInfo{MemberState::Alive, u.incarnation, 0};
                ++m_version;
                notify = true;
                event = MembershipEvent::Joined;
                m_gossip.emplace_back(u, m_config.gossip_transmissions);
            }
        } else {
            MemberInfo& info = it->second;
            bool changed = false;
            switch (state) {
            case MemberState::Alive:
                if (u.incarnation > info.incarnation &&
                    (info.state == MemberState::Suspect || info.state == MemberState::Alive)) {
                    changed = info.state != MemberState::Alive;
                    info.state = MemberState::Alive;
                    info.incarnation = u.incarnation;
                } else if (u.incarnation > info.incarnation &&
                           (info.state == MemberState::Dead ||
                            info.state == MemberState::Left)) {
                    // Rejoin: a member we declared dead (possibly falsely)
                    // refuted with a strictly higher incarnation. Dead/Left
                    // is no longer a terminal state — readmit it so a SWIM
                    // false positive heals instead of permanently splitting
                    // the views.
                    info.state = MemberState::Alive;
                    info.incarnation = u.incarnation;
                    info.suspect_since_period = 0;
                    ++m_version;
                    notify = true;
                    event = MembershipEvent::Joined;
                    changed = true;
                }
                break;
            case MemberState::Suspect:
                if (info.state == MemberState::Alive && u.incarnation >= info.incarnation) {
                    info.state = MemberState::Suspect;
                    info.incarnation = u.incarnation;
                    info.suspect_since_period = m_period_counter;
                    changed = true;
                }
                break;
            case MemberState::Dead:
            case MemberState::Left:
                // The incarnation guard is what makes rejoin converge: once a
                // falsely-accused member refuted with incarnation I+1 and we
                // readmitted it, a stale Dead{I} still circulating in gossip
                // (or a suspicion timer that expired after the refutation)
                // must not re-kill it — otherwise the views oscillate
                // dead/alive once per period and never agree.
                if (info.state != MemberState::Dead && info.state != MemberState::Left &&
                    u.incarnation >= info.incarnation) {
                    info.state = state;
                    info.incarnation = std::max(info.incarnation, u.incarnation);
                    ++m_version;
                    notify = true;
                    event = state == MemberState::Left ? MembershipEvent::Left
                                                        : MembershipEvent::Died;
                    changed = true;
                }
                break;
            }
            if (changed) m_gossip.emplace_back(u, m_config.gossip_transmissions);
            if (!notify) return changed;
        }
    }
    if (notify) {
        std::vector<MembershipCallback> cbs;
        {
            std::lock_guard lk{m_mutex};
            cbs = m_callbacks;
        }
        for (auto& cb : cbs) cb(u.address, event);
    }
    return true;
}

std::vector<Group::Update> Group::collect_gossip() {
    std::lock_guard lk{m_mutex};
    std::vector<Update> out;
    for (auto it = m_gossip.begin(); it != m_gossip.end();) {
        out.push_back(it->first);
        if (--it->second <= 0)
            it = m_gossip.erase(it);
        else
            ++it;
        if (out.size() >= 16) break; // bounded piggyback size
    }
    return out;
}

std::vector<Group::Update> Group::collect_gossip_for(const std::string& peer) {
    auto out = collect_gossip();
    // If we believe the peer talking to us is Dead/Left, it evidently is not:
    // tell it what we think, so it can refute with a higher incarnation and
    // trigger the rejoin path on every member still holding the stale state.
    // Without this, a falsely-declared-dead member whose death gossip has
    // exhausted its transmission budget never learns it was written off.
    std::lock_guard lk{m_mutex};
    auto it = m_members.find(peer);
    if (it != m_members.end() &&
        (it->second.state == MemberState::Dead || it->second.state == MemberState::Left))
        out.push_back(Update{peer, static_cast<std::uint8_t>(it->second.state),
                             it->second.incarnation});
    return out;
}

void Group::enqueue_gossip(Update u) {
    std::lock_guard lk{m_mutex};
    m_gossip.emplace_back(std::move(u), m_config.gossip_transmissions);
}

void Group::mark_suspect(const std::string& address) {
    std::uint64_t inc = 0;
    {
        std::lock_guard lk{m_mutex};
        auto it = m_members.find(address);
        if (it == m_members.end() || it->second.state != MemberState::Alive) return;
        it->second.state = MemberState::Suspect;
        it->second.suspect_since_period = m_period_counter;
        inc = it->second.incarnation;
    }
    log::debug("ssg", "%s suspects %s", self().c_str(), address.c_str());
    m_suspicions.inc();
    enqueue_gossip(Update{address, static_cast<std::uint8_t>(MemberState::Suspect), inc});
}

void Group::mark_dead(const std::string& address, std::uint64_t incarnation, bool graceful) {
    if (!graceful) m_deaths.inc();
    apply_update(Update{address,
                        static_cast<std::uint8_t>(graceful ? MemberState::Left
                                                            : MemberState::Dead),
                        incarnation});
}

void Group::bump_version_and_notify(const std::string&, MembershipEvent) {}

json::Value Group::snapshot_payload() const { return json::Value::object(); }

// ---------------------------------------------------------------------------
// Payload dissemination
// ---------------------------------------------------------------------------

void Group::publish_payload(std::uint64_t version, std::string payload) {
    (void)adopt_payload(version, std::move(payload));
}

std::pair<std::uint64_t, std::string> Group::payload() const {
    std::lock_guard lk{m_mutex};
    return {m_payload_version, m_payload};
}

std::uint64_t Group::payload_version() const {
    std::lock_guard lk{m_mutex};
    return m_payload_version;
}

void Group::on_payload(PayloadCallback cb) {
    std::lock_guard lk{m_mutex};
    m_payload_callbacks.push_back(std::move(cb));
}

bool Group::adopt_payload(std::uint64_t version, std::string payload) {
    std::vector<PayloadCallback> cbs;
    {
        std::lock_guard lk{m_mutex};
        if (version <= m_payload_version) return false;
        m_payload_version = version;
        m_payload = std::move(payload);
        cbs = m_payload_callbacks;
    }
    // Callbacks run outside the lock: they may call back into the group
    // (e.g. to read the view) or into providers that take their own locks.
    auto [v, p] = this->payload();
    for (auto& cb : cbs) cb(v, p);
    return true;
}

void Group::maybe_pull_payload(const std::string& peer, std::uint64_t remote_version) {
    {
        std::lock_guard lk{m_mutex};
        if (remote_version <= m_payload_version || m_payload_pull_inflight) return;
        m_payload_pull_inflight = true;
    }
    // Pull on a fresh ULT: this runs inside ping/gossip handlers and must
    // not block the ack on a round trip back to the peer.
    auto weak = weak_from_this();
    auto rt = m_instance->runtime();
    rt->post(rt->primary_pool(), [weak, peer] {
        auto g = weak.lock();
        if (!g || g->m_stopped.load()) return;
        margo::ForwardOptions opts;
        opts.provider_id = g->m_provider_id;
        auto r = g->m_instance->call<std::uint64_t, std::string>(peer, "ssg/get_payload",
                                                                 opts, g->m_name);
        {
            std::lock_guard lk{g->m_mutex};
            g->m_payload_pull_inflight = false;
        }
        if (!r) return;
        g->m_payload_pulls.inc();
        g->adopt_payload(std::get<0>(*r), std::move(std::get<1>(*r)));
    });
}

Expected<std::pair<std::uint64_t, std::string>>
Group::fetch_payload(const margo::InstancePtr& instance, const std::string& group_name,
                     const std::string& member_address) {
    margo::ForwardOptions opts;
    opts.provider_id = provider_id_for(group_name);
    auto r = instance->call<std::uint64_t, std::string>(member_address, "ssg/get_payload",
                                                        opts, group_name);
    if (!r) return std::move(r).error();
    return std::make_pair(std::get<0>(*r), std::move(std::get<1>(*r)));
}

} // namespace mochi::ssg
