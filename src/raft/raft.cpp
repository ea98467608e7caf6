#include "raft/raft.hpp"
#include "common/logging.hpp"
#include "margo/tracing.hpp"

namespace mochi::raft {

namespace {

// Argument structs are templated on their string representation: senders use
// the owned std::string aliases (the struct outlives the pack call), while
// RPC handlers decode the `View` aliases whose string_view fields alias the
// request payload (kept alive by margo::Request for the handler's duration).
// Decoding therefore copies nothing; bytes are copied only at the sites that
// actually retain them (voted_for, m_leader, snapshot data). LogEntry stays
// owned in both directions because entries are moved into the durable log.
template <typename S>
struct BasicRequestVoteArgs {
    std::uint64_t term = 0;
    S candidate{};
    std::uint64_t last_log_index = 0;
    std::uint64_t last_log_term = 0;

    template <typename A>
    void serialize(A& ar) {
        ar& term& candidate& last_log_index& last_log_term;
    }
};
using RequestVoteArgs = BasicRequestVoteArgs<std::string>;
using RequestVoteView = BasicRequestVoteArgs<std::string_view>;

template <typename S>
struct BasicAppendEntriesArgs {
    std::uint64_t term = 0;
    S leader{};
    std::uint64_t prev_log_index = 0;
    std::uint64_t prev_log_term = 0;
    std::vector<LogEntry> entries;
    std::uint64_t leader_commit = 0;

    template <typename A>
    void serialize(A& ar) {
        ar& term& leader& prev_log_index& prev_log_term& entries& leader_commit;
    }
};
using AppendEntriesArgs = BasicAppendEntriesArgs<std::string>;
using AppendEntriesView = BasicAppendEntriesArgs<std::string_view>;

template <typename S>
struct BasicInstallSnapshotArgs {
    std::uint64_t term = 0;
    S leader{};
    std::uint64_t last_included_index = 0;
    std::uint64_t last_included_term = 0;
    S data{};

    template <typename A>
    void serialize(A& ar) {
        ar& term& leader& last_included_index& last_included_term& data;
    }
};
using InstallSnapshotArgs = BasicInstallSnapshotArgs<std::string>;
using InstallSnapshotView = BasicInstallSnapshotArgs<std::string_view>;

} // namespace

const char* to_string(Role r) noexcept {
    switch (r) {
    case Role::Follower: return "follower";
    case Role::Candidate: return "candidate";
    case Role::Leader: return "leader";
    }
    return "?";
}

Provider::Provider(margo::InstancePtr instance, std::uint16_t provider_id,
                   std::vector<std::string> peers,
                   std::shared_ptr<StateMachine> state_machine, RaftConfig config)
: margo::Provider(std::move(instance), provider_id, "raft"),
  m_peers(std::move(peers)), m_sm(std::move(state_machine)), m_config(config),
  m_elections(this->instance()->metrics()->counter("raft_elections_total")),
  m_append_entries_sent(this->instance()->metrics()->counter("raft_append_entries_sent_total")),
  m_entries_applied(this->instance()->metrics()->counter("raft_entries_applied_total")),
  m_batches_submitted(this->instance()->metrics()->counter("raft_batches_submitted_total")),
  m_rng(std::hash<std::string>{}(this->instance()->address()) ^ provider_id) {}

std::shared_ptr<Provider> Provider::create(margo::InstancePtr instance,
                                           std::uint16_t provider_id,
                                           std::vector<std::string> peers,
                                           std::shared_ptr<StateMachine> state_machine,
                                           RaftConfig config) {
    auto p = std::shared_ptr<Provider>(new Provider(
        std::move(instance), provider_id, std::move(peers), std::move(state_machine), config));
    p->load_persisted();
    p->define_rpcs();
    p->reset_election_deadline();
    p->schedule_tick();
    return p;
}

Provider::~Provider() {
    stop();
    // Quiesce in-flight RPC handlers before members (log, timers, state
    // machine pointer) are destroyed.
    deregister_all();
}

void Provider::stop() { m_stopped.store(true); }

std::string Provider::storage_path() const {
    return "/raft/" + std::to_string(provider_id()) + "/state";
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

void Provider::persist() const {
    if (!m_config.persist) return;
    auto store = remi::SimFileStore::for_node(instance()->address());
    std::string blob = mercury::pack(m_term, m_voted_for, m_log, m_snapshot_index,
                                     m_snapshot_term, m_snapshot_data);
    (void)store->write(storage_path(), std::move(blob));
}

void Provider::load_persisted() {
    if (!m_config.persist) return;
    auto store = remi::SimFileStore::for_node(instance()->address());
    auto blob = store->read(storage_path());
    if (!blob) return;
    std::lock_guard lk{m_mutex};
    if (!mercury::unpack(*blob, m_term, m_voted_for, m_log, m_snapshot_index,
                         m_snapshot_term, m_snapshot_data)) {
        log::warn("raft", "%s: corrupt persisted state ignored", instance()->address().c_str());
        return;
    }
    if (!m_snapshot_data.empty()) {
        (void)m_sm->restore(m_snapshot_data);
        m_commit_index = m_snapshot_index;
        m_last_applied = m_snapshot_index;
    }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

Role Provider::role() const {
    std::lock_guard lk{m_mutex};
    return m_role;
}

std::uint64_t Provider::term() const {
    std::lock_guard lk{m_mutex};
    return m_term;
}

std::string Provider::leader_hint() const {
    std::lock_guard lk{m_mutex};
    return m_leader;
}

std::uint64_t Provider::commit_index() const {
    std::lock_guard lk{m_mutex};
    return m_commit_index;
}

std::uint64_t Provider::last_log_index() const {
    std::lock_guard lk{m_mutex};
    return m_snapshot_index + m_log.size();
}

std::size_t Provider::log_size_entries() const {
    std::lock_guard lk{m_mutex};
    return m_log.size();
}

json::Value Provider::get_config() const {
    std::lock_guard lk{m_mutex};
    auto c = json::Value::object();
    c["role"] = to_string(m_role);
    c["term"] = m_term;
    c["leader"] = m_leader;
    c["commit_index"] = m_commit_index;
    c["last_applied"] = m_last_applied;
    c["log_entries"] = m_log.size();
    c["snapshot_index"] = m_snapshot_index;
    auto peers = json::Value::array();
    for (const auto& p : m_peers) peers.push_back(p);
    c["peers"] = std::move(peers);
    return c;
}

std::uint64_t Provider::entry_term(std::uint64_t index) const {
    if (index == m_snapshot_index) return m_snapshot_term;
    if (index < m_snapshot_index || index > m_snapshot_index + m_log.size()) return 0;
    return m_log[index - m_snapshot_index - 1].term;
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void Provider::reset_election_deadline() {
    std::uniform_int_distribution<std::int64_t> dist(
        m_config.election_timeout_min.count(), m_config.election_timeout_max.count());
    m_election_deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(dist(m_rng));
}

void Provider::schedule_tick() {
    if (m_stopped.load() || instance()->is_shutdown()) return;
    auto weak = weak_from_this();
    auto period = std::chrono::duration_cast<std::chrono::microseconds>(
        m_config.election_timeout_min / 4);
    instance()->runtime()->timer().schedule(period, [weak] {
        auto self = weak.lock();
        if (!self || self->m_stopped.load() || self->instance()->is_shutdown()) return;
        auto rt = self->instance()->runtime();
        rt->post(rt->primary_pool(), [weak] {
            auto p = weak.lock();
            if (!p || p->m_stopped.load()) return;
            p->tick();
            p->schedule_tick();
        });
    });
}

void Provider::tick() {
    bool start = false;
    bool heartbeat = false;
    {
        std::lock_guard lk{m_mutex};
        auto now = std::chrono::steady_clock::now();
        if (m_role == Role::Leader) {
            if (now - m_last_heartbeat_sent >= m_config.heartbeat_period) {
                m_last_heartbeat_sent = now;
                heartbeat = true;
            }
        } else if (now >= m_election_deadline) {
            start = true;
        }
    }
    if (start) start_election();
    if (heartbeat) broadcast();
}

// ---------------------------------------------------------------------------
// Role transitions
// ---------------------------------------------------------------------------

void Provider::become_follower(std::uint64_t term, std::string_view leader) {
    // m_mutex held by caller
    bool was_leader = m_role == Role::Leader;
    if (term > m_term) {
        m_term = term;
        m_voted_for.clear();
        persist();
    }
    m_role = Role::Follower;
    if (!leader.empty()) m_leader = leader;
    reset_election_deadline();
    if (was_leader) {
        // Fail waiting submissions: leadership lost before commitment.
        auto waiters = std::move(m_waiters);
        m_waiters.clear();
        for (auto& [idx, ev] : waiters)
            ev->set_value(Error{Error::Code::NotLeader, "leadership lost; leader=" + m_leader});
    }
}

void Provider::start_election() {
    RequestVoteArgs args;
    std::vector<std::string> peers;
    std::uint64_t election_term;
    {
        std::lock_guard lk{m_mutex};
        m_role = Role::Candidate;
        ++m_term;
        m_voted_for = instance()->address();
        m_leader.clear();
        persist();
        reset_election_deadline();
        election_term = m_term;
        args.term = m_term;
        args.candidate = instance()->address();
        args.last_log_index = m_snapshot_index + m_log.size();
        args.last_log_term = entry_term(args.last_log_index);
        for (const auto& p : m_peers)
            if (p != instance()->address()) peers.push_back(p);
    }
    log::debug("raft", "%s: starting election for term %llu", instance()->address().c_str(),
               static_cast<unsigned long long>(election_term));
    auto votes = std::make_shared<std::atomic<std::size_t>>(1); // self-vote
    auto majority = m_peers.size() / 2 + 1;
    if (*votes >= majority) {
        become_leader(); // single-node group: win immediately
        return;
    }
    m_elections.inc();
    auto weak = weak_from_this();
    auto rt = instance()->runtime();
    // Vote requests fan out on fresh ULTs; keep them on the ambient trace
    // (e.g. the membership-change RPC that triggered this election).
    margo::RpcContext rpc_ctx = margo::current_rpc_context();
    for (const auto& peer : peers) {
        rt->post(rt->primary_pool(), [weak, peer, args, votes, majority, election_term,
                                      rpc_ctx] {
            margo::ContextScope scope{rpc_ctx};
            auto self = weak.lock();
            if (!self || self->m_stopped.load()) return;
            margo::ForwardOptions opts;
            opts.provider_id = self->provider_id();
            opts.timeout = self->m_config.rpc_timeout;
            auto r = self->instance()->call<std::uint64_t, bool>(
                peer, "raft/request_vote", opts, args);
            if (!r) return;
            auto [peer_term, granted] = *r;
            bool won = false;
            {
                std::lock_guard lk{self->m_mutex};
                if (peer_term > self->m_term) {
                    self->become_follower(peer_term, "");
                    return;
                }
                if (self->m_role != Role::Candidate || self->m_term != election_term) return;
                if (granted && votes->fetch_add(1) + 1 >= majority) won = true;
            }
            if (won) self->become_leader();
        });
    }
}

void Provider::become_leader() {
    {
        std::lock_guard lk{m_mutex};
        if (m_role != Role::Candidate) return;
        m_role = Role::Leader;
        m_leader = instance()->address();
        std::uint64_t next = m_snapshot_index + m_log.size() + 1;
        for (const auto& p : m_peers) {
            m_next_index[p] = next;
            m_match_index[p] = 0;
            m_replicating[p] = false;
        }
        m_last_heartbeat_sent = std::chrono::steady_clock::now();
    }
    log::info("raft", "%s: became leader (term %llu)", instance()->address().c_str(),
              static_cast<unsigned long long>(term()));
    broadcast();
}

// ---------------------------------------------------------------------------
// Replication (leader side)
// ---------------------------------------------------------------------------

void Provider::broadcast() {
    for (const auto& peer : m_peers)
        if (peer != instance()->address()) replicate_to(peer);
}

void Provider::replicate_to(const std::string& peer) {
    {
        std::lock_guard lk{m_mutex};
        if (m_role != Role::Leader) return;
        // One in-flight replication per peer; the completion reschedules if
        // more entries arrived meanwhile.
        if (m_replicating[peer]) return;
        m_replicating[peer] = true;
    }
    auto weak = weak_from_this();
    auto rt = instance()->runtime();
    // The replication ULT inherits the submitter's context so append_entries
    // forwards show up as children of the client operation being committed.
    margo::RpcContext rpc_ctx = margo::current_rpc_context();
    rt->post(rt->primary_pool(), [weak, peer, rpc_ctx] {
        margo::ContextScope scope{rpc_ctx};
        auto self = weak.lock();
        if (!self || self->m_stopped.load()) return;
        bool again = false;
        do {
            again = false;
            AppendEntriesArgs args;
            InstallSnapshotArgs snap;
            bool need_snapshot = false;
            {
                std::lock_guard lk{self->m_mutex};
                if (self->m_role != Role::Leader) {
                    self->m_replicating[peer] = false;
                    return;
                }
                std::uint64_t next = self->m_next_index[peer];
                if (next <= self->m_snapshot_index) {
                    need_snapshot = true;
                    snap.term = self->m_term;
                    snap.leader = self->instance()->address();
                    snap.last_included_index = self->m_snapshot_index;
                    snap.last_included_term = self->m_snapshot_term;
                    snap.data = self->m_snapshot_data;
                } else {
                    args.term = self->m_term;
                    args.leader = self->instance()->address();
                    args.prev_log_index = next - 1;
                    args.prev_log_term = self->entry_term(next - 1);
                    args.leader_commit = self->m_commit_index;
                    std::size_t first = next - self->m_snapshot_index - 1;
                    constexpr std::size_t k_max_batch = 256;
                    for (std::size_t i = first;
                         i < self->m_log.size() && args.entries.size() < k_max_batch; ++i)
                        args.entries.push_back(self->m_log[i]);
                }
            }
            margo::ForwardOptions opts;
            opts.provider_id = self->provider_id();
            opts.timeout = self->m_config.rpc_timeout;
            if (need_snapshot) {
                auto r = self->instance()->call<std::uint64_t>(peer, "raft/install_snapshot",
                                                               opts, snap);
                std::lock_guard lk{self->m_mutex};
                if (r) {
                    if (std::get<0>(*r) > self->m_term) {
                        self->become_follower(std::get<0>(*r), "");
                    } else {
                        self->m_next_index[peer] = snap.last_included_index + 1;
                        self->m_match_index[peer] = snap.last_included_index;
                        again = true;
                    }
                }
                if (!again) self->m_replicating[peer] = false;
                continue;
            }
            self->m_append_entries_sent.inc();
            auto r = self->instance()->call<std::uint64_t, bool, std::uint64_t>(
                peer, "raft/append_entries", opts, args);
            std::unique_lock lk{self->m_mutex};
            if (!r) {
                self->m_replicating[peer] = false;
                return; // retry on next heartbeat
            }
            auto [peer_term, success, match] = *r;
            if (peer_term > self->m_term) {
                self->become_follower(peer_term, "");
                self->m_replicating[peer] = false;
                return;
            }
            if (self->m_role != Role::Leader) {
                self->m_replicating[peer] = false;
                return;
            }
            if (success) {
                self->m_match_index[peer] = std::max(self->m_match_index[peer], match);
                self->m_next_index[peer] = self->m_match_index[peer] + 1;
                self->advance_commit();
                // More entries appended meanwhile?
                again = self->m_next_index[peer] <=
                        self->m_snapshot_index + self->m_log.size();
            } else {
                // Conflict: follower tells us its match hint; back off.
                self->m_next_index[peer] =
                    std::max<std::uint64_t>(1, std::min(match + 1, self->m_next_index[peer] - 1));
                again = true;
            }
            if (!again) self->m_replicating[peer] = false;
        } while (again && !self->m_stopped.load());
    });
}

void Provider::advance_commit() {
    // m_mutex held. Find the highest N replicated on a majority with
    // log[N].term == currentTerm (RAFT's commitment rule).
    std::uint64_t last = m_snapshot_index + m_log.size();
    for (std::uint64_t n = last; n > m_commit_index && n > m_snapshot_index; --n) {
        if (entry_term(n) != m_term) break;
        std::size_t count = 1; // self
        for (const auto& p : m_peers) {
            if (p == instance()->address()) continue;
            if (m_match_index[p] >= n) ++count;
        }
        if (count >= m_peers.size() / 2 + 1) {
            m_commit_index = n;
            break;
        }
    }
    apply_committed();
}

void Provider::apply_committed() {
    // m_mutex held.
    while (m_last_applied < m_commit_index) {
        ++m_last_applied;
        const LogEntry& e = m_log[m_last_applied - m_snapshot_index - 1];
        std::string result = m_sm->apply(e.command);
        m_entries_applied.inc();
        auto it = m_waiters.find(m_last_applied);
        if (it != m_waiters.end()) {
            it->second->set_value(Expected<std::string>(std::move(result)));
            m_waiters.erase(it);
        }
    }
    maybe_snapshot();
}

void Provider::maybe_snapshot() {
    // m_mutex held. Compact the log once enough entries are applied.
    std::uint64_t applied_in_log = m_last_applied - m_snapshot_index;
    if (applied_in_log < m_config.snapshot_threshold) return;
    m_snapshot_data = m_sm->snapshot();
    m_snapshot_term = entry_term(m_last_applied);
    m_log.erase(m_log.begin(), m_log.begin() + static_cast<std::ptrdiff_t>(applied_in_log));
    m_snapshot_index = m_last_applied;
    persist();
    log::debug("raft", "%s: compacted log at index %llu", instance()->address().c_str(),
               static_cast<unsigned long long>(m_snapshot_index));
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

Expected<std::string> Provider::submit(const std::string& command) {
    std::shared_ptr<abt::Eventual<Expected<std::string>>> waiter;
    std::uint64_t index = 0;
    {
        std::lock_guard lk{m_mutex};
        if (m_role != Role::Leader)
            return Error{Error::Code::NotLeader,
                         m_leader.empty() ? "no leader known" : m_leader};
        m_log.push_back(LogEntry{m_term, command});
        persist();
        index = m_snapshot_index + m_log.size();
        waiter = std::make_shared<abt::Eventual<Expected<std::string>>>();
        m_waiters[index] = waiter;
        if (m_peers.size() == 1) advance_commit(); // single-node commit
    }
    broadcast();
    auto result = waiter->wait_for(std::chrono::duration_cast<std::chrono::microseconds>(
        m_config.rpc_timeout * 20));
    if (!result) {
        // Deregister so a timed-out submission does not leak its waiter.
        std::lock_guard lk{m_mutex};
        auto it = m_waiters.find(index);
        if (it != m_waiters.end() && it->second == waiter) m_waiters.erase(it);
        return Error{Error::Code::Timeout, "command not committed in time"};
    }
    return std::move(*result);
}

Expected<std::vector<std::string>> Provider::submit_multi(
    const std::vector<std::string>& commands) {
    if (commands.empty()) return std::vector<std::string>{};
    std::vector<std::shared_ptr<abt::Eventual<Expected<std::string>>>> waiters;
    waiters.reserve(commands.size());
    std::uint64_t first_index = 0;
    {
        std::lock_guard lk{m_mutex};
        if (m_role != Role::Leader)
            return Error{Error::Code::NotLeader,
                         m_leader.empty() ? "no leader known" : m_leader};
        for (const auto& command : commands) m_log.push_back(LogEntry{m_term, command});
        persist(); // one store write for the whole batch
        first_index = m_snapshot_index + m_log.size() - commands.size() + 1;
        for (std::size_t i = 0; i < commands.size(); ++i) {
            auto w = std::make_shared<abt::Eventual<Expected<std::string>>>();
            m_waiters[first_index + i] = w;
            waiters.push_back(std::move(w));
        }
        if (m_peers.size() == 1) advance_commit(); // single-node commit
    }
    m_batches_submitted.inc();
    broadcast(); // one replication round carries every entry of the batch
    auto budget = std::chrono::duration_cast<std::chrono::microseconds>(
        m_config.rpc_timeout * 20);
    std::vector<std::string> results;
    results.reserve(commands.size());
    for (std::size_t i = 0; i < waiters.size(); ++i) {
        auto r = waiters[i]->wait_for(budget);
        if (!r) {
            // Deregister the rest so a timed-out batch does not leak waiters.
            std::lock_guard lk{m_mutex};
            for (std::size_t j = i; j < waiters.size(); ++j) {
                auto it = m_waiters.find(first_index + j);
                if (it != m_waiters.end() && it->second == waiters[j]) m_waiters.erase(it);
            }
            return Error{Error::Code::Timeout, "batch not committed in time"};
        }
        if (!*r) return std::move(*r).error();
        results.push_back(std::move(**r));
    }
    return results;
}

// ---------------------------------------------------------------------------
// RPC handlers (follower side)
// ---------------------------------------------------------------------------

void Provider::define_rpcs() {
    define<RequestVoteView>("request_vote", [this](const margo::Request& req,
                                                   const RequestVoteView& args) {
        std::lock_guard lk{m_mutex};
        if (args.term > m_term) become_follower(args.term, "");
        bool granted = false;
        if (args.term == m_term && (m_voted_for.empty() || m_voted_for == args.candidate)) {
            // Election restriction: candidate's log must be at least as
            // up-to-date as ours.
            std::uint64_t our_last = m_snapshot_index + m_log.size();
            std::uint64_t our_last_term = entry_term(our_last);
            if (args.last_log_term > our_last_term ||
                (args.last_log_term == our_last_term && args.last_log_index >= our_last)) {
                granted = true;
                m_voted_for = args.candidate;
                persist();
                reset_election_deadline();
            }
        }
        req.respond_values(m_term, granted);
    });

    define<AppendEntriesView>("append_entries", [this](const margo::Request& req,
                                                       AppendEntriesView& args) {
        std::lock_guard lk{m_mutex};
        if (args.term < m_term) {
            req.respond_values(m_term, false, std::uint64_t{0});
            return;
        }
        become_follower(args.term, args.leader);
        // Consistency check at prev_log_index.
        std::uint64_t our_last = m_snapshot_index + m_log.size();
        if (args.prev_log_index > our_last ||
            (args.prev_log_index > m_snapshot_index &&
             entry_term(args.prev_log_index) != args.prev_log_term)) {
            // Hint: how far we actually match.
            std::uint64_t hint = std::min(args.prev_log_index, our_last);
            if (hint > 0) --hint;
            req.respond_values(m_term, false, std::max(hint, m_snapshot_index));
            return;
        }
        // Append, truncating conflicting suffix.
        std::uint64_t index = args.prev_log_index;
        for (auto& entry : args.entries) {
            ++index;
            if (index <= m_snapshot_index) continue; // already snapshotted
            std::size_t pos = index - m_snapshot_index - 1;
            if (pos < m_log.size()) {
                if (m_log[pos].term == entry.term) continue; // already have it
                m_log.resize(pos); // conflict: truncate suffix
            }
            m_log.push_back(std::move(entry));
        }
        persist();
        std::uint64_t match = args.prev_log_index + args.entries.size();
        if (args.leader_commit > m_commit_index) {
            m_commit_index = std::min(args.leader_commit, m_snapshot_index + m_log.size());
            apply_committed();
        }
        req.respond_values(m_term, true, match);
    });

    define<InstallSnapshotView>("install_snapshot", [this](const margo::Request& req,
                                                           const InstallSnapshotView& args) {
        std::lock_guard lk{m_mutex};
        if (args.term < m_term) {
            req.respond_values(m_term);
            return;
        }
        become_follower(args.term, args.leader);
        if (args.last_included_index > m_snapshot_index) {
            m_snapshot_data = args.data; // materialize the payload view once
            (void)m_sm->restore(m_snapshot_data);
            m_snapshot_index = args.last_included_index;
            m_snapshot_term = args.last_included_term;
            m_log.clear();
            m_commit_index = std::max(m_commit_index, m_snapshot_index);
            m_last_applied = m_snapshot_index;
            persist();
        }
        req.respond_values(m_term);
    });

    define<std::string>("submit", [this](const margo::Request& req,
                                         const std::string& command) {
        auto r = submit(command);
        if (!r)
            req.respond_error(r.error());
        else
            req.respond_values(*r);
    });

    define<std::vector<std::string>>("submit_multi", [this](const margo::Request& req,
                                                            const auto& commands) {
        auto r = submit_multi(commands);
        if (!r)
            req.respond_error(r.error());
        else
            req.respond_values(*r);
    });

    define("status", [this](const margo::Request& req) {
        req.respond_values(get_config().dump());
    });
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(margo::InstancePtr instance, std::vector<std::string> peers,
               std::uint16_t provider_id, std::chrono::milliseconds op_timeout)
: m_instance(std::move(instance)), m_peers(std::move(peers)), m_provider_id(provider_id),
  m_op_timeout(op_timeout) {}

Expected<std::string> Client::submit(const std::string& command) {
    auto deadline = std::chrono::steady_clock::now() + m_op_timeout;
    margo::ForwardOptions opts;
    opts.provider_id = m_provider_id;
    opts.timeout = std::chrono::milliseconds(1000);
    std::size_t next_peer = 0;
    Error last{Error::Code::Unreachable, "no peer reachable"};
    while (std::chrono::steady_clock::now() < deadline) {
        std::string target = m_leader;
        if (target.empty()) {
            target = m_peers[next_peer % m_peers.size()];
            ++next_peer;
        }
        auto r = m_instance->call<std::string>(target, "raft/submit", opts, command);
        if (r) {
            m_leader = target;
            return std::get<0>(std::move(*r));
        }
        last = r.error();
        absorb_submit_error(last);
    }
    return last;
}

Expected<std::vector<std::string>> Client::submit_multi(
    const std::vector<std::string>& commands) {
    auto deadline = std::chrono::steady_clock::now() + m_op_timeout;
    margo::ForwardOptions opts;
    opts.provider_id = m_provider_id;
    opts.timeout = std::chrono::milliseconds(1000);
    std::size_t next_peer = 0;
    Error last{Error::Code::Unreachable, "no peer reachable"};
    while (std::chrono::steady_clock::now() < deadline) {
        std::string target = m_leader;
        if (target.empty()) {
            target = m_peers[next_peer % m_peers.size()];
            ++next_peer;
        }
        auto r = m_instance->call<std::vector<std::string>>(target, "raft/submit_multi",
                                                            opts, commands);
        if (r) {
            m_leader = target;
            return std::get<0>(std::move(*r));
        }
        last = r.error();
        absorb_submit_error(last);
    }
    return last;
}

void Client::absorb_submit_error(const Error& e) {
    if (e.code == Error::Code::NotLeader) {
        // The message carries the leader hint (possibly empty).
        m_leader = e.message.find("sim://") == 0 ? e.message : "";
        if (m_leader.empty()) {
            // Strip known prefixes like "leadership lost; leader=".
            auto pos = e.message.find("sim://");
            if (pos != std::string::npos) m_leader = e.message.substr(pos);
        }
        if (m_leader.empty())
            m_instance->runtime()->sleep_for(std::chrono::milliseconds(20));
        return;
    }
    m_leader.clear();
    m_instance->runtime()->sleep_for(std::chrono::milliseconds(20));
}

} // namespace mochi::raft
