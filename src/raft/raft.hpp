// Mochi-RAFT (§7, Observation 11): a RAFT [Ongaro & Ousterhout 2014]
// implementation over Margo, modeled after C-RAFT's role in the paper.
// Provides state-machine replication across components of the same type:
// leader election with randomized timeouts, log replication, commitment,
// snapshotting/compaction, persistence to the node-local store (so a
// restarted process recovers its term/vote/log), and a client helper that
// tracks the leader.
//
// Composability: the replicated component only implements StateMachine
// (apply/snapshot/restore); it is unaware of the consensus protocol, and
// Mochi-RAFT is unaware of what the commands mean (§2.3's Yokan example).
#pragma once

#include "margo/provider.hpp"
#include "remi/sim_file_store.hpp"

#include <deque>
#include <random>
#include <string_view>

namespace mochi::raft {

/// The replicated application (e.g. a Yokan database). apply() must be
/// deterministic across replicas.
class StateMachine {
  public:
    virtual ~StateMachine() = default;
    /// Apply a committed command; the returned string is the command result
    /// delivered to the submitting client (by the leader).
    virtual std::string apply(const std::string& command) = 0;
    /// Serialize the full state (for log compaction / lagging followers).
    [[nodiscard]] virtual std::string snapshot() const = 0;
    /// Replace the state with a snapshot.
    virtual Status restore(const std::string& snapshot) = 0;
};

enum class Role { Follower, Candidate, Leader };

[[nodiscard]] const char* to_string(Role r) noexcept;

struct RaftConfig {
    std::chrono::milliseconds election_timeout_min{150};
    std::chrono::milliseconds election_timeout_max{300};
    std::chrono::milliseconds heartbeat_period{40};
    std::chrono::milliseconds rpc_timeout{100};
    /// Compact the log into a snapshot after this many applied entries.
    std::size_t snapshot_threshold = 4096;
    /// Persist term/vote/log to the node-local store.
    bool persist = true;
};

struct LogEntry {
    std::uint64_t term = 0;
    std::string command;

    template <typename A>
    void serialize(A& ar) {
        ar& term& command;
    }
};

class Provider : public margo::Provider, public std::enable_shared_from_this<Provider> {
  public:
    /// `peers` lists the addresses of every replica (including this one);
    /// each runs a raft::Provider with the same `provider_id`.
    static std::shared_ptr<Provider> create(margo::InstancePtr instance,
                                            std::uint16_t provider_id,
                                            std::vector<std::string> peers,
                                            std::shared_ptr<StateMachine> state_machine,
                                            RaftConfig config = {});

    ~Provider() override;

    /// Submit a command for replication. Succeeds only on the leader (with
    /// the applied result); otherwise fails with NotLeader and the current
    /// leader hint in the message (clients use RaftClient instead).
    Expected<std::string> submit(const std::string& command);

    /// Submit a batch: every command is appended under one lock acquisition
    /// with a single persist(), and one replication round ships the whole
    /// batch (append_entries already carries entry vectors). Results come
    /// back in submission order; a timeout or lost leadership fails the
    /// whole call.
    Expected<std::vector<std::string>> submit_multi(const std::vector<std::string>& commands);

    [[nodiscard]] Role role() const;
    [[nodiscard]] std::uint64_t term() const;
    [[nodiscard]] std::string leader_hint() const;
    [[nodiscard]] std::uint64_t commit_index() const;
    [[nodiscard]] std::uint64_t last_log_index() const;
    [[nodiscard]] std::size_t log_size_entries() const; ///< after compaction

    [[nodiscard]] json::Value get_config() const override;

    /// Stop timers and refuse further RPCs (simulated process death keeps
    /// the persisted state for a later restart).
    void stop();

  private:
    Provider(margo::InstancePtr instance, std::uint16_t provider_id,
             std::vector<std::string> peers, std::shared_ptr<StateMachine> state_machine,
             RaftConfig config);
    void define_rpcs();
    void schedule_tick();
    void tick();
    void become_follower(std::uint64_t term, std::string_view leader);
    void start_election();
    void become_leader();
    void replicate_to(const std::string& peer);
    void broadcast();
    void advance_commit();
    void apply_committed(); ///< call with m_mutex held
    void maybe_snapshot();  ///< call with m_mutex held
    void persist() const;   ///< call with m_mutex held
    void load_persisted();
    void reset_election_deadline();
    [[nodiscard]] std::uint64_t entry_term(std::uint64_t index) const; ///< locked
    [[nodiscard]] std::string storage_path() const;

    std::vector<std::string> m_peers;
    std::shared_ptr<StateMachine> m_sm;
    RaftConfig m_config;
    // Resolved once at construction; the registry owns them.
    margo::Counter& m_elections;           ///< raft_elections_total
    margo::Counter& m_append_entries_sent; ///< raft_append_entries_sent_total
    margo::Counter& m_entries_applied;     ///< raft_entries_applied_total
    margo::Counter& m_batches_submitted;   ///< raft_batches_submitted_total

    mutable std::mutex m_mutex;
    Role m_role = Role::Follower;
    std::uint64_t m_term = 0;
    std::string m_voted_for;
    std::string m_leader;
    // Log: entries m_log[i] has index m_snapshot_index + 1 + i.
    std::vector<LogEntry> m_log;
    std::uint64_t m_snapshot_index = 0;
    std::uint64_t m_snapshot_term = 0;
    std::string m_snapshot_data;
    std::uint64_t m_commit_index = 0;
    std::uint64_t m_last_applied = 0;
    std::map<std::string, std::uint64_t> m_next_index;
    std::map<std::string, std::uint64_t> m_match_index;
    std::map<std::string, bool> m_replicating; ///< per-peer in-flight flag
    // Waiters for entry commitment: index -> eventual with apply result.
    std::map<std::uint64_t, std::shared_ptr<abt::Eventual<Expected<std::string>>>> m_waiters;
    std::chrono::steady_clock::time_point m_election_deadline;
    std::chrono::steady_clock::time_point m_last_heartbeat_sent;
    std::mt19937_64 m_rng;
    std::atomic<bool> m_stopped{false};
};

/// Client helper: submits commands, discovering and tracking the leader
/// (retries on NotLeader using the hint, and on timeouts tries other peers).
class Client {
  public:
    Client(margo::InstancePtr instance, std::vector<std::string> peers,
           std::uint16_t provider_id, std::chrono::milliseconds op_timeout =
                                          std::chrono::milliseconds(5000));

    Expected<std::string> submit(const std::string& command);
    /// Batched submit: one raft/submit_multi RPC carries all commands to the
    /// leader, which commits them as one log append + replication round.
    Expected<std::vector<std::string>> submit_multi(const std::vector<std::string>& commands);
    [[nodiscard]] const std::string& known_leader() const noexcept { return m_leader; }

  private:
    /// Update the tracked leader from a failed submit (NotLeader hints
    /// carry the leader address); back off briefly when no hint is known.
    void absorb_submit_error(const Error& e);

    margo::InstancePtr m_instance;
    std::vector<std::string> m_peers;
    std::uint16_t m_provider_id;
    std::chrono::milliseconds m_op_timeout;
    std::string m_leader;
};

} // namespace mochi::raft
