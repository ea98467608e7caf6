// SSG: scalable service groups (§6 Obs. 7, §7 Obs. 12).
//
// Maintains a dynamic view of the processes making up a service, lets client
// applications retrieve it, and detects member failures using the SWIM
// gossip protocol [Das et al. 2002]: periodic random direct pings, indirect
// ping-reqs through k proxies, a suspicion period before declaring death,
// and piggybacked dissemination of membership updates. The view carries a
// version and a hash so services can implement the Colza-style protocol
// (clients attach the hash to RPCs; a mismatch tells either side its view is
// stale).
#pragma once

#include "common/expected.hpp"
#include "margo/instance.hpp"

#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace mochi::ssg {

/// Snapshot of a group's membership.
struct GroupView {
    std::vector<std::string> members; ///< sorted addresses (alive + suspected)
    std::uint64_t version = 0;        ///< bumps on every membership change

    /// Stable digest of the member list; what Colza-style clients attach to
    /// their RPCs. Version-independent so members whose views converged
    /// agree on it regardless of how many transitions each one witnessed.
    [[nodiscard]] std::uint64_t digest() const noexcept;
};

enum class MembershipEvent { Joined, Left, Died };

[[nodiscard]] const char* to_string(MembershipEvent e) noexcept;

using MembershipCallback =
    std::function<void(const std::string& address, MembershipEvent event)>;

/// Fired when a newer group payload is adopted (published locally or pulled
/// from a peer). Called from SSG ULTs; must not block long.
using PayloadCallback =
    std::function<void(std::uint64_t version, const std::string& payload)>;

struct GroupConfig {
    std::chrono::milliseconds swim_period{100};  ///< SWIM protocol period
    std::chrono::milliseconds ping_timeout{40};  ///< direct/indirect ack wait
    int suspicion_periods = 3; ///< periods a suspect survives before death
    int ping_req_fanout = 2;   ///< k proxies for indirect pings
    int gossip_transmissions = 8; ///< piggyback retransmissions per update
    bool enable_swim = true;   ///< false: membership changes only via join/leave
};

/// One member's handle on a group. Every process of the service creates one
/// (bootstrapped from the same initial address list, the paper's third
/// bootstrap option) or joins later through any existing member.
class Group : public std::enable_shared_from_this<Group> {
  public:
    /// Bootstrap: `initial_members` must contain this process's address.
    static Expected<std::shared_ptr<Group>> create(margo::InstancePtr instance,
                                                   std::string group_name,
                                                   std::vector<std::string> initial_members,
                                                   GroupConfig config = {});

    /// Dynamic join through `seed_address` (an existing member).
    static Expected<std::shared_ptr<Group>> join(margo::InstancePtr instance,
                                                 std::string group_name,
                                                 const std::string& seed_address,
                                                 GroupConfig config = {});

    ~Group();

    [[nodiscard]] const std::string& name() const noexcept { return m_name; }
    [[nodiscard]] const std::string& self() const noexcept;

    /// Current view (alive + suspected members), eventually consistent.
    [[nodiscard]] GroupView view() const;
    [[nodiscard]] std::uint64_t view_digest() const { return view().digest(); }
    /// Number of completed SWIM protocol periods — a liveness diagnostic:
    /// a frozen counter means the protocol loop stopped rescheduling.
    [[nodiscard]] std::uint64_t periods() const;

    /// Register a callback fired on membership changes (fault notification
    /// mechanism of §7 Obs. 12). Called from SSG ULTs; must not block long.
    void on_membership_change(MembershipCallback cb);

    // -- payload dissemination -------------------------------------------------
    //
    // A group can carry one opaque versioned blob (the elastic service's
    // layout). Only the payload *version* rides on SWIM traffic — every ping
    // and gossip message piggybacks it — and a member seeing a newer version
    // anywhere pulls the blob once via "ssg/get_payload" (anti-entropy), so
    // dissemination costs O(1) extra bytes per protocol message plus one
    // pull per member per update.

    /// Adopt (and start disseminating) `payload` if `version` is newer than
    /// what this member holds.
    void publish_payload(std::uint64_t version, std::string payload);
    /// Currently-held payload (version 0, empty = none yet).
    [[nodiscard]] std::pair<std::uint64_t, std::string> payload() const;
    /// Register a callback fired whenever a newer payload is adopted.
    void on_payload(PayloadCallback cb);

    /// Fetch a group's payload from a member, as a detached client would
    /// (no membership, no gossip — one explicit RPC).
    static Expected<std::pair<std::uint64_t, std::string>>
    fetch_payload(const margo::InstancePtr& instance, const std::string& group_name,
                  const std::string& member_address);

    /// Gracefully leave and stop. Idempotent.
    void leave();

    /// Fetch a group's view from a member, as a non-member client would
    /// ("an explicit function that the application needs to call").
    static Expected<GroupView> fetch_view(const margo::InstancePtr& instance,
                                          const std::string& group_name,
                                          const std::string& member_address);

    /// Provider id SSG RPCs of `group_name` are registered under.
    [[nodiscard]] static std::uint16_t provider_id_for(std::string_view group_name) noexcept;

    /// A disseminated membership update (piggybacked on protocol messages).
    struct Update {
        std::string address;
        std::uint8_t state = 0; ///< MemberState
        std::uint64_t incarnation = 0;

        template <typename A>
        void serialize(A& ar) {
            ar& address& state& incarnation;
        }
    };

  private:
    Group(margo::InstancePtr instance, std::string group_name, GroupConfig config);

    // Per-member SWIM state.
    enum class MemberState { Alive, Suspect, Dead, Left };
    struct MemberInfo {
        MemberState state = MemberState::Alive;
        std::uint64_t incarnation = 0;
        std::uint64_t suspect_since_period = 0;
    };

    void register_rpcs();
    /// Register RPC `name` as a typed handler (margo::typed_handler) whose
    /// body also receives the group; a stopped or destroyed group answers
    /// InvalidState.
    template <typename... Args, typename F>
    void define_rpc(const char* name, F fn);
    void start_protocol_loop();
    void protocol_period();
    /// Apply a received update; returns true if it changed local state.
    bool apply_update(const Update& u);
    /// Updates to piggyback (consumes transmission budget).
    std::vector<Update> collect_gossip();
    /// collect_gossip() plus, when we hold `peer` Dead/Left, an entry with
    /// that status — the peer is evidently alive and must get a chance to
    /// refute (and thereby rejoin) even after the death gossip's
    /// transmission budget is exhausted.
    std::vector<Update> collect_gossip_for(const std::string& peer);
    void enqueue_gossip(Update u);
    /// Ping `target` directly; true if an ack arrived in time.
    bool direct_ping(const std::string& target);
    void mark_suspect(const std::string& address);
    void mark_dead(const std::string& address, std::uint64_t incarnation,
                   bool graceful);
    void bump_version_and_notify(const std::string& address, MembershipEvent ev);
    GroupView view_locked() const;
    json::Value snapshot_payload() const;
    /// Adopt a payload if newer; fires payload callbacks when it was.
    bool adopt_payload(std::uint64_t version, std::string payload);
    /// Anti-entropy: when a protocol message shows `peer` holds a newer
    /// payload version, pull the blob from it on a fresh ULT.
    void maybe_pull_payload(const std::string& peer, std::uint64_t remote_version);
    std::uint64_t payload_version() const;

    margo::InstancePtr m_instance;
    std::string m_name;
    GroupConfig m_config;
    std::uint16_t m_provider_id;
    // Resolved once at construction; the registry owns them.
    margo::Counter& m_pings;         ///< ssg_pings_total
    margo::Counter& m_suspicions;    ///< ssg_suspicions_total
    margo::Counter& m_deaths;        ///< ssg_deaths_total
    margo::Counter& m_payload_pulls; ///< ssg_payload_pulls_total

    mutable std::mutex m_mutex;
    std::map<std::string, MemberInfo> m_members; ///< includes self
    std::uint64_t m_version = 0;
    std::uint64_t m_self_incarnation = 0;
    std::uint64_t m_period_counter = 0;
    std::vector<std::string> m_ping_order; ///< SWIM round-robin permutation
    std::size_t m_ping_cursor = 0;
    std::deque<std::pair<Update, int>> m_gossip; ///< update + remaining sends
    std::vector<MembershipCallback> m_callbacks;
    std::uint64_t m_payload_version = 0;
    std::string m_payload;
    std::vector<PayloadCallback> m_payload_callbacks;
    bool m_payload_pull_inflight = false;
    std::mt19937_64 m_rng;
    std::atomic<bool> m_stopped{false};
};

} // namespace mochi::ssg
