// Tests for Mochi-RAFT (§7): leader election, replication, linearizable
// apply, leader failover, partitions, log compaction, persistence-based
// recovery, and the client leader-tracking helper.
#include "raft/raft.hpp"
#include "malformed_payload.hpp"

#include <gtest/gtest.h>

#include <thread>

using namespace mochi;
using namespace std::chrono_literals;

namespace {

/// A deterministic state machine: an append-only register supporting
/// "set:<v>"/"append:<v>"/"get" commands.
class RegisterMachine : public raft::StateMachine {
  public:
    std::string apply(const std::string& command) override {
        std::lock_guard lk{m_mutex};
        ++m_applied;
        if (command.rfind("set:", 0) == 0) {
            m_value = command.substr(4);
            return m_value;
        }
        if (command.rfind("append:", 0) == 0) {
            m_value += command.substr(7);
            return m_value;
        }
        return m_value;
    }
    std::string snapshot() const override {
        std::lock_guard lk{m_mutex};
        return m_value;
    }
    Status restore(const std::string& snap) override {
        std::lock_guard lk{m_mutex};
        m_value = snap;
        return {};
    }
    std::string value() const {
        std::lock_guard lk{m_mutex};
        return m_value;
    }
    std::size_t applied() const {
        std::lock_guard lk{m_mutex};
        return m_applied;
    }

  private:
    mutable std::mutex m_mutex;
    std::string m_value;
    std::size_t m_applied = 0;
};

struct RaftCluster {
    std::shared_ptr<mercury::Fabric> fabric = mercury::Fabric::create();
    std::vector<std::string> addresses;
    std::vector<margo::InstancePtr> instances;
    std::vector<std::shared_ptr<RegisterMachine>> machines;
    std::vector<std::shared_ptr<raft::Provider>> nodes;
    raft::RaftConfig config;

    explicit RaftCluster(int n, raft::RaftConfig cfg = fast_config()) : config(cfg) {
        for (int i = 0; i < n; ++i) {
            addresses.push_back("sim://raft" + std::to_string(i));
            remi::SimFileStore::destroy_node(addresses.back());
        }
        for (int i = 0; i < n; ++i) spawn(i);
    }
    static raft::RaftConfig fast_config() {
        raft::RaftConfig cfg;
        cfg.election_timeout_min = 100ms;
        cfg.election_timeout_max = 200ms;
        cfg.heartbeat_period = 30ms;
        return cfg;
    }
    void spawn(int i) {
        if (instances.size() <= static_cast<std::size_t>(i)) {
            instances.resize(i + 1);
            machines.resize(i + 1);
            nodes.resize(i + 1);
        }
        instances[i] = margo::Instance::create(fabric, addresses[i]).value();
        machines[i] = std::make_shared<RegisterMachine>();
        nodes[i] = raft::Provider::create(instances[i], 9, addresses, machines[i], config);
    }
    void crash(int i) {
        // Drain the margo runtime before destroying the provider: handler
        // ULTs capture the provider pointer.
        nodes[i]->stop();
        instances[i]->shutdown();
        nodes[i].reset();
    }
    ~RaftCluster() {
        for (auto& n : nodes)
            if (n) n->stop();
        for (auto& m : instances)
            if (m) m->shutdown();
        nodes.clear();
    }

    /// Index of the current leader, or -1.
    int leader_index(std::chrono::milliseconds wait = 5000ms) {
        auto deadline = std::chrono::steady_clock::now() + wait;
        while (std::chrono::steady_clock::now() < deadline) {
            for (std::size_t i = 0; i < nodes.size(); ++i)
                if (nodes[i] && nodes[i]->role() == raft::Role::Leader)
                    return static_cast<int>(i);
            std::this_thread::sleep_for(10ms);
        }
        return -1;
    }

    template <typename F>
    bool eventually(F f, std::chrono::milliseconds limit = 5000ms) {
        auto deadline = std::chrono::steady_clock::now() + limit;
        while (std::chrono::steady_clock::now() < deadline) {
            if (f()) return true;
            std::this_thread::sleep_for(10ms);
        }
        return f();
    }
};

} // namespace

TEST(Raft, ElectsExactlyOneLeader) {
    RaftCluster c{3};
    int leader = c.leader_index();
    ASSERT_GE(leader, 0);
    // Exactly one leader at this term.
    std::this_thread::sleep_for(300ms);
    int count = 0;
    for (auto& n : c.nodes)
        if (n->role() == raft::Role::Leader) ++count;
    EXPECT_EQ(count, 1);
    // Followers know the leader.
    bool ok = c.eventually([&] {
        for (auto& n : c.nodes)
            if (n->leader_hint() != c.addresses[leader]) return false;
        return true;
    });
    EXPECT_TRUE(ok);
}

TEST(Raft, SingleNodeClusterCommitsImmediately) {
    RaftCluster c{1};
    int leader = c.leader_index();
    ASSERT_EQ(leader, 0);
    auto r = c.nodes[0]->submit("set:solo");
    ASSERT_TRUE(r.has_value()) << r.error().message;
    EXPECT_EQ(*r, "solo");
    EXPECT_EQ(c.machines[0]->value(), "solo");
}

TEST(Raft, ReplicatesToAllNodes) {
    RaftCluster c{3};
    int leader = c.leader_index();
    ASSERT_GE(leader, 0);
    auto r = c.nodes[leader]->submit("set:hello");
    ASSERT_TRUE(r.has_value()) << r.error().message;
    EXPECT_EQ(*r, "hello");
    // All state machines converge.
    bool ok = c.eventually([&] {
        for (auto& m : c.machines)
            if (m->value() != "hello") return false;
        return true;
    });
    EXPECT_TRUE(ok);
}

TEST(Raft, SubmitOnFollowerFailsWithLeaderHint) {
    RaftCluster c{3};
    int leader = c.leader_index();
    ASSERT_GE(leader, 0);
    int follower = (leader + 1) % 3;
    auto r = c.nodes[follower]->submit("set:x");
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, Error::Code::NotLeader);
    EXPECT_EQ(r.error().message, c.addresses[leader]);
}

TEST(Raft, SequentialCommandsApplyInOrderEverywhere) {
    RaftCluster c{3};
    int leader = c.leader_index();
    ASSERT_GE(leader, 0);
    ASSERT_TRUE(c.nodes[leader]->submit("set:").has_value());
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(c.nodes[leader]->submit("append:" + std::to_string(i % 10)).has_value());
    std::string expected = "01234567890123456789";
    bool ok = c.eventually([&] {
        for (auto& m : c.machines)
            if (m->value() != expected) return false;
        return true;
    });
    EXPECT_TRUE(ok) << c.machines[0]->value();
}

TEST(Raft, LeaderFailoverElectsNewLeaderAndKeepsData) {
    RaftCluster c{3};
    int leader = c.leader_index();
    ASSERT_GE(leader, 0);
    ASSERT_TRUE(c.nodes[leader]->submit("set:before-crash").has_value());
    c.crash(leader);
    // A new leader emerges among the remaining two.
    bool new_leader = c.eventually(
        [&] {
            for (std::size_t i = 0; i < c.nodes.size(); ++i)
                if (c.nodes[i] && c.nodes[i]->role() == raft::Role::Leader) return true;
            return false;
        },
        8000ms);
    ASSERT_TRUE(new_leader);
    int nl = c.leader_index();
    ASSERT_GE(nl, 0);
    ASSERT_NE(nl, leader);
    // Committed data survived; new writes work.
    auto r = c.nodes[nl]->submit("append:+after");
    ASSERT_TRUE(r.has_value()) << r.error().message;
    EXPECT_EQ(*r, "before-crash+after");
}

TEST(Raft, MinorityPartitionCannotCommit) {
    RaftCluster c{3};
    int leader = c.leader_index();
    ASSERT_GE(leader, 0);
    // Isolate the leader from both followers.
    for (int i = 0; i < 3; ++i)
        if (i != leader) c.fabric->cut(c.addresses[leader], c.addresses[i]);
    // The isolated leader cannot commit.
    auto r = c.nodes[leader]->submit("set:lost");
    EXPECT_FALSE(r.has_value());
    // The majority side elects a new leader and commits.
    bool ok = c.eventually(
        [&] {
            for (int i = 0; i < 3; ++i)
                if (i != leader && c.nodes[i]->role() == raft::Role::Leader) return true;
            return false;
        },
        8000ms);
    ASSERT_TRUE(ok);
    int nl = -1;
    for (int i = 0; i < 3; ++i)
        if (i != leader && c.nodes[i]->role() == raft::Role::Leader) nl = i;
    ASSERT_GE(nl, 0);
    ASSERT_TRUE(c.nodes[nl]->submit("set:won").has_value());
    // Heal: the old leader steps down and converges ("set:lost" never
    // applied anywhere).
    c.fabric->heal_all();
    bool converged = c.eventually(
        [&] {
            for (auto& m : c.machines)
                if (m->value() != "won") return false;
            return true;
        },
        8000ms);
    EXPECT_TRUE(converged);
}

TEST(Raft, LogCompactionTriggersSnapshot) {
    auto cfg = RaftCluster::fast_config();
    cfg.snapshot_threshold = 32;
    RaftCluster c{3, cfg};
    int leader = c.leader_index();
    ASSERT_GE(leader, 0);
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(c.nodes[leader]->submit("set:v" + std::to_string(i)).has_value());
    // The leader's in-memory log shrank below the number of commands.
    EXPECT_LT(c.nodes[leader]->log_size_entries(), 100u);
    EXPECT_EQ(c.machines[leader]->value(), "v99");
}

TEST(Raft, LaggingFollowerCatchesUpViaSnapshot) {
    auto cfg = RaftCluster::fast_config();
    cfg.snapshot_threshold = 16;
    RaftCluster c{3, cfg};
    int leader = c.leader_index();
    ASSERT_GE(leader, 0);
    int lagger = (leader + 1) % 3;
    // Cut the lagger off, commit enough to trigger compaction, then heal.
    for (int i = 0; i < 3; ++i)
        if (i != lagger) c.fabric->cut(c.addresses[lagger], c.addresses[i]);
    for (int i = 0; i < 64; ++i)
        ASSERT_TRUE(c.nodes[leader]->submit("set:s" + std::to_string(i)).has_value());
    c.fabric->heal_all();
    bool ok = c.eventually([&] { return c.machines[lagger]->value() == "s63"; }, 8000ms);
    EXPECT_TRUE(ok) << c.machines[lagger]->value();
}

TEST(Raft, CrashedNodeRecoversFromPersistedState) {
    RaftCluster c{3};
    int leader = c.leader_index();
    ASSERT_GE(leader, 0);
    ASSERT_TRUE(c.nodes[leader]->submit("set:durable").has_value());
    int victim = (leader + 1) % 3;
    bool replicated = c.eventually([&] { return c.machines[victim]->value() == "durable"; });
    ASSERT_TRUE(replicated);
    c.crash(victim);
    std::this_thread::sleep_for(200ms);
    c.spawn(victim); // restart: loads persisted term/log from its store
    // The restarted node rejoins and reconverges.
    bool ok = c.eventually(
        [&] {
            int l = -1;
            for (std::size_t i = 0; i < c.nodes.size(); ++i)
                if (c.nodes[i] && c.nodes[i]->role() == raft::Role::Leader)
                    l = static_cast<int>(i);
            if (l < 0) return false;
            auto r = c.nodes[l]->submit("append:!");
            return r.has_value() && c.machines[victim]->value() == "durable!";
        },
        10000ms);
    EXPECT_TRUE(ok);
}

TEST(Raft, ClientTracksLeaderAcrossFailover) {
    RaftCluster c{3};
    auto ci = margo::Instance::create(c.fabric, "sim://raft-client").value();
    raft::Client client{ci, c.addresses, 9};
    auto r1 = client.submit("set:one");
    ASSERT_TRUE(r1.has_value()) << r1.error().message;
    EXPECT_EQ(*r1, "one");
    int leader = c.leader_index();
    ASSERT_GE(leader, 0);
    EXPECT_EQ(client.known_leader(), c.addresses[leader]);
    c.crash(leader);
    auto r2 = client.submit("append:+two"); // retries until the new leader answers
    ASSERT_TRUE(r2.has_value()) << r2.error().message;
    EXPECT_EQ(*r2, "one+two");
    ci->shutdown();
}

TEST(Raft, ConcurrentSubmissionsAllApply) {
    RaftCluster c{3};
    int leader = c.leader_index();
    ASSERT_GE(leader, 0);
    ASSERT_TRUE(c.nodes[leader]->submit("set:").has_value());
    constexpr int k_threads = 4, k_ops = 10;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < k_threads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < k_ops; ++i) {
                auto r = c.nodes[leader]->submit("append:x");
                if (!r) ++failures;
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    bool ok = c.eventually([&] {
        return c.machines[leader]->value() == std::string(k_threads * k_ops, 'x');
    });
    EXPECT_TRUE(ok) << c.machines[leader]->value().size();
}

TEST(Raft, StatusRpcReportsState) {
    RaftCluster c{3};
    int leader = c.leader_index();
    ASSERT_GE(leader, 0);
    auto ci = margo::Instance::create(c.fabric, "sim://raft-client").value();
    margo::ForwardOptions opts;
    opts.provider_id = 9;
    auto r = ci->call<std::string>(c.addresses[leader], "raft/status", opts);
    ASSERT_TRUE(r.has_value());
    auto status = json::Value::parse(std::get<0>(*r));
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ((*status)["role"].as_string(), "leader");
    EXPECT_EQ((*status)["peers"].size(), 3u);
    ci->shutdown();
}

// ---------------------------------------------------------------------------
// Batched submission (submit_multi)
// ---------------------------------------------------------------------------

TEST(Raft, SubmitMultiCommitsBatchInOrder) {
    RaftCluster cluster(3);
    int leader = cluster.leader_index();
    ASSERT_GE(leader, 0);
    std::vector<std::string> commands;
    for (int i = 0; i < 10; ++i) commands.push_back("append:" + std::to_string(i));
    auto before = cluster.nodes[leader]->last_log_index();
    auto results = cluster.nodes[leader]->submit_multi(commands);
    ASSERT_TRUE(results.has_value()) << results.error().message;
    ASSERT_EQ(results->size(), 10u);
    // Results arrive in submission order: each echoes the register after its
    // own append, so the last equals the full concatenation.
    EXPECT_EQ((*results)[0], "0");
    EXPECT_EQ((*results)[9], "0123456789");
    // The batch took exactly ten log entries.
    EXPECT_EQ(cluster.nodes[leader]->last_log_index(), before + 10);
    // All replicas converge on the batch.
    auto deadline = std::chrono::steady_clock::now() + 5000ms;
    while (std::chrono::steady_clock::now() < deadline) {
        bool all = true;
        for (auto& m : cluster.machines)
            if (m->value() != "0123456789") all = false;
        if (all) break;
        std::this_thread::sleep_for(10ms);
    }
    for (auto& m : cluster.machines) EXPECT_EQ(m->value(), "0123456789");
}

TEST(Raft, SubmitMultiRejectedOnFollower) {
    RaftCluster cluster(3);
    int leader = cluster.leader_index();
    ASSERT_GE(leader, 0);
    int follower = (leader + 1) % 3;
    auto r = cluster.nodes[follower]->submit_multi({"set:x"});
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, Error::Code::NotLeader);
    // Empty batch short-circuits successfully even on a follower.
    auto empty = cluster.nodes[follower]->submit_multi({});
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->empty());
}

TEST(Raft, ClientSubmitMultiTracksLeader) {
    RaftCluster cluster(3);
    ASSERT_GE(cluster.leader_index(), 0);
    auto fabric = cluster.fabric;
    auto app = margo::Instance::create(fabric, "sim://app").value();
    raft::Client client{app, cluster.addresses, 9};
    std::vector<std::string> commands = {"set:a", "append:b", "append:c"};
    auto r = client.submit_multi(commands);
    ASSERT_TRUE(r.has_value()) << r.error().message;
    ASSERT_EQ(r->size(), 3u);
    EXPECT_EQ((*r)[2], "abc");
    EXPECT_FALSE(client.known_leader().empty());
    app->shutdown();
}

TEST(Raft, MalformedPayloadsLeaveStateUntouched) {
    RaftCluster c{1};
    ASSERT_EQ(c.leader_index(), 0);
    auto client = margo::Instance::create(c.fabric, "sim://raft-client").value();
    const auto& node = c.nodes[0];
    const auto term = node->term();
    const auto last = node->last_log_index();
    // A decoded request_vote/append_entries/install_snapshot at a higher term
    // would depose the leader; submit would append to the log.
    const std::uint64_t t = term + 5, zero = 0;
    const std::string peer = "sim://raft-client";
    test::expect_bad_payload_rejected(
        *client, c.addresses[0], 9,
        {{"raft/request_vote", mercury::pack(t, peer, zero, zero)},
         {"raft/append_entries",
          mercury::pack(t, peer, zero, zero, std::vector<std::string>{}, zero)},
         {"raft/install_snapshot", mercury::pack(t, peer, std::uint64_t{1}, t, peer)},
         {"raft/submit", mercury::pack(std::string("set:bad"))},
         {"raft/submit_multi", mercury::pack(std::vector<std::string>{"set:bad"})}});
    EXPECT_EQ(node->term(), term);
    EXPECT_EQ(node->last_log_index(), last);
    EXPECT_EQ(node->role(), raft::Role::Leader);
    EXPECT_EQ(c.machines[0]->value(), "");
    // The provider still serves a well-formed request.
    margo::ForwardOptions opts;
    opts.provider_id = 9;
    auto r = client->call<std::string>(c.addresses[0], "raft/submit", opts,
                                       std::string("set:after"));
    ASSERT_TRUE(r.has_value()) << r.error().message;
    EXPECT_EQ(std::get<0>(*r), "after");
    client->shutdown();
}
