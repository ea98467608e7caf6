// Fault-injection stress harness for the dynamic-lifecycle races: concurrent
// forward()/shutdown(), chunk migration with mid-pipeline RPC failures, and
// SWIM membership churn, each hammered across many seeds on a fabric with
// message loss, duplication, and delay jitter. Intended to run under
// ThreadSanitizer / AddressSanitizer (see the `tsan`/`asan` CMake presets);
// every join below doubles as a liveness assertion — a lost wakeup or a
// dropped ULT hangs the test instead of passing silently.
//
// Seed count comes from MOCHI_STRESS_SEEDS (default 10; CI runs 100).
// The jitter/loss knobs derive from the seed, and the base seed itself is
// overridable via STRESS_SEED — a failing run logs it, so any seed can be
// replayed exactly: STRESS_SEED=<seed> MOCHI_STRESS_SEEDS=1 ./test_lifecycle_stress
#include "composed/cluster_autoscaler.hpp"
#include "composed/elastic_kv.hpp"
#include "remi/provider.hpp"
#include "ssg/group.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace mochi;
using namespace std::chrono_literals;

namespace {

int stress_seeds() {
    if (const char* s = std::getenv("MOCHI_STRESS_SEEDS"))
        return std::max(1, std::atoi(s));
    return 10;
}

std::uint64_t stress_base_seed() {
    static std::uint64_t base = [] {
        std::uint64_t b = 1;
        if (const char* s = std::getenv("STRESS_SEED")) b = std::strtoull(s, nullptr, 10);
        std::printf("[stress] seeds %llu..%llu (override base with STRESS_SEED)\n",
                    static_cast<unsigned long long>(b),
                    static_cast<unsigned long long>(b + stress_seeds() - 1));
        std::fflush(stdout);
        return b;
    }();
    return base;
}

/// Run `scenario` once per seed, stopping at the first failing seed so the
/// logged "seed N" line points at the reproducer.
template <typename Scenario>
void run_seeded(Scenario scenario) {
    int n = stress_seeds();
    for (int i = 0; i < n; ++i) {
        std::uint64_t seed = stress_base_seed() + static_cast<std::uint64_t>(i);
        SCOPED_TRACE("seed " + std::to_string(seed) +
                     " (replay: STRESS_SEED=" + std::to_string(seed) +
                     " MOCHI_STRESS_SEEDS=1)");
        scenario(seed);
        if (testing::Test::HasFatalFailure() || testing::Test::HasNonfatalFailure()) break;
    }
}

/// Wait until predicate true or timeout; returns the final predicate value.
template <typename F>
bool eventually(F f, std::chrono::milliseconds limit) {
    auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
        if (f()) return true;
        std::this_thread::sleep_for(10ms);
    }
    return f();
}

mercury::LinkModel chaos_link(std::mt19937_64& rng, bool duplicates) {
    mercury::LinkModel m;
    m.latency_us = std::uniform_real_distribution<>(0.0, 300.0)(rng);
    m.jitter_us = std::uniform_real_distribution<>(0.0, 1000.0)(rng);
    m.loss_probability = std::uniform_real_distribution<>(0.0, 0.15)(rng);
    if (duplicates)
        m.duplicate_probability = std::uniform_real_distribution<>(0.0, 0.2)(rng);
    return m;
}

/// Mirror of the provider's wire format for "remi/write_chunk".
struct WireChunkEntry {
    std::string path;
    std::uint64_t offset = 0;
    std::string data;
    std::uint8_t last = 1;

    template <typename A>
    void serialize(A& ar) {
        ar& path& offset& data& last;
    }
};

// ---------------------------------------------------------------------------
// Scenario 1: forward() racing shutdown()
// ---------------------------------------------------------------------------

void forward_vs_shutdown(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    auto fabric = mercury::Fabric::create(chaos_link(rng, /*duplicates=*/true), seed);
    auto server = margo::Instance::create(fabric, "sim://fs-server").value();
    auto client = margo::Instance::create(fabric, "sim://fs-client").value();
    ASSERT_TRUE(server
                    ->register_rpc("echo", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(req.payload()); })
                    .has_value());
    ASSERT_TRUE(server
                    ->register_rpc("blackhole", margo::k_default_provider_id,
                                   [](const margo::Request&) {})
                    .has_value());

    constexpr int k_ults = 6, k_calls = 6;
    std::atomic<int> ok{0}, timed_out{0}, canceled{0}, invalid{0}, unreachable{0},
        unexpected{0};
    std::atomic<int> started{0};
    std::vector<abt::ThreadHandle> handles;
    for (int i = 0; i < k_ults; ++i) {
        handles.push_back(client->runtime()->post_thread(
            client->runtime()->primary_pool(), [&, i, seed] {
                std::mt19937_64 lrng(seed * 1000003 + i);
                ++started;
                for (int j = 0; j < k_calls; ++j) {
                    margo::ForwardOptions opts;
                    opts.timeout = std::chrono::milliseconds(
                        std::uniform_int_distribution<>(10, 40)(lrng));
                    const char* name = (lrng() % 2) ? "echo" : "blackhole";
                    auto r = client->forward("sim://fs-server", name, "x", opts);
                    if (r) {
                        ++ok;
                        continue;
                    }
                    switch (r.error().code) {
                    case Error::Code::Timeout: ++timed_out; break;
                    case Error::Code::Canceled: ++canceled; break;
                    case Error::Code::InvalidState: ++invalid; break;
                    case Error::Code::Unreachable: ++unreachable; break;
                    default: ++unexpected; break;
                    }
                }
            }));
    }
    // Let the ULTs actually start issuing forwards before pulling the rug:
    // a never-scheduled ULT would make the shutdown race trivial.
    while (started.load() < k_ults) std::this_thread::sleep_for(1ms);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::uniform_int_distribution<>(0, 30)(rng)));
    client->shutdown();
    // Liveness: every forward must have been resolved (completed, timed out,
    // canceled by the shutdown sweep, or failed fast) — a forward stuck on a
    // pending call nobody cancels would hang this join.
    for (auto& h : handles) h.join();
    int total = ok + timed_out + canceled + invalid + unreachable + unexpected;
    EXPECT_EQ(total, k_ults * k_calls);
    EXPECT_EQ(unexpected.load(), 0);
    // After shutdown() returned, forwards fail fast with InvalidState.
    auto late = client->forward("sim://fs-server", "echo", "x");
    ASSERT_FALSE(late.has_value());
    EXPECT_EQ(late.error().code, Error::Code::InvalidState);
    server->shutdown();
}

// ---------------------------------------------------------------------------
// Scenario 2: chunk migration with mid-pipeline failures
// ---------------------------------------------------------------------------

void migration_chaos(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::string src_addr = "sim://mc-src-" + std::to_string(seed);
    std::string dst_addr = "sim://mc-dst-" + std::to_string(seed);
    remi::SimFileStore::destroy_node(src_addr);
    remi::SimFileStore::destroy_node(dst_addr);
    // No duplicate injection here: "remi/write_chunk" appends are not
    // idempotent, so a duplicated request would corrupt the destination by
    // design, not by bug.
    auto fabric = mercury::Fabric::create(chaos_link(rng, /*duplicates=*/false), seed);
    auto src = margo::Instance::create(fabric, src_addr).value();
    auto dst = margo::Instance::create(fabric, dst_addr).value();
    auto src_store = remi::SimFileStore::for_node(src_addr);

    // Stand-in destination provider: injects chunk failures, reassembles the
    // stream in memory, and trips on any out-of-order append.
    std::mutex m;
    std::map<std::string, std::string> landed; // path -> bytes applied so far
    bool out_of_order = false;
    double fail_p = std::uniform_real_distribution<>(0.0, 0.25)(rng);
    auto handler_rng = std::make_shared<std::mt19937_64>(seed ^ 0x9e3779b97f4a7c15ULL);
    ASSERT_TRUE(dst->register_rpc("remi/write_chunk", 1,
                                  [&, handler_rng, fail_p](const margo::Request& req) {
                                      std::vector<WireChunkEntry> entries;
                                      ASSERT_TRUE(req.unpack(entries));
                                      std::lock_guard lk{m};
                                      if (std::uniform_real_distribution<>(
                                              0.0, 1.0)(*handler_rng) < fail_p) {
                                          req.respond_error(Error{Error::Code::Generic,
                                                                  "injected chunk failure"});
                                          return;
                                      }
                                      for (const auto& e : entries) {
                                          std::string& got = landed[e.path];
                                          if (e.offset != got.size()) out_of_order = true;
                                          if (e.offset == 0) got = e.data;
                                          else got += e.data;
                                      }
                                      req.respond_values(true);
                                  })
                    .has_value());

    std::map<std::string, std::string> originals;
    int files = std::uniform_int_distribution<>(3, 6)(rng);
    for (int i = 0; i < files; ++i) {
        std::string path = "/mc/f" + std::to_string(i);
        std::string data(std::uniform_int_distribution<>(200, 4000)(rng),
                         static_cast<char>('a' + i));
        originals[path] = data;
        ASSERT_TRUE(src_store->write(path, std::move(data)).ok());
    }
    auto fileset = remi::Fileset::scan(*src_store, "/mc/");
    remi::MigrationOptions opts;
    opts.method = remi::Method::Chunks;
    opts.chunk_size = 700;
    opts.pipeline_width = std::uniform_int_distribution<>(1, 3)(rng);
    opts.rpc_timeout = 300ms;

    abt::Eventual<bool> outcome;
    src->runtime()->post(src->runtime()->primary_pool(), [&] {
        auto stats = remi::migrate(src, src_store, fileset, dst_addr, 1, opts);
        outcome.set_value(stats.has_value());
    });
    // Some seeds yank the source instance mid-migration: the pipeline's
    // forwards must resolve as Canceled and the coordinator ULT must still
    // run to completion inside shutdown()'s drain.
    bool shutdown_raced = seed % 4 == 0;
    if (shutdown_raced) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::uniform_int_distribution<>(0, 15)(rng)));
        src->shutdown();
    }
    bool migrated = outcome.wait(); // liveness: migrate() must return
    {
        std::lock_guard lk{m};
        EXPECT_FALSE(out_of_order) << "a chunk landed after an earlier one failed";
        if (migrated) {
            // A reported success must mean every byte arrived intact.
            for (const auto& [path, data] : originals) EXPECT_EQ(landed[path], data);
        }
    }
    src->shutdown();
    dst->shutdown();
    remi::SimFileStore::destroy_node(src_addr);
    remi::SimFileStore::destroy_node(dst_addr);
}

// ---------------------------------------------------------------------------
// Scenario 3: SWIM churn — partition, suspicion, refutation, rejoin
// ---------------------------------------------------------------------------

void swim_churn(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    ssg::GroupConfig fast;
    fast.swim_period = 30ms;
    fast.ping_timeout = 15ms;
    fast.suspicion_periods = 2 + static_cast<int>(seed % 2);
    fast.ping_req_fanout = 1;
    // The churned member never declares the others dead, so it keeps pinging
    // across the healed partition — the contact that carries refutations.
    ssg::GroupConfig patient = fast;
    patient.suspicion_periods = 1000;

    auto fabric = mercury::Fabric::create({}, seed);
    std::vector<std::string> addrs;
    std::vector<margo::InstancePtr> instances;
    std::vector<std::shared_ptr<ssg::Group>> groups;
    for (int i = 0; i < 3; ++i) addrs.push_back("sim://sw" + std::to_string(i));
    for (int i = 0; i < 3; ++i)
        instances.push_back(margo::Instance::create(fabric, addrs[i]).value());
    for (int i = 0; i < 3; ++i)
        groups.push_back(
            ssg::Group::create(instances[i], "churn", addrs, i == 2 ? patient : fast)
                .value());

    fabric->cut(addrs[0], addrs[2]);
    fabric->cut(addrs[1], addrs[2]);
    bool full_death = seed % 3 == 0;
    if (full_death) {
        // Hold the partition until node2 is declared dead everywhere, then
        // heal and require a full rejoin.
        bool dead = eventually(
            [&] {
                for (int i = 0; i < 2; ++i) {
                    auto v = groups[i]->view();
                    if (std::find(v.members.begin(), v.members.end(), addrs[2]) !=
                        v.members.end())
                        return false;
                }
                return true;
            },
            8000ms);
        EXPECT_TRUE(dead);
    } else {
        // Brief glitch: long enough to raise suspicion, maybe death.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::uniform_int_distribution<>(40, 150)(rng)));
    }
    fabric->heal_all();
    bool converged = eventually(
        [&] {
            if (groups[0]->view().members.size() != 3) return false;
            auto d0 = groups[0]->view_digest();
            return d0 == groups[1]->view_digest() && d0 == groups[2]->view_digest();
        },
        8000ms);
    EXPECT_TRUE(converged);
    if (!converged) {
        std::vector<std::uint64_t> p0;
        for (int i = 0; i < 3; ++i) p0.push_back(groups[i]->periods());
        std::this_thread::sleep_for(1s);
        for (int i = 0; i < 3; ++i) {
            auto v = groups[i]->view();
            std::string list;
            for (const auto& m : v.members) list += m + " ";
            ADD_FAILURE() << "group " << i << " members: " << list << "(digest " << v.digest()
                          << ", version " << v.version << ", periods " << p0[i] << " -> "
                          << groups[i]->periods() << ")";
        }
    }

    for (auto& g : groups) g->leave();
    for (auto& m : instances) m->shutdown();
}

// ---------------------------------------------------------------------------
// Scenario 4: async forwards racing shutdown()
// ---------------------------------------------------------------------------
//
// forward_async() decouples issuing a call from waiting on it, which opens
// drain windows the synchronous path never has: a handle can be abandoned
// without waiting, waited on *after* shutdown() started, or in flight with
// no waiter at all when the cancel sweep runs. Every one of those must
// resolve — the joins below hang on any lost wakeup.

void async_vs_shutdown(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    auto fabric = mercury::Fabric::create(chaos_link(rng, /*duplicates=*/true), seed);
    auto server = margo::Instance::create(fabric, "sim://as-server").value();
    auto client = margo::Instance::create(fabric, "sim://as-client").value();
    ASSERT_TRUE(server
                    ->register_rpc("echo", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(req.payload()); })
                    .has_value());
    ASSERT_TRUE(server
                    ->register_rpc("blackhole", margo::k_default_provider_id,
                                   [](const margo::Request&) {})
                    .has_value());

    constexpr int k_ults = 4, k_inflight = 8;
    std::atomic<int> waited{0}, abandoned{0}, unexpected{0}, started{0};
    std::vector<abt::ThreadHandle> handles;
    for (int i = 0; i < k_ults; ++i) {
        handles.push_back(client->runtime()->post_thread(
            client->runtime()->primary_pool(), [&, i, seed] {
                std::mt19937_64 lrng(seed * 2000003 + i);
                ++started;
                // Launch a window of overlapping async forwards...
                std::vector<margo::AsyncRequest> reqs;
                for (int j = 0; j < k_inflight; ++j) {
                    margo::ForwardOptions opts;
                    opts.timeout = std::chrono::milliseconds(
                        std::uniform_int_distribution<>(10, 40)(lrng));
                    const char* name = (lrng() % 2) ? "echo" : "blackhole";
                    reqs.push_back(client->forward_async("sim://as-server", name, "x", opts));
                }
                // ...then abandon some without waiting (their registry slots
                // must be reclaimed and their spans closed regardless), and
                // wait on the rest, possibly concurrently with shutdown().
                for (auto& r : reqs) {
                    if (lrng() % 4 == 0) {
                        r = margo::AsyncRequest{}; // drop the last handle
                        ++abandoned;
                        continue;
                    }
                    auto out = r.wait();
                    ++waited;
                    if (out) continue;
                    switch (out.error().code) {
                    case Error::Code::Timeout:
                    case Error::Code::Canceled:
                    case Error::Code::InvalidState:
                    case Error::Code::Unreachable: break;
                    default: ++unexpected; break;
                    }
                    // A second wait on the same handle must return the same
                    // cached outcome, not hang on a consumed eventual.
                    auto again = r.wait();
                    EXPECT_FALSE(again.has_value());
                }
            }));
    }
    while (started.load() < k_ults) std::this_thread::sleep_for(1ms);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::uniform_int_distribution<>(0, 30)(rng)));
    client->shutdown();
    // Liveness: every waited-on forward resolved, every abandoned one was
    // swept; shutdown() itself must have drained without deadlocking first.
    for (auto& h : handles) h.join();
    EXPECT_EQ(waited.load() + abandoned.load(), k_ults * k_inflight);
    EXPECT_EQ(unexpected.load(), 0);
    // Post-shutdown issuance fails fast through the handle, not a throw.
    auto late = client->forward_async("sim://as-server", "echo", "x");
    auto out = late.wait();
    ASSERT_FALSE(out.has_value());
    EXPECT_EQ(out.error().code, Error::Code::InvalidState);
    server->shutdown();
}

// ---------------------------------------------------------------------------
// Scenario 5: links flipping fast <-> slow under RPC load
// ---------------------------------------------------------------------------
//
// The fabric's cached fast path only engages on clean links; flipping a
// link's fault knobs mid-run retargets in-flight senders between cached
// inline delivery and the mutex-guarded, timer-driven slow path (and
// invalidates their per-thread eligibility caches via the topology epoch).
// Both paths feed the same request inbox. Every forward must still resolve
// exactly once, and once the link settles clean again the path must work —
// a stale cache entry or a lost wakeup at the boundary hangs or fails this
// scenario.

void fast_slow_flip(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    const std::string server_addr = "sim://ff-server";
    const std::string client_addr = "sim://ff-client";
    auto fabric = mercury::Fabric::create({}, seed); // clean default: fast path eligible
    auto server = margo::Instance::create(fabric, server_addr).value();
    auto client = margo::Instance::create(fabric, client_addr).value();
    ASSERT_TRUE(server
                    ->register_rpc("echo", margo::k_default_provider_id,
                                   [](const margo::Request& req) { req.respond(req.payload()); })
                    .has_value());

    constexpr int k_ults = 4, k_calls = 40;
    std::atomic<int> ok{0}, timed_out{0}, canceled{0}, invalid{0}, unreachable{0},
        unexpected{0};
    std::atomic<int> started{0};
    std::atomic<bool> done{false};
    std::vector<abt::ThreadHandle> handles;
    for (int i = 0; i < k_ults; ++i) {
        handles.push_back(client->runtime()->post_thread(
            client->runtime()->primary_pool(), [&, i, seed] {
                std::mt19937_64 lrng(seed * 3000003 + i);
                ++started;
                for (int j = 0; j < k_calls; ++j) {
                    margo::ForwardOptions opts;
                    opts.timeout = std::chrono::milliseconds(
                        std::uniform_int_distribution<>(10, 40)(lrng));
                    auto r = client->forward(server_addr, "echo", "x", opts);
                    if (r) {
                        ++ok;
                        continue;
                    }
                    switch (r.error().code) {
                    case Error::Code::Timeout: ++timed_out; break;
                    case Error::Code::Canceled: ++canceled; break;
                    case Error::Code::InvalidState: ++invalid; break;
                    case Error::Code::Unreachable: ++unreachable; break;
                    default: ++unexpected; break;
                    }
                }
            }));
    }
    while (started.load() < k_ults) std::this_thread::sleep_for(1ms);

    // Flip both directions (requests and responses) between a clean link and
    // a lossy/jittery one while the ULTs hammer the server; occasionally
    // toggle the global fast-path switch too, covering the
    // enabled<->ineligible<->disabled transitions.
    std::thread flipper{[&] {
        std::mt19937_64 frng(seed ^ 0xF11FF11Full);
        bool fast = true;
        while (!done.load()) {
            if (fast) {
                auto model = chaos_link(frng, /*duplicates=*/true);
                fabric->set_link(client_addr, server_addr, model);
                fabric->set_link(server_addr, client_addr, model);
            } else {
                fabric->set_link(client_addr, server_addr, {});
                fabric->set_link(server_addr, client_addr, {});
            }
            fast = !fast;
            if (frng() % 8 == 0)
                fabric->set_fast_path_enabled(frng() % 2 == 0);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(std::uniform_int_distribution<>(1, 5)(frng)));
        }
    }};
    // Liveness: every forward resolves despite the churn.
    for (auto& h : handles) h.join();
    done.store(true);
    flipper.join();

    int total = ok + timed_out + canceled + invalid + unreachable + unexpected;
    EXPECT_EQ(total, k_ults * k_calls);
    EXPECT_EQ(unexpected.load(), 0);
    EXPECT_EQ(canceled.load(), 0);     // nobody shut down mid-run
    EXPECT_EQ(invalid.load(), 0);
    EXPECT_EQ(unreachable.load(), 0);  // flips never detach the endpoint

    // Settle clean and re-enable the fast path: the next forward must ride
    // it successfully (stale eligibility caches must have been invalidated).
    fabric->set_link(client_addr, server_addr, {});
    fabric->set_link(server_addr, client_addr, {});
    fabric->set_fast_path_enabled(true);
    margo::ForwardOptions settle;
    settle.timeout = 2000ms;
    auto r = client->forward(server_addr, "echo", "settled", settle);
    EXPECT_TRUE(r.has_value());

    client->shutdown();
    server->shutdown();
}

// ---------------------------------------------------------------------------
// Scenario 6: elastic layout churn — batched clients vs splits/merges/joins
// ---------------------------------------------------------------------------
//
// A detached client hammers put_multi/get_multi while the controller splits
// shards, merges them back, and scales nodes in and out. The client's only
// routing state is its cached layout; every staleness episode must be
// repaired transparently (piggybacked epoch hints, or refresh-with-backoff
// while a migration is in flight) — a single client-visible error fails the
// scenario, and after the churn quiesces every written key must read back.

void elastic_churn(std::uint64_t seed) {
    using composed::ElasticKvClient;
    using composed::ElasticKvConfig;
    using composed::ElasticKvService;
    std::mt19937_64 rng(seed);
    composed::Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 4;
    cfg.enable_swim = false; // membership churn is scenario 3's job
    auto svc = ElasticKvService::create(cluster, {"sim://ch0", "sim://ch1"}, cfg);
    ASSERT_TRUE(svc.has_value()) << svc.error().message;
    auto& kv = **svc;
    auto app = margo::Instance::create(cluster.fabric(), "sim://ch-app").value();

    std::atomic<bool> done{false};
    std::atomic<int> batches{0}, client_errors{0};
    std::mutex written_mutex;
    std::map<std::string, std::string> written; // ground truth
    std::thread client_thread{[&, seed] {
        ElasticKvClient client{app, kv.controller_address()};
        std::mt19937_64 lrng(seed * 5000011 + 1);
        int round = 0;
        while (!done.load()) {
            std::vector<std::pair<std::string, std::string>> pairs;
            std::vector<std::string> keys;
            for (int i = 0; i < 24; ++i) {
                auto k = "ck" + std::to_string(lrng() % 400);
                pairs.emplace_back(k, "r" + std::to_string(round));
                keys.push_back(k);
            }
            if (auto st = client.put_multi(pairs); !st.ok()) {
                ++client_errors;
                ADD_FAILURE() << "put_multi: " << st.error().message;
            } else {
                std::lock_guard lk{written_mutex};
                for (auto& [k, v] : pairs) written[k] = v;
            }
            // Reads may transiently miss a key mid-split (copy lands before
            // the delta pass) — that is a nullopt, not an error. Errors mean
            // the routing plane failed to repair itself.
            if (auto got = client.get_multi(keys); !got.has_value()) {
                ++client_errors;
                ADD_FAILURE() << "get_multi: " << got.error().message;
            }
            ++batches;
            ++round;
        }
    }};

    // Churn plan: interleave splits, merges and node join/leave, keyed off
    // the seed. Children are tracked so merges target real split products.
    std::vector<std::uint32_t> children;
    bool third_node = false;
    int steps = 5 + static_cast<int>(seed % 3);
    for (int step = 0; step < steps; ++step) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::uniform_int_distribution<>(5, 30)(rng)));
        switch ((seed + static_cast<std::uint64_t>(step)) % 4) {
        case 0: { // split a random shard (child stays on the parent's node)
            auto shards = kv.layout().shards();
            auto& victim = shards[rng() % shards.size()];
            auto plan = kv.split_shard(victim.id);
            ASSERT_TRUE(plan.has_value()) << plan.error().message;
            children.push_back(plan->child);
            break;
        }
        case 1: { // merge the most recent split child back
            if (children.empty()) break;
            auto id = children.back();
            children.pop_back();
            auto plan = kv.merge_shards(id);
            ASSERT_TRUE(plan.has_value()) << plan.error().message;
            break;
        }
        case 2: { // node joins (shards rebalance onto it)
            if (third_node) break;
            ASSERT_TRUE(kv.scale_up("sim://ch2").ok());
            third_node = true;
            break;
        }
        default: { // node leaves (its shards drain away)
            if (!third_node) break;
            ASSERT_TRUE(kv.scale_down("sim://ch2").ok());
            third_node = false;
            break;
        }
        }
    }
    done.store(true);
    client_thread.join(); // liveness: batches can't wedge mid-churn
    EXPECT_EQ(client_errors.load(), 0);
    EXPECT_GT(batches.load(), 0);
    // Quiesced: the service must hold exactly what the client believes it
    // wrote, readable through a fresh client with a cold layout cache.
    ElasticKvClient verifier{app, kv.controller_address()};
    for (const auto& [k, v] : written) {
        auto got = verifier.get(k);
        ASSERT_TRUE(got.has_value()) << k << ": " << got.error().message;
        EXPECT_EQ(*got, v) << k;
    }
    app->shutdown();
}

// ---------------------------------------------------------------------------
// Scenario 7: the autoscaler's control loop churning the topology under load
// ---------------------------------------------------------------------------
//
// Like elastic_churn, but the reconfigurations come from the *live*
// ClusterAutoscaler: aggressive thresholds and a skewed workload make the
// loop split, merge and add/remove nodes while a client hammers batched
// ops. The invariant is the controller's contract — zero client-visible
// errors, zero acked-op loss — regardless of what the loop decides.

void autoscale_churn(std::uint64_t seed) {
    using composed::ClusterAutoscaler;
    using composed::ClusterAutoscalerConfig;
    using composed::ElasticKvClient;
    using composed::ElasticKvConfig;
    using composed::ElasticKvService;
    composed::Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 4;
    cfg.enable_swim = false;
    auto svc = ElasticKvService::create(cluster, {"sim://as0", "sim://as1"}, cfg);
    ASSERT_TRUE(svc.has_value()) << svc.error().message;
    auto& kv = **svc;
    auto app = margo::Instance::create(cluster.fabric(), "sim://as-app").value();

    std::atomic<bool> done{false};
    std::atomic<int> batches{0}, client_errors{0};
    std::mutex written_mutex;
    std::map<std::string, std::string> written; // ground truth
    std::thread client_thread{[&, seed] {
        ElasticKvClient client{app, kv.controller_address()};
        std::mt19937_64 lrng(seed * 7000003 + 11);
        int round = 0;
        while (!done.load()) {
            std::vector<std::pair<std::string, std::string>> pairs;
            std::vector<std::string> keys;
            for (int i = 0; i < 24; ++i) {
                // Skewed: most traffic concentrates on a narrow key range so
                // shards genuinely run hot and the loop has something to do.
                auto k = "sk" + std::to_string(lrng() % (i < 18 ? 20 : 400));
                pairs.emplace_back(k, "r" + std::to_string(round));
                keys.push_back(k);
            }
            if (auto st = client.put_multi(pairs); !st.ok()) {
                ++client_errors;
                ADD_FAILURE() << "put_multi: " << st.error().message;
            } else {
                std::lock_guard lk{written_mutex};
                for (auto& [k, v] : pairs) written[k] = v;
            }
            if (auto got = client.get_multi(keys); !got.has_value()) {
                ++client_errors;
                ADD_FAILURE() << "get_multi: " << got.error().message;
            }
            ++batches;
            ++round;
        }
    }};

    // Twitchy controller: minimal damping, tight bounds, fast periods — the
    // point is to maximize reconfiguration frequency, not to be sensible.
    ClusterAutoscalerConfig acfg;
    acfg.period = std::chrono::milliseconds(15);
    acfg.policy.hysteresis = 1;
    acfg.policy.cooldown = 1;
    acfg.policy.hot_shard_factor = 1.5;
    acfg.policy.min_hot_ops = 8.0;
    acfg.policy.cold_shard_factor = 0.3;
    acfg.policy.min_total_ops = 4.0;
    acfg.policy.min_shards = 2;
    acfg.policy.max_shards = 10;
    acfg.policy.max_nodes = 3;
    acfg.policy.node_add_depth = 4.0;
    acfg.policy.cold_node_factor = 0.2;
    ClusterAutoscaler scaler{cluster, kv, acfg};
    scaler.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(250 + (seed % 5) * 40));
    scaler.stop();
    done.store(true);
    client_thread.join(); // liveness: batches can't wedge mid-reconfiguration

    EXPECT_EQ(client_errors.load(), 0);
    EXPECT_GT(batches.load(), 0);
    // Quiesced: everything the client was acked must read back through a
    // fresh client with a cold layout cache (zero acked-op loss).
    ElasticKvClient verifier{app, kv.controller_address()};
    for (const auto& [k, v] : written) {
        auto got = verifier.get(k);
        ASSERT_TRUE(got.has_value()) << k << ": " << got.error().message;
        EXPECT_EQ(*got, v) << k;
    }
    app->shutdown();
}

// ---------------------------------------------------------------------------
// Scenario 8: tenant quota enforcement racing shard migration
// ---------------------------------------------------------------------------
//
// A QoS-configured deployment (docs/QOS.md): a weight-4 "light" tenant runs
// batched ops unthrottled while a weight-1 "heavy" tenant with a small ops/s
// quota hammers single puts and absorbs Backpressure rejections with
// retry-and-backoff — all while the controller splits and merges shards
// under both of them. Invariants: the light tenant (no quota) never sees an
// error, the heavy tenant sees *only* the retryable Backpressure code, the
// quota actually engages (at least one rejection), and after the churn
// quiesces every acked write of either tenant reads back exactly (a shed op
// must never have half-touched a backend, and a migrating shard must never
// drop an admitted one).

void tenant_overload(std::uint64_t seed) {
    using composed::ElasticKvClient;
    using composed::ElasticKvConfig;
    using composed::ElasticKvService;
    std::mt19937_64 rng(seed);
    composed::Cluster cluster;
    ElasticKvConfig cfg;
    cfg.num_shards = 4;
    cfg.enable_swim = false;
    auto pool = json::Value::object();
    pool["name"] = "__primary__";
    pool["type"] = "prio_wait";
    pool["access"] = "mpmc";
    cfg.margo["argobots"]["pools"].push_back(std::move(pool));
    auto& tenants = cfg.margo["qos"]["tenants"];
    tenants["1"]["weight"] = 4.0;
    tenants["2"]["weight"] = 1.0;
    tenants["2"]["ops_per_sec"] = 200.0;
    tenants["2"]["burst_ops"] = 20.0;
    auto svc = ElasticKvService::create(cluster, {"sim://to0", "sim://to1"}, cfg);
    ASSERT_TRUE(svc.has_value()) << svc.error().message;
    auto& kv = **svc;
    auto app = margo::Instance::create(cluster.fabric(), "sim://to-app").value();

    std::atomic<bool> done{false};
    std::atomic<int> batches{0}, client_errors{0}, heavy_backpressure{0};
    std::mutex written_mutex;
    std::map<std::string, std::string> written; // ground truth, both tenants

    // Engage the heavy tenant's quota by count, not by client speed: before
    // any churn, put four bursts' worth of keys into one shard with every
    // request in flight at once. A serial client slower than the refill
    // rate (as under a sanitizer) would never drain the bucket.
    {
        margo::TenantScope scope{2};
        const auto layout = kv.layout();
        const auto& shard = layout.shards().front();
        yokan::Database db{app, shard.node, ElasticKvService::shard_provider_id(shard.id)};
        std::vector<std::pair<std::string, margo::AsyncRequest>> burst;
        for (int i = 0; burst.size() < 4 * 20; ++i) { // 4 x burst_ops
            auto k = "hb" + std::to_string(i);
            if (layout.shard_for_key(k).id != shard.id) continue;
            burst.emplace_back(k, db.put_multi_async({{k, "burst"}}));
        }
        for (auto& [k, req] : burst) {
            auto r = req.wait_unpack<std::uint64_t, bool>();
            if (r) {
                written[k] = "burst";
            } else if (r.error().code == Error::Code::Backpressure) {
                ++heavy_backpressure;
            } else {
                ++client_errors;
                ADD_FAILURE() << "heavy burst put: " << r.error().message;
            }
        }
    }

    std::thread light_thread{[&, seed] {
        margo::TenantScope scope{1};
        ElasticKvClient client{app, kv.controller_address()};
        std::mt19937_64 lrng(seed * 5000011 + 7);
        int round = 0;
        while (!done.load()) {
            std::vector<std::pair<std::string, std::string>> pairs;
            std::vector<std::string> keys;
            for (int i = 0; i < 24; ++i) {
                auto k = "lt" + std::to_string(lrng() % 400);
                pairs.emplace_back(k, "r" + std::to_string(round));
                keys.push_back(k);
            }
            // No quota on tenant 1: any error at all breaks the QoS
            // contract (identity alone must never cause rejections).
            if (auto st = client.put_multi(pairs); !st.ok()) {
                ++client_errors;
                ADD_FAILURE() << "light put_multi: " << st.error().message;
            } else {
                std::lock_guard lk{written_mutex};
                for (auto& [k, v] : pairs) written[k] = v;
            }
            if (auto got = client.get_multi(keys); !got.has_value()) {
                ++client_errors;
                ADD_FAILURE() << "light get_multi: " << got.error().message;
            }
            ++batches;
            ++round;
        }
    }};

    std::thread heavy_thread{[&, seed] {
        margo::TenantScope scope{2};
        ElasticKvClient client{app, kv.controller_address()};
        std::mt19937_64 lrng(seed * 9000017 + 3);
        int round = 0;
        while (!done.load()) {
            auto k = "hv" + std::to_string(lrng() % 200);
            auto v = "r" + std::to_string(round);
            bool acked = false;
            for (int attempt = 0; attempt < 64 && !done.load(); ++attempt) {
                auto st = client.put(k, v);
                if (st.ok()) {
                    acked = true;
                    break;
                }
                if (st.error().code == Error::Code::Backpressure) {
                    // The documented contract: back off and resend.
                    ++heavy_backpressure;
                    std::this_thread::sleep_for(1ms);
                    continue;
                }
                ++client_errors;
                ADD_FAILURE() << "heavy put: " << st.error().message << " ("
                              << st.error().code_name() << ")";
                break;
            }
            if (acked) {
                std::lock_guard lk{written_mutex};
                written[k] = v;
            }
            ++round;
        }
    }};

    // Shard churn under both tenants: splits and merges move exactly the key
    // ranges the loads are hitting.
    std::vector<std::uint32_t> children;
    int steps = 5 + static_cast<int>(seed % 3);
    for (int step = 0; step < steps; ++step) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::uniform_int_distribution<>(10, 40)(rng)));
        if ((seed + static_cast<std::uint64_t>(step)) % 2 == 0 || children.empty()) {
            auto shards = kv.layout().shards();
            auto& victim = shards[rng() % shards.size()];
            auto plan = kv.split_shard(victim.id);
            ASSERT_TRUE(plan.has_value()) << plan.error().message;
            children.push_back(plan->child);
        } else {
            auto id = children.back();
            children.pop_back();
            auto plan = kv.merge_shards(id);
            ASSERT_TRUE(plan.has_value()) << plan.error().message;
        }
    }
    done.store(true);
    light_thread.join(); // liveness: neither tenant can wedge mid-churn
    heavy_thread.join();

    EXPECT_EQ(client_errors.load(), 0);
    EXPECT_GT(batches.load(), 0);
    // The quota must have engaged: a run where the heavy tenant was never
    // shed proves nothing about backpressure under migration.
    EXPECT_GT(heavy_backpressure.load(), 0);
    // Zero acked-op loss: every write either tenant was acked for must read
    // back exactly, through an untenanted verifier with a cold layout cache.
    ElasticKvClient verifier{app, kv.controller_address()};
    for (const auto& [k, v] : written) {
        auto got = verifier.get(k);
        ASSERT_TRUE(got.has_value()) << k << ": " << got.error().message;
        EXPECT_EQ(*got, v) << k;
    }
    app->shutdown();
}

} // namespace

TEST(LifecycleStress, ForwardVsShutdown) { run_seeded(forward_vs_shutdown); }

TEST(LifecycleStress, MigrationChaos) { run_seeded(migration_chaos); }

TEST(LifecycleStress, SwimChurn) { run_seeded(swim_churn); }

TEST(LifecycleStress, AsyncVsShutdown) { run_seeded(async_vs_shutdown); }

TEST(LifecycleStress, FastSlowFlip) { run_seeded(fast_slow_flip); }

TEST(LifecycleStress, ElasticChurn) { run_seeded(elastic_churn); }

TEST(LifecycleStress, AutoscaleChurn) { run_seeded(autoscale_churn); }

TEST(LifecycleStress, TenantOverload) { run_seeded(tenant_overload); }
