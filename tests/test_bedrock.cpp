// Tests for Bedrock: bootstrapping (Listing 3), dependency resolution within
// and across processes, remote reconfiguration (Listing 5), Jx9 config
// queries (Listing 4), two-phase-commit consistency (§5), and the managed
// provider migration / checkpoint / restore hooks (§6, §7).
#include "bedrock/client.hpp"
#include "bedrock/process.hpp"
#include "malformed_payload.hpp"

#include <gtest/gtest.h>

#include <map>
#include <thread>

using namespace mochi;
using namespace std::chrono_literals;

namespace {

json::Value parse(const char* text) {
    auto v = json::Value::parse(text);
    EXPECT_TRUE(v.has_value()) << text;
    return std::move(v).value();
}

/// Simulated "parallel file system" for checkpoint tests.
std::map<std::string, std::int64_t>& checkpoint_fs() {
    static std::map<std::string, std::int64_t> fs;
    return fs;
}

/// A tiny test component: a provider managing an integer counter, with
/// inc/get RPCs and full dynamic-service hooks.
class CounterComponent : public bedrock::ComponentInstance {
  public:
    explicit CounterComponent(const bedrock::ComponentArgs& args)
    : m_instance(args.instance), m_name(args.name), m_provider_id(args.provider_id),
      m_value(args.config.get_integer("initial", 0)) {
        auto reg = [&](const char* op, margo::Handler h) {
            auto rpc = std::string("counter/") + op;
            auto r = m_instance->register_rpc(rpc, m_provider_id, std::move(h), args.pool);
            EXPECT_TRUE(r.has_value());
            m_rpcs.push_back(rpc);
        };
        reg("inc", [this](const margo::Request& req) {
            std::int64_t delta = 0;
            ASSERT_TRUE(req.unpack(delta));
            m_value += delta;
            req.respond_values(m_value.load());
        });
        reg("get", [this](const margo::Request& req) { req.respond_values(m_value.load()); });
    }
    ~CounterComponent() override {
        for (const auto& rpc : m_rpcs) m_instance->deregister_rpc(rpc, m_provider_id);
    }

    json::Value get_config() const override {
        auto c = json::Value::object();
        c["initial"] = m_value.load();
        return c;
    }
    Status migrate(const std::string&, std::uint16_t, const json::Value&) override {
        return {}; // state travels via get_config() -> descriptor
    }
    Status checkpoint(const std::string& path) override {
        checkpoint_fs()[path] = m_value.load();
        return {};
    }
    Status restore(const std::string& path) override {
        auto it = checkpoint_fs().find(path);
        if (it == checkpoint_fs().end())
            return Error{Error::Code::NotFound, "no checkpoint at " + path};
        m_value.store(it->second);
        return {};
    }

  private:
    margo::InstancePtr m_instance;
    std::string m_name;
    std::uint16_t m_provider_id;
    std::atomic<std::int64_t> m_value;
    std::vector<std::string> m_rpcs;
};

/// A component depending on a counter (tests dependency specs).
class MeterComponent : public bedrock::ComponentInstance {
  public:
    explicit MeterComponent(const bedrock::ComponentArgs& args) {
        EXPECT_EQ(args.dependencies.count("source"), 1u);
        m_dep = args.dependencies.at("source").front().spec;
    }
    json::Value get_config() const override {
        auto c = json::Value::object();
        c["source"] = m_dep;
        return c;
    }

  private:
    std::string m_dep;
};

void register_test_modules() {
    static bool done = [] {
        bedrock::ModuleDefinition counter;
        counter.type = "counter";
        counter.factory = [](const bedrock::ComponentArgs& args)
            -> Expected<std::unique_ptr<bedrock::ComponentInstance>> {
            return std::unique_ptr<bedrock::ComponentInstance>(new CounterComponent(args));
        };
        bedrock::ModuleRegistry::provide("libcounter.so", counter);

        bedrock::ModuleDefinition meter;
        meter.type = "meter";
        meter.dependency_specs.push_back({"source", "counter", /*required=*/true, false});
        meter.factory = [](const bedrock::ComponentArgs& args)
            -> Expected<std::unique_ptr<bedrock::ComponentInstance>> {
            return std::unique_ptr<bedrock::ComponentInstance>(new MeterComponent(args));
        };
        bedrock::ModuleRegistry::provide("libmeter.so", meter);
        return true;
    }();
    (void)done;
}

const char* k_listing3_config = R"({
  "margo": {
    "argobots": {
      "pools": [{"name": "MyPoolX", "type": "fifo_wait", "access": "mpmc"},
                 {"name": "__primary__", "type": "fifo_wait", "access": "mpmc"}],
      "xstreams": [{"name": "MyES0", "scheduler": {"type": "basic", "pools": ["MyPoolX"]}},
                    {"name": "__primary__", "scheduler": {"pools": ["__primary__"]}}]
    }
  },
  "libraries": {"counter": "libcounter.so"},
  "providers": [
    {"name": "myCounter", "type": "counter", "provider_id": 1,
     "pool": "MyPoolX", "config": {"initial": 10}}
  ]
})";

struct Deployment {
    std::shared_ptr<mercury::Fabric> fabric = mercury::Fabric::create();
    std::vector<std::shared_ptr<bedrock::Process>> procs;
    margo::InstancePtr client_margo;

    Deployment() { register_test_modules(); }
    ~Deployment() {
        if (client_margo) client_margo->shutdown();
        for (auto& p : procs) p->shutdown();
    }

    std::shared_ptr<bedrock::Process> spawn(const std::string& addr,
                                            const json::Value& config) {
        auto p = bedrock::Process::spawn(fabric, addr, config);
        EXPECT_TRUE(p.has_value()) << (p ? "" : p.error().message);
        procs.push_back(*p);
        return *p;
    }
    bedrock::Client client() {
        if (!client_margo)
            client_margo = margo::Instance::create(fabric, "sim://client").value();
        return bedrock::Client{client_margo};
    }
};

} // namespace

TEST(Bedrock, BootstrapFromListing3Config) {
    Deployment d;
    auto proc = d.spawn("sim://n1", parse(k_listing3_config));
    ASSERT_TRUE(proc);
    EXPECT_TRUE(proc->has_provider("myCounter"));
    EXPECT_TRUE(proc->has_provider("counter", 1));
    EXPECT_FALSE(proc->has_provider("counter", 2));
    // The provider's RPCs are live: call counter/get.
    auto client = d.client();
    margo::ForwardOptions opts;
    opts.provider_id = 1;
    auto v = d.client_margo->call<std::int64_t>("sim://n1", "counter/get", opts);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(std::get<0>(*v), 10);
}

TEST(Bedrock, BootstrapErrors) {
    Deployment d;
    register_test_modules();
    // Unknown library.
    auto bad1 = bedrock::Process::spawn(d.fabric, "sim://bad1",
                                        parse(R"({"libraries": {"x": "libnope.so"}})"));
    EXPECT_FALSE(bad1.has_value());
    // Library type mismatch.
    auto bad2 = bedrock::Process::spawn(
        d.fabric, "sim://bad2", parse(R"({"libraries": {"wrong": "libcounter.so"}})"));
    EXPECT_FALSE(bad2.has_value());
    // Provider of unloaded type.
    auto bad3 = bedrock::Process::spawn(
        d.fabric, "sim://bad3",
        parse(R"({"providers": [{"name": "x", "type": "counter"}]})"));
    EXPECT_FALSE(bad3.has_value());
    // Provider referencing unknown pool.
    auto bad4 = bedrock::Process::spawn(
        d.fabric, "sim://bad4",
        parse(R"({"libraries": {"counter": "libcounter.so"},
                  "providers": [{"name": "x", "type": "counter", "pool": "nope"}]})"));
    EXPECT_FALSE(bad4.has_value());
}

TEST(Bedrock, DuplicateProvidersRejected) {
    Deployment d;
    auto proc = d.spawn("sim://n1", parse(k_listing3_config));
    auto dup_name = proc->start_provider(
        parse(R"({"name": "myCounter", "type": "counter", "provider_id": 9})"));
    EXPECT_FALSE(dup_name.ok());
    EXPECT_EQ(dup_name.error().code, Error::Code::AlreadyExists);
    auto dup_id = proc->start_provider(
        parse(R"({"name": "other", "type": "counter", "provider_id": 1})"));
    EXPECT_FALSE(dup_id.ok());
}

TEST(Bedrock, LocalDependencyLifecycle) {
    Deployment d;
    auto proc = d.spawn("sim://n1", parse(k_listing3_config));
    ASSERT_TRUE(proc->load_module("meter", "libmeter.so").ok());
    // Missing required dependency.
    auto missing = proc->start_provider(parse(R"({"name": "m0", "type": "meter"})"));
    EXPECT_FALSE(missing.ok());
    // Wrong dependency target type: depends on itself (meter != counter).
    ASSERT_TRUE(proc->start_provider(
                        parse(R"({"name": "m1", "type": "meter",
                                  "dependencies": {"source": "myCounter"}})"))
                    .ok());
    // Dependency is tracked: stopping the counter is now refused.
    auto blocked = proc->stop_provider("myCounter");
    EXPECT_FALSE(blocked.ok());
    EXPECT_EQ(blocked.error().code, Error::Code::InvalidState);
    // After stopping the dependent, the counter can be stopped.
    EXPECT_TRUE(proc->stop_provider("m1").ok());
    EXPECT_TRUE(proc->stop_provider("myCounter").ok());
    EXPECT_FALSE(proc->has_provider("myCounter"));
    // Unknown dependency name.
    auto unknown = proc->start_provider(parse(
        R"({"name": "m2", "type": "meter", "dependencies": {"source": "ghost"}})"));
    EXPECT_FALSE(unknown.ok());
}

TEST(Bedrock, CrossProcessDependency) {
    Deployment d;
    auto n1 = d.spawn("sim://n1", parse(k_listing3_config));
    auto n2 = d.spawn("sim://n2", parse(R"({"libraries": {"meter": "libmeter.so"}})"));
    // n2's meter depends on the counter at n1 ("type:id@address").
    ASSERT_TRUE(n2->start_provider(
                        parse(R"({"name": "remoteMeter", "type": "meter",
                                  "dependencies": {"source": "counter:1@sim://n1"}})"))
                    .ok());
    // n1 now refuses to stop the counter: a remote dependent exists.
    auto blocked = n1->stop_provider("myCounter");
    EXPECT_FALSE(blocked.ok());
    EXPECT_NE(blocked.error().message.find("remoteMeter@sim://n2"), std::string::npos);
    // Stopping the dependent releases the registration.
    ASSERT_TRUE(n2->stop_provider("remoteMeter").ok());
    EXPECT_TRUE(n1->stop_provider("myCounter").ok());
    // Depending on a non-existent remote provider fails.
    auto missing = n2->start_provider(
        parse(R"({"name": "m", "type": "meter",
                  "dependencies": {"source": "counter:7@sim://n1"}})"));
    EXPECT_FALSE(missing.ok());
}

TEST(Bedrock, ConfigAndJx9QueryThroughServiceHandle) {
    Deployment d;
    d.spawn("sim://n1", parse(k_listing3_config));
    auto handle = d.client().makeServiceHandle("sim://n1");
    auto cfg = handle.getConfig();
    ASSERT_TRUE(cfg.has_value());
    EXPECT_TRUE((*cfg)["margo"]["argobots"]["pools"].is_array());
    EXPECT_EQ((*cfg)["libraries"]["counter"].as_string(), "libcounter.so");
    ASSERT_EQ((*cfg)["providers"].size(), 1u);
    EXPECT_EQ((*cfg)["providers"][std::size_t{0}]["name"].as_string(), "myCounter");
    // Listing 4's query, executed remotely.
    auto names = handle.queryConfig(R"(
        $result = [];
        foreach ($__config__.providers as $p) {
            array_push($result, $p.name); }
        return $result;
    )");
    ASSERT_TRUE(names.has_value()) << names.error().message;
    ASSERT_EQ(names->size(), 1u);
    EXPECT_EQ((*names)[std::size_t{0}].as_string(), "myCounter");
}

TEST(Bedrock, Listing5RemoteReconfiguration) {
    Deployment d;
    d.spawn("sim://n1", parse(k_listing3_config));
    auto p = d.client().makeServiceHandle("sim://n1");
    // p.addPool(jsonPoolConfig);
    ASSERT_TRUE(p.addPool(parse(R"({"name": "NewPool", "type": "fifo_wait"})")).ok());
    ASSERT_TRUE(p.addXstream(
                     parse(R"({"name": "NewES", "scheduler": {"pools": ["NewPool"]}})"))
                    .ok());
    // p.loadModule("B", "libcomponent_b.so");
    ASSERT_TRUE(p.loadModule("meter", "libmeter.so").ok());
    // p.startProvider("myProviderB", "B", ...);
    json::Value deps;
    deps["source"] = "myCounter";
    ASSERT_TRUE(p.startProvider("myMeter", "meter", 5, {}, deps, "NewPool").ok());
    auto has = p.hasProvider("myMeter");
    ASSERT_TRUE(has.has_value());
    EXPECT_TRUE(*has);
    // Pool removal refused while a provider uses it.
    EXPECT_FALSE(p.removePool("NewPool").ok());
    ASSERT_TRUE(p.stopProvider("myMeter").ok());
    ASSERT_TRUE(p.removeXstream("NewES").ok());
    EXPECT_TRUE(p.removePool("NewPool").ok());
    // p.removePool("MyPoolX"); -- refused: provider myCounter uses it.
    EXPECT_FALSE(p.removePool("MyPoolX").ok());
}

TEST(Bedrock, CheckpointAndRestore) {
    Deployment d;
    d.spawn("sim://n1", parse(k_listing3_config));
    auto p = d.client().makeServiceHandle("sim://n1");
    margo::ForwardOptions opts;
    opts.provider_id = 1;
    // Bump the counter to 17.
    ASSERT_TRUE(d.client_margo
                    ->call<std::int64_t>("sim://n1", "counter/inc", opts, std::int64_t{7})
                    .has_value());
    ASSERT_TRUE(p.checkpointProvider("myCounter", "/pfs/ckpt1").ok());
    // Mutate further, then restore.
    ASSERT_TRUE(d.client_margo
                    ->call<std::int64_t>("sim://n1", "counter/inc", opts, std::int64_t{100})
                    .has_value());
    ASSERT_TRUE(p.restoreProvider("myCounter", "/pfs/ckpt1").ok());
    auto v = d.client_margo->call<std::int64_t>("sim://n1", "counter/get", opts);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(std::get<0>(*v), 17);
    // Restore from a bogus path fails.
    EXPECT_FALSE(p.restoreProvider("myCounter", "/pfs/nope").ok());
}

TEST(Bedrock, ManagedProviderMigration) {
    Deployment d;
    d.spawn("sim://n1", parse(k_listing3_config));
    d.spawn("sim://n2", parse(R"({
        "margo": {"argobots": {"pools": [{"name": "MyPoolX", "type": "fifo_wait"}],
                    "xstreams": [{"name": "es0", "scheduler": {"pools": ["MyPoolX"]}}]}},
        "libraries": {"counter": "libcounter.so"}
    })"));
    auto p = d.client().makeServiceHandle("sim://n1");
    margo::ForwardOptions opts;
    opts.provider_id = 1;
    ASSERT_TRUE(d.client_margo
                    ->call<std::int64_t>("sim://n1", "counter/inc", opts, std::int64_t{32})
                    .has_value()); // value now 42
    ASSERT_TRUE(p.migrateProvider("myCounter", "sim://n2").ok());
    // Gone at the source, alive (with migrated state) at the destination.
    EXPECT_FALSE(d.procs[0]->has_provider("myCounter"));
    EXPECT_TRUE(d.procs[1]->has_provider("myCounter"));
    auto v = d.client_margo->call<std::int64_t>("sim://n2", "counter/get", opts);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(std::get<0>(*v), 42);
}

TEST(Bedrock, MigrationBlockedByDependents) {
    Deployment d;
    auto n1 = d.spawn("sim://n1", parse(k_listing3_config));
    d.spawn("sim://n2", parse(R"({
        "margo": {"argobots": {"pools": [{"name": "MyPoolX", "type": "fifo_wait"}],
                    "xstreams": [{"name": "es0", "scheduler": {"pools": ["MyPoolX"]}}]}},
        "libraries": {"counter": "libcounter.so"}
    })"));
    ASSERT_TRUE(n1->load_module("meter", "libmeter.so").ok());
    ASSERT_TRUE(n1->start_provider(
                        parse(R"({"name": "m1", "type": "meter",
                                  "dependencies": {"source": "myCounter"}})"))
                    .ok());
    auto st = n1->migrate_provider("myCounter", "sim://n2");
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, Error::Code::InvalidState);
}

TEST(Bedrock, TransactionAppliesAtomicallyAcrossProcesses) {
    Deployment d;
    d.spawn("sim://n1", parse(k_listing3_config));
    d.spawn("sim://n2", parse(R"({"libraries": {"counter": "libcounter.so"}})"));
    auto client = d.client();
    // Start one provider on each process in a single transaction.
    std::vector<std::pair<std::string, json::Value>> ops;
    ops.emplace_back("sim://n1", parse(R"({"op": "start_provider",
        "descriptor": {"name": "tx1", "type": "counter", "provider_id": 21}})"));
    ops.emplace_back("sim://n2", parse(R"({"op": "start_provider",
        "descriptor": {"name": "tx2", "type": "counter", "provider_id": 22}})"));
    ASSERT_TRUE(client.execute_transaction(ops).ok());
    EXPECT_TRUE(d.procs[0]->has_provider("tx1"));
    EXPECT_TRUE(d.procs[1]->has_provider("tx2"));
}

TEST(Bedrock, TransactionValidationFailureAppliesNothing) {
    Deployment d;
    d.spawn("sim://n1", parse(k_listing3_config));
    d.spawn("sim://n2", parse(R"({"libraries": {"counter": "libcounter.so"}})"));
    auto client = d.client();
    std::vector<std::pair<std::string, json::Value>> ops;
    ops.emplace_back("sim://n1", parse(R"({"op": "start_provider",
        "descriptor": {"name": "ok1", "type": "counter", "provider_id": 31}})"));
    // Invalid: duplicate of an existing provider name on n2? use unknown type.
    ops.emplace_back("sim://n2", parse(R"({"op": "start_provider",
        "descriptor": {"name": "bad", "type": "ghost_type", "provider_id": 32}})"));
    auto st = client.execute_transaction(ops);
    EXPECT_FALSE(st.ok());
    EXPECT_FALSE(d.procs[0]->has_provider("ok1")); // nothing applied anywhere
    EXPECT_FALSE(d.procs[1]->has_provider("bad"));
    // The config locks were released: a subsequent transaction succeeds.
    ops[1].second["descriptor"]["type"] = "counter";
    EXPECT_TRUE(client.execute_transaction(ops).ok());
}

TEST(Bedrock, ConcurrentConflictingTransactionsSerialize) {
    // §5's example: c1 creates p1 (depending on p2), c2 destroys p2 at the
    // same time; exactly one of the two outcomes must hold.
    Deployment d;
    auto n1 = d.spawn("sim://n1", parse(R"({"libraries": {"counter": "libcounter.so",
                                                             "meter": "libmeter.so"}})"));
    auto n2 = d.spawn("sim://n2", parse(R"({
        "libraries": {"counter": "libcounter.so"},
        "providers": [{"name": "p2", "type": "counter", "provider_id": 2}]
    })"));
    auto c1m = margo::Instance::create(d.fabric, "sim://c1").value();
    auto c2m = margo::Instance::create(d.fabric, "sim://c2").value();
    bedrock::Client c1{c1m}, c2{c2m};

    std::atomic<int> create_ok{0}, destroy_ok{0};
    std::thread t1([&] {
        std::vector<std::pair<std::string, json::Value>> ops;
        ops.emplace_back("sim://n2", parse(R"({"op": "load_module",
            "type": "noop", "library": "libcounter.so"})")); // touch n2 too
        ops.back().second["type"] = "counter";
        ops.emplace_back("sim://n1", parse(R"({"op": "start_provider",
            "descriptor": {"name": "p1", "type": "meter", "provider_id": 1,
                            "dependencies": {"source": "counter:2@sim://n2"}}})"));
        if (c1.execute_transaction(ops).ok()) ++create_ok;
    });
    std::thread t2([&] {
        std::vector<std::pair<std::string, json::Value>> ops;
        ops.emplace_back("sim://n2", parse(R"({"op": "stop_provider", "name": "p2"})"));
        if (c2.execute_transaction(ops).ok()) ++destroy_ok;
    });
    t1.join();
    t2.join();
    bool p1_exists = n1->has_provider("p1");
    bool p2_exists = n2->has_provider("p2");
    // Valid final states: (p1 ∧ p2) — create won and blocked destroy — or
    // (¬p1 ∧ ¬p2) — destroy won — or (¬p1 ∧ p2) — both lost (lock conflict).
    EXPECT_FALSE(p1_exists && !p2_exists) << "p1 exists but its dependency p2 was destroyed";
    c1m->shutdown();
    c2m->shutdown();
}

TEST(Bedrock, RemoteShutdown) {
    Deployment d;
    d.spawn("sim://n1", parse(k_listing3_config));
    auto p = d.client().makeServiceHandle("sim://n1");
    ASSERT_TRUE(p.shutdownProcess().ok());
    // The process detaches from the fabric shortly after responding.
    for (int i = 0; i < 200 && d.fabric->is_attached("sim://n1"); ++i)
        std::this_thread::sleep_for(10ms);
    EXPECT_FALSE(d.fabric->is_attached("sim://n1"));
}

TEST(Bedrock, DependencyParsing) {
    auto local = bedrock::parse_dependency("myProvider");
    ASSERT_TRUE(local.has_value());
    EXPECT_TRUE(local->is_local());
    EXPECT_EQ(local->local_name, "myProvider");

    auto remote = bedrock::parse_dependency("yokan:3@sim://n4");
    ASSERT_TRUE(remote.has_value());
    EXPECT_FALSE(remote->is_local());
    EXPECT_EQ(remote->type, "yokan");
    EXPECT_EQ(remote->provider_id, 3);
    EXPECT_EQ(remote->address, "sim://n4");

    EXPECT_FALSE(bedrock::parse_dependency("").has_value());
    EXPECT_FALSE(bedrock::parse_dependency("a@b@c").has_value());
    EXPECT_FALSE(bedrock::parse_dependency("yokan:xx@sim://n1").has_value());
    EXPECT_FALSE(bedrock::parse_dependency("yokan:99999@sim://n1").has_value());
}

TEST(Bedrock, Jx9ParameterizedBootstrap) {
    // §5: "Jx9 can also be used as input in place of JSON, allowing
    // parameterized configurations" — the script builds the process
    // configuration from $params.
    Deployment d;
    register_test_modules();
    auto params = parse(R"({"n_counters": 3, "initial": 7})");
    auto proc = bedrock::Process::spawn_jx9(d.fabric, "sim://jx9node", R"(
        $cfg = {"libraries" => {"counter" => "libcounter.so"}, "providers" => []};
        $i = 0;
        while ($i < $params.n_counters) {
            array_push($cfg.providers,
                       {"name" => "counter" + $i, "type" => "counter",
                         "provider_id" => 100 + $i,
                         "config" => {"initial" => $params.initial}});
            $i = $i + 1;
        }
        return $cfg;
    )", params);
    ASSERT_TRUE(proc.has_value()) << proc.error().message;
    d.procs.push_back(*proc);
    EXPECT_EQ((*proc)->provider_names().size(), 3u);
    EXPECT_TRUE((*proc)->has_provider("counter2"));
    // The parameterized initial value reached the component.
    auto client = d.client();
    margo::ForwardOptions opts;
    opts.provider_id = 101;
    auto v = d.client_margo->call<std::int64_t>("sim://jx9node", "counter/get", opts);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(std::get<0>(*v), 7);
    // A script returning a non-object is rejected.
    EXPECT_FALSE(bedrock::Process::spawn_jx9(d.fabric, "sim://bad", "return 42;").has_value());
    // A script with errors is rejected.
    EXPECT_FALSE(
        bedrock::Process::spawn_jx9(d.fabric, "sim://bad2", "return 1/0;").has_value());
}

TEST(Bedrock, MetricsScrapeIsConsistentUnderPoolChurn) {
    // bedrock/get_metrics renders the margo metrics registry while the
    // process keeps serving RPCs and while pools come and go through the
    // reconfiguration RPCs. Every scraped document must be internally
    // consistent — in particular the histogram invariant
    // count == sum(buckets) must hold in every snapshot (a torn snapshot
    // breaks consumers that cross-check the two, e.g. Prometheus-style
    // rate() over the series).
    Deployment d;
    d.spawn("sim://n1", parse(k_listing3_config));
    auto handle = d.client().makeServiceHandle("sim://n1");
    auto rt = d.client_margo->runtime();

    std::atomic<bool> stop{false};
    std::atomic<int> rpcs_done{0};
    std::atomic<int> churn_cycles{0};

    // Traffic: keeps the margo_rpc_* histograms observing concurrently with
    // every scrape below.
    auto traffic = rt->post_thread(rt->primary_pool(), [&] {
        margo::ForwardOptions opts;
        opts.provider_id = 1;
        while (!stop.load()) {
            auto r = d.client_margo->call<std::int64_t>("sim://n1", "counter/inc", opts,
                                                        std::int64_t{1});
            EXPECT_TRUE(r.has_value());
            ++rpcs_done;
        }
    });
    // Churn: adds and removes a pool per cycle, mutating the registry owner's
    // runtime structures while the scraper reads.
    auto churn = rt->post_thread(rt->primary_pool(), [&] {
        while (!stop.load()) {
            std::string name = "ChurnPool" + std::to_string(churn_cycles.load() % 4);
            auto add = handle.addPool(
                parse(("{\"name\": \"" + name + "\", \"type\": \"fifo_wait\"}").c_str()));
            EXPECT_TRUE(add.ok()) << add.error().message;
            auto rm = handle.removePool(name);
            EXPECT_TRUE(rm.ok()) << rm.error().message;
            ++churn_cycles;
        }
    });

    int scrapes = 0;
    std::int64_t last_handler_count = 0;
    while (scrapes < 60 || churn_cycles.load() < 10 || rpcs_done.load() < 50) {
        auto doc = handle.getMetrics();
        ASSERT_TRUE(doc.has_value()) << doc.error().message;
        ASSERT_TRUE((*doc)["histograms"].is_object());
        for (const auto& [name, h] : (*doc)["histograms"].as_object()) {
            ASSERT_TRUE(h["buckets"].is_array()) << name;
            ASSERT_TRUE(h["le"].is_array()) << name;
            // One bucket per bound plus the overflow bucket.
            EXPECT_EQ(h["buckets"].size(), h["le"].size() + 1) << name;
            std::int64_t total = 0;
            for (const auto& b : h["buckets"].as_array()) total += b.as_integer();
            // The invariant under test: never a torn count/buckets pair.
            EXPECT_EQ(h["count"].as_integer(), total) << name << " scrape " << scrapes;
        }
        // Monotonicity across scrapes (a second tear mode: going backwards).
        auto hd = (*doc)["histograms"]["margo_rpc_handler_duration_us"];
        if (hd.is_object()) {
            EXPECT_GE(hd["count"].as_integer(), last_handler_count);
            last_handler_count = hd["count"].as_integer();
        }
        ++scrapes;
    }
    stop.store(true);
    traffic.join();
    churn.join();
    EXPECT_GT(rpcs_done.load(), 0);
    EXPECT_GE(churn_cycles.load(), 10);
    // The traffic actually reached the handler histograms.
    EXPECT_GT(last_handler_count, 0);
}

TEST(Bedrock, MalformedPayloadsLeaveTheProcessUntouched) {
    Deployment d;
    auto proc = d.spawn("sim://n1", parse(k_listing3_config));
    ASSERT_TRUE(proc);
    auto handle = d.client().makeServiceHandle("sim://n1");
    const std::string before = proc->config().dump();
    const std::string name = "myCounter", pool = R"({"name":"p2","type":"fifo_wait"})";
    const std::string xstream = R"({"name":"x2","scheduler":{"pools":["p2"]}})";
    const std::string desc = R"({"name":"c2","type":"counter","provider_id":2})";
    test::expect_bad_payload_rejected(
        *d.client_margo, "sim://n1", bedrock::k_bedrock_provider_id,
        {{"bedrock/query", mercury::pack(std::string("return 1;"))},
         {"bedrock/load_module", mercury::pack(std::string("t"), std::string("libt.so"))},
         {"bedrock/start_provider", mercury::pack(desc)},
         {"bedrock/stop_provider", mercury::pack(name)},
         {"bedrock/has_provider", mercury::pack(name)},
         {"bedrock/has_provider_typed",
          mercury::pack(std::string("counter"), std::uint32_t{1})},
         {"bedrock/register_dependent",
          mercury::pack(std::string("counter"), std::uint32_t{1}, std::string("x:1@sim://y"))},
         {"bedrock/unregister_dependent",
          mercury::pack(std::string("counter"), std::uint32_t{1}, std::string("x:1@sim://y"))},
         {"bedrock/add_pool", mercury::pack(pool)},
         {"bedrock/remove_pool", mercury::pack(std::string("__primary__"))},
         {"bedrock/add_xstream", mercury::pack(xstream)},
         {"bedrock/remove_xstream", mercury::pack(std::string("__primary__"))},
         {"bedrock/migrate_provider",
          mercury::pack(name, std::string("sim://n2"), std::string("{}"))},
         {"bedrock/checkpoint_provider", mercury::pack(name, std::string("/ckpt"))},
         {"bedrock/restore_provider", mercury::pack(name, std::string("/ckpt"))},
         {"bedrock/prepare", mercury::pack(std::string("txn"), std::string("[]"))},
         {"bedrock/commit", mercury::pack(std::string("txn"))},
         {"bedrock/abort", mercury::pack(std::string("txn"))}});
    EXPECT_EQ(proc->config().dump(), before);
    EXPECT_TRUE(proc->has_provider("myCounter"));
    // The process still serves well-formed requests.
    auto cfg = handle.getConfig();
    ASSERT_TRUE(cfg.has_value()) << cfg.error().message;
    EXPECT_EQ((*cfg)["providers"].size(), 1u);
}
