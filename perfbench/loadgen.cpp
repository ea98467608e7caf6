// perfbench_loadgen: runs one workload of the service benchmark and prints
// one JSON report line (run.py turns it into the benchmark result).
//
//   perfbench_loadgen --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (perfbench/README.md says why each exists):
//   kv_point        ElasticKvService, 2 nodes, 16 shards, SWIM on; 100k keys
//                   of 64 B; 4 threads, 90 % get / 10 % put, uniform keys.
//   blob_bulk       one warabi provider, 64 regions of 1 MiB; 2 threads,
//                   50 % write_bulk / 50 % read_bulk, 64 KiB or 1 MiB.
//   elastic_churn   kv_point's deployment with 20k keys of 256 B; 3 threads
//                   50/50 get/put while a 4th repeats split -> merge ->
//                   scale_up -> scale_down.
//   replicated_put  3-replica raft group of KvReplica; 4 threads, 90 % put
//                   of 128 B / 10 % get.
//
// Every client is closed-loop: a thread makes its next call when the last
// one returns. --trace 0 measures the workload with no probes, on three
// deployments in turn (see run()). --trace 1 deploys once and runs the
// same load twice: an untraced window bracketed by metric scrapes,
// then a traced window where client thread 0 interleaves layer probes (the
// spans below) with its operations; the ratio of the two windows' ops/s is
// the probes' cost.
#include "harness.hpp"

#include "bedrock/client.hpp"
#include "composed/elastic_kv.hpp"
#include "composed/replicated_kv.hpp"
#include "remi/sim_file_store.hpp"
#include "warabi/provider.hpp"

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <random>
#include <stdexcept>
#include <thread>

using namespace mochi;
using namespace perfbench;

namespace {

/// An operation slower than this counts as failed even if it returned ok.
constexpr std::int64_t k_op_deadline_ns = 3'000'000'000;
/// Past the window's end, threads still inside a call after this are hung.
constexpr auto k_join_deadline = std::chrono::seconds(10);
constexpr auto k_setup_deadline = std::chrono::seconds(60);
constexpr auto k_teardown_deadline = std::chrono::seconds(20);
constexpr auto k_audit_deadline = std::chrono::seconds(20);
constexpr int k_setup_repeats = 9;
constexpr int k_windows = 3; ///< measured deployments per end-to-end run
constexpr double k_warmup_s = 1.0;
constexpr int k_subwindows_per_s = 1;
constexpr std::int64_t k_probe_interval_ns = 10'000'000;
constexpr std::size_t k_hot_probe_every = 16; ///< client ops per in-loop probe set
constexpr int k_scrape_probe_every = 10; ///< probe rounds per bedrock scrape probe
constexpr const char* k_noop_rpc = "perfbench/noop";

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

struct OpResult {
    std::uint8_t kind = 0;
    std::uint32_t bytes = 0;
    std::uint8_t outcome = k_ok;
};

/// Final read-back of every key (or block). `lost`: the service answered
/// without the last acknowledged write. `wrong`: it answered with a value
/// of another key. `unread`: it did not answer (error, or the audit ran
/// out of time), so those keys count as failed, not as lost.
struct Audit {
    std::size_t keys = 0, unread = 0, lost = 0, wrong = 0;
};

/// One step of elastic_churn's reconfiguration loop.
struct Step {
    int kind = 0; ///< index into k_step_names
    std::int64_t start_ns = 0, end_ns = 0;
    bool ok = true;
    std::string error;
};
constexpr const char* k_step_names[] = {"split", "merge", "scale_up", "scale_down"};

struct ControlLog {
    std::vector<Step> steps;
    std::vector<std::pair<std::int64_t, std::int64_t>> cycles; ///< completed ok
};

// -- key/value encoding ----------------------------------------------------------
//
// A value names the key it was written to and a version, so a read can tell
// "some value of this key" from anything else, and the audit can tell the
// last acknowledged write from an older one. Each key has one writer
// thread, whose versions only grow.

std::uint64_t make_version(std::size_t thread, std::uint64_t counter) {
    return (static_cast<std::uint64_t>(thread + 1) << 48) | counter;
}

std::string make_value(const std::string& key, std::uint64_t version, std::size_t size) {
    char head[96];
    const int n = std::snprintf(head, sizeof head, "%s#%016llx#", key.c_str(),
                                static_cast<unsigned long long>(version));
    std::string v(head, static_cast<std::size_t>(n));
    v.resize(size, 'v');
    return v;
}

bool parse_value(const std::string& key, const std::string& value, std::size_t size,
                 std::uint64_t& version) {
    const std::size_t at = key.size();
    if (value.size() != size || value.size() < at + 18) return false;
    if (value.compare(0, at, key) != 0 || value[at] != '#' || value[at + 17] != '#')
        return false;
    char* end = nullptr;
    const std::string hex = value.substr(at + 1, 16);
    version = std::strtoull(hex.c_str(), &end, 16);
    return end == hex.c_str() + 16;
}

/// Last acknowledged and last attempted version of every key (or block).
/// Entry i is written only by its owner thread, read after it is joined.
struct VersionTrack {
    std::vector<std::uint64_t> acked, attempted;
    void resize(std::size_t n) {
        acked.assign(n, 0);
        attempted.assign(n, 0);
    }
    /// A read-back value is fine if it is the last acknowledged write or a
    /// later one whose acknowledgement was lost (a failed call may apply).
    [[nodiscard]] bool holds(std::size_t i, std::uint64_t v) const {
        return v >= acked[i] && v <= attempted[i];
    }
};

/// The preloaded keys of a key-value workload and the versions written to
/// them. Keys are dealt out round-robin to the client threads, one writer
/// each, and carry the seed, so each seed places them differently.
class KeySet {
  public:
    struct Shape {
        char tag;  ///< distinguishes one workload's keys from another's
        std::size_t keys, value_bytes, threads;
        double get_frac;
    };
    explicit KeySet(Shape shape) : m_s(shape) {}

    void reset(std::uint64_t seed) {
        m_seed = seed;
        m_track.resize(m_s.keys);
        m_counters.assign(m_s.threads, 0);
    }
    [[nodiscard]] const Shape& shape() const { return m_s; }

    [[nodiscard]] std::string key(std::size_t i) const {
        char buf[48];
        std::snprintf(buf, sizeof buf, "s%04llx-%c%07zu",
                      static_cast<unsigned long long>(m_seed & 0xffff), m_s.tag, i);
        return buf;
    }
    [[nodiscard]] std::string value(std::size_t i, std::uint64_t version) const {
        return make_value(key(i), version, m_s.value_bytes);
    }
    /// A uniformly chosen key that thread `t` writes.
    std::size_t owned_key(std::size_t t, std::mt19937_64& rng) const {
        return (rng() % (m_s.keys / m_s.threads)) * m_s.threads + t;
    }
    /// The version thread `t` writes next to key `i`, recorded as attempted.
    std::uint64_t next_version(std::size_t t, std::size_t i) {
        const auto v = make_version(t, ++m_counters[t]);
        m_track.attempted[i] = v;
        return v;
    }
    void acked(std::size_t i, std::uint64_t version) { m_track.acked[i] = version; }

    /// One closed-loop op of thread `t` through `client` (anything with
    /// get(key) -> Expected<std::string> and put(key, value) -> Status):
    /// a get of a uniform key, or a put of a key the thread owns. Op kind
    /// 0 is the get, 1 the put.
    template <class Client>
    OpResult op(Client& client, std::size_t t, std::mt19937_64& rng) {
        const auto bytes = static_cast<std::uint32_t>(m_s.value_bytes);
        if (std::uniform_real_distribution<double>(0, 1)(rng) < m_s.get_frac) {
            const auto k = key(rng() % m_s.keys);
            return {0, bytes, check_get(client.get(k), k)};
        }
        const std::size_t i = owned_key(t, rng);
        const auto v = next_version(t, i);
        const auto st = client.put(key(i), value(i, v));
        if (st.ok()) acked(i, v);
        return {1, bytes, st.ok() ? k_ok : k_failed};
    }

    /// Writes every key at version 0 through `put_multi(pairs) -> Status`.
    template <class PutMulti>
    Status preload(std::size_t batch, PutMulti&& put_multi) const {
        std::vector<std::pair<std::string, std::string>> pairs;
        for (std::size_t i = 0; i < m_s.keys; ++i) {
            pairs.emplace_back(key(i), value(i, 0));
            if (pairs.size() == batch || i + 1 == m_s.keys) {
                if (auto st = put_multi(pairs); !st.ok()) return st;
                pairs.clear();
            }
        }
        return {};
    }

    /// Reads every key back through `get_multi(keys)`, which returns
    /// Expected<vector<optional<string>>>, `batch` keys per call.
    template <class GetMulti>
    Audit audit(std::size_t batch, GetMulti&& get_multi) const {
        Audit a{m_s.keys, m_s.keys, 0, 0};
        const auto deadline = Clock::now() + k_audit_deadline;
        for (std::size_t i = 0; i < m_s.keys && Clock::now() < deadline; i += batch) {
            std::vector<std::string> keys;
            for (std::size_t j = i; j < std::min(i + batch, m_s.keys); ++j) keys.push_back(key(j));
            auto got = get_multi(keys);
            if (!got) continue;
            a.unread -= keys.size();
            for (std::size_t j = 0; j < keys.size(); ++j) {
                std::uint64_t v = 0;
                if (!(*got)[j])
                    ++a.lost;
                else if (!parse_value(keys[j], *(*got)[j], m_s.value_bytes, v))
                    ++a.wrong;
                else if (!m_track.holds(i + j, v))
                    ++a.lost;
            }
        }
        return a;
    }

  private:
    std::uint8_t check_get(const Expected<std::string>& got, const std::string& k) const {
        if (!got) {
            // Every key is preloaded and never erased: NotFound is a wrong
            // answer that the benchmark counts, not a routing window it
            // retries away.
            return got.error().code == Error::Code::NotFound ? (k_failed | k_notfound)
                                                             : k_failed;
        }
        std::uint64_t v = 0;
        return parse_value(k, *got, m_s.value_bytes, v) ? k_ok : (k_failed | k_wrong);
    }

    Shape m_s;
    std::uint64_t m_seed = 0;
    VersionTrack m_track;
    std::vector<std::uint64_t> m_counters;
};

// -- layer probes ----------------------------------------------------------------

/// Probes of the layers under the service, taken by client thread 0 during
/// the traced window. Each one is a span around a call into that layer's
/// public API; none of them touches the program's own code paths beyond that
/// call.
class LayerProbes {
  public:
    LayerProbes(margo::InstancePtr app, std::string noop_target, bool scrape_bedrock)
    : m_app(std::move(app)), m_noop_target(std::move(noop_target)),
      m_scrape_bedrock(scrape_bedrock), m_bulk_src(k_mib, 'b'), m_bulk_dst(k_mib) {
        const auto& fabric = m_app->fabric();
        auto src = fabric->attach("sim://perfbench-probe-src", [](mercury::Message) {});
        auto sink = fabric->attach("sim://perfbench-probe-sink", [this](mercury::Message) {
            const auto t = now_ns();
            std::lock_guard lk{m_mutex};
            m_arrival_ns = t;
            m_cv.notify_all();
        });
        if (!src || !sink) throw std::runtime_error("cannot attach the probe endpoints");
        m_src = std::move(*src);
        m_sink = std::move(*sink);
        m_bulk = m_src->expose(m_bulk_src.data(), m_bulk_src.size(), false);
    }
    ~LayerProbes() {
        m_src->unexpose(m_bulk.id);
        m_src->detach();
        m_sink->detach();
    }
    LayerProbes(const LayerProbes&) = delete;
    LayerProbes& operator=(const LayerProbes&) = delete;

    /// margo: forward of an RPC whose handler does nothing. Taken inside
    /// the op loop, like the workload's own layer probes, so it runs as warm
    /// as the ops it is compared with.
    void noop(Recorder& rec) {
        const auto t0 = now_ns();
        if (m_app->forward(m_noop_target, k_noop_rpc, std::string{}))
            rec.span("margo.forward_noop_us", t0, now_ns());
    }

    /// The probes that sleep, copy 1 MiB or scrape: taken every
    /// k_probe_interval_ns rather than between every few ops.
    void round(Recorder& rec) {
        const auto& rt = m_app->runtime();
        const auto pool = rt->primary_pool();
        // abt: post a ULT, stamp when it starts.
        {
            std::atomic<std::int64_t> started{0};
            const auto t0 = now_ns();
            auto h = rt->post_thread(pool, [&] { started.store(now_ns()); });
            h.join();
            rec.span("abt.ult_post_to_start_us", t0, started.load());
        }
        // abt: a parked ULT waiting on an Eventual, woken by set().
        {
            abt::Eventual<void> ev;
            std::atomic<bool> waiting{false};
            std::atomic<std::int64_t> woke{0};
            auto h = rt->post_thread(pool, [&] {
                waiting.store(true);
                ev.wait();
                woke.store(now_ns());
            });
            while (!waiting.load()) std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::microseconds(50)); // let it park
            const auto t0 = now_ns();
            ev.set();
            h.join();
            rec.span("abt.eventual_wake_us", t0, woke.load());
        }
        // mercury: bare endpoint to bare endpoint, send until handler runs.
        {
            mercury::Message msg;
            msg.payload = "probe";
            {
                std::lock_guard lk{m_mutex};
                m_arrival_ns = 0;
            }
            // Not under m_mutex: the fabric may run the handler inline.
            const auto t0 = now_ns();
            const bool sent = m_src->send(m_sink->address(), std::move(msg)).ok();
            std::unique_lock lk{m_mutex};
            if (sent && m_cv.wait_for(lk, std::chrono::milliseconds(500),
                                      [&] { return m_arrival_ns != 0; }))
                rec.span("mercury.send_to_handler_us", t0, m_arrival_ns);
        }
        // mercury: pull 1 MiB from an exposed region.
        {
            const auto t0 = now_ns();
            if (m_sink->bulk_pull(m_bulk, 0, m_bulk_dst.data(), k_mib))
                rec.span("mercury.bulk_pull_1mib_us", t0, now_ns());
        }
        // bedrock: one metrics scrape.
        if (m_scrape_bedrock && ++m_rounds % k_scrape_probe_every == 0) {
            const auto t0 = now_ns();
            if (bedrock::Client{m_app}.makeServiceHandle(m_noop_target).getMetrics())
                rec.span("bedrock.get_metrics_us", t0, now_ns());
        }
    }

  private:
    static constexpr std::size_t k_mib = 1 << 20;
    margo::InstancePtr m_app;
    std::string m_noop_target;
    bool m_scrape_bedrock;
    std::shared_ptr<mercury::Endpoint> m_src, m_sink;
    std::vector<char> m_bulk_src, m_bulk_dst;
    mercury::BulkHandle m_bulk;
    std::mutex m_mutex;
    std::condition_variable m_cv;
    std::int64_t m_arrival_ns = 0;
    int m_rounds = 0;
};

void register_noop(const margo::InstancePtr& server) {
    (void)server->register_rpc(k_noop_rpc, margo::k_default_provider_id,
                               [](const margo::Request& req) { req.respond(std::string{}); });
}

// -- workloads ---------------------------------------------------------------------

class Workload {
  public:
    virtual ~Workload() = default;
    /// Deploy the service and preload it (the timed set-up).
    virtual Status deploy(std::uint64_t seed) = 0;
    virtual void teardown() = 0;
    [[nodiscard]] virtual std::size_t client_threads() const = 0;
    [[nodiscard]] virtual std::vector<std::string> op_names() const = 0;
    virtual OpResult op(std::size_t thread, std::mt19937_64& rng) = 0;
    [[nodiscard]] virtual bool has_control() const { return false; }
    virtual void control(std::mt19937_64&, std::int64_t, ControlLog&) {}
    /// The service's own metrics documents, one per node.
    virtual NodeDocs scrape() = 0;
    [[nodiscard]] virtual bool has_bedrock() const { return true; }
    [[nodiscard]] virtual const margo::InstancePtr& app() const = 0;
    [[nodiscard]] virtual std::string noop_target() const = 0;
    /// Workload-specific layer probes, run by client thread 0 between its
    /// ops when traced.
    virtual void layer_probe(Recorder&, std::mt19937_64&) {}
    virtual Audit audit() = 0;
    /// Cumulative client counters of one thread: stale retries, refreshes.
    virtual std::pair<double, double> client_counters(std::size_t) const { return {0, 0}; }
};

NodeDocs scrape_bedrock(const margo::InstancePtr& app, const std::vector<std::string>& nodes) {
    NodeDocs out;
    bedrock::Client client{app};
    for (const auto& addr : nodes)
        if (auto doc = client.makeServiceHandle(addr).getMetrics()) out[addr] = std::move(*doc);
    return out;
}

bool past(Clock::time_point deadline) { return Clock::now() >= deadline; }

/// All-CPU jiffies from /proc/stat: time the hypervisor gave to other
/// guests (steal) and the total. Zeros where the file is unreadable.
struct CpuTicks {
    std::uint64_t steal = 0, total = 0;
};
CpuTicks cpu_ticks() {
    CpuTicks t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    for (int i = 0; i < 10 && in; ++i) {
        std::uint64_t v = 0;
        if (!(in >> v)) break;
        if (i == 7) t.steal = v;
        t.total += v;
    }
    return t;
}

// ---- kv_point / elastic_churn ----------------------------------------------------

class KvWorkload : public Workload {
  public:
    KvWorkload(KeySet::Shape shape, bool churn) : m_keys(shape), m_churn(churn) {}

    Status deploy(std::uint64_t seed) override {
        m_keys.reset(seed);
        m_cluster = std::make_unique<composed::Cluster>(mercury::LinkModel{}, seed);
        auto svc = composed::ElasticKvService::create(*m_cluster, {"sim://kv0", "sim://kv1"});
        if (!svc) return svc.error();
        m_svc = std::move(*svc);
        auto app = margo::Instance::create(m_cluster->fabric(), "sim://perfbench-client");
        if (!app) return app.error();
        m_app = std::move(*app);
        register_noop(m_cluster->node("sim://kv0")->margo_instance());
        composed::ElasticKvClient loader{m_app, m_svc->controller_address()};
        if (auto st = m_keys.preload(512, [&](const auto& pairs) { return loader.put_multi(pairs); });
            !st.ok())
            return st;
        for (std::size_t t = 0; t < m_keys.shape().threads; ++t)
            m_clients.push_back(std::make_unique<composed::ElasticKvClient>(
                m_app, m_svc->controller_address()));
        m_yokan_epoch = std::make_shared<yokan::EpochContext>();
        return {};
    }

    void teardown() override {
        m_clients.clear();
        if (m_app) m_app->shutdown();
        m_svc.reset();
        m_cluster.reset();
    }

    [[nodiscard]] std::size_t client_threads() const override { return m_keys.shape().threads; }
    [[nodiscard]] std::vector<std::string> op_names() const override {
        return {"composed.get_us", "composed.put_us"};
    }
    OpResult op(std::size_t t, std::mt19937_64& rng) override {
        return m_keys.op(*m_clients[t], t, rng);
    }

    [[nodiscard]] bool has_control() const override { return m_churn; }

    void control(std::mt19937_64& rng, std::int64_t until_ns, ControlLog& log) override {
        while (now_ns() < until_ns) {
            const auto cycle_start = now_ns();
            bool ok = true;
            auto step = [&](int kind, const std::function<Status()>& fn) {
                if (!ok) return;
                Step s{kind, now_ns(), 0, true, {}};
                auto st = fn();
                s.end_ns = now_ns();
                if (!st.ok()) {
                    s.ok = ok = false;
                    s.error = st.error().message;
                }
                log.steps.push_back(std::move(s));
            };
            std::uint32_t child = 0;
            step(0, [&]() -> Status {
                const auto shards = m_svc->layout().shards();
                auto plan = m_svc->split_shard(shards[rng() % shards.size()].id);
                if (!plan) return plan.error();
                child = plan->child;
                return {};
            });
            step(1, [&]() -> Status {
                auto plan = m_svc->merge_shards(child);
                if (!plan) return plan.error();
                return {};
            });
            const std::string node = "sim://churn" + std::to_string(m_churn_nodes++);
            step(2, [&] { return m_svc->scale_up(node); });
            step(3, [&] { return m_svc->scale_down(node); });
            if (ok) log.cycles.emplace_back(cycle_start, now_ns());
        }
    }

    NodeDocs scrape() override { return scrape_bedrock(m_app, m_svc->nodes()); }
    [[nodiscard]] const margo::InstancePtr& app() const override { return m_app; }
    [[nodiscard]] std::string noop_target() const override { return "sim://kv0"; }

    /// yokan::Database called directly on the shard the client's layout
    /// picks: the component without the composed client's routing.
    void layer_probe(Recorder& rec, std::mt19937_64& rng) override {
        const auto& layout = m_clients[0]->cached_layout();
        m_yokan_epoch->epoch.store(layout.epoch());
        const auto db_for = [&](const std::string& k) {
            const auto& shard = layout.shard_for_key(k);
            return yokan::Database{m_app, shard.node,
                                   composed::ElasticKvService::shard_provider_id(shard.id),
                                   m_yokan_epoch};
        };
        {
            const auto k = m_keys.key(rng() % m_keys.shape().keys);
            auto db = db_for(k);
            const auto t0 = now_ns();
            const bool ok = db.get(k).has_value();
            const auto t1 = now_ns();
            if (ok) rec.span("yokan.get_us", t0, t1);
        }
        {
            const std::size_t i = m_keys.owned_key(0, rng);
            const auto v = m_keys.next_version(0, i);
            const auto k = m_keys.key(i);
            const auto value = m_keys.value(i, v);
            auto db = db_for(k);
            const auto t0 = now_ns();
            const bool ok = db.put(k, value).ok();
            const auto t1 = now_ns();
            if (ok) {
                m_keys.acked(i, v);
                rec.span("yokan.put_us", t0, t1);
            }
        }
    }

    Audit audit() override {
        composed::ElasticKvClient auditor{m_app, m_svc->controller_address()};
        return m_keys.audit(512, [&](const auto& keys) { return auditor.get_multi(keys); });
    }

    std::pair<double, double> client_counters(std::size_t t) const override {
        return {static_cast<double>(m_clients[t]->stale_retries()),
                static_cast<double>(m_clients[t]->refreshes())};
    }

  private:
    KeySet m_keys;
    bool m_churn;
    std::unique_ptr<composed::Cluster> m_cluster;
    std::unique_ptr<composed::ElasticKvService> m_svc;
    margo::InstancePtr m_app;
    std::vector<std::unique_ptr<composed::ElasticKvClient>> m_clients;
    std::shared_ptr<yokan::EpochContext> m_yokan_epoch;
    std::size_t m_churn_nodes = 0;
};

// ---- blob_bulk -------------------------------------------------------------------

class BlobWorkload : public Workload {
  public:
    static constexpr std::size_t k_regions = 64;
    static constexpr std::size_t k_region_bytes = 1 << 20;
    static constexpr std::size_t k_block = 64 << 10;
    static constexpr std::size_t k_blocks = k_region_bytes / k_block;
    static constexpr std::size_t k_threads = 2;
    static constexpr std::uint16_t k_provider_id = 1;
    static constexpr const char* k_node = "sim://blob0";

    Status deploy(std::uint64_t seed) override {
        m_magic = 0xB10B000000000000ull ^ seed;
        warabi::register_module();
        m_cluster = std::make_unique<composed::Cluster>(mercury::LinkModel{}, seed);
        auto cfg = json::Value::object();
        cfg["libraries"]["warabi"] = "libwarabi.so";
        auto desc = json::Value::object();
        desc["name"] = "blob";
        desc["type"] = "warabi";
        desc["provider_id"] = static_cast<std::int64_t>(k_provider_id);
        desc["config"]["name"] = "blob";
        cfg["providers"].push_back(std::move(desc));
        auto node = m_cluster->spawn_node(k_node, cfg);
        if (!node) return node.error();
        register_noop((*node)->margo_instance());
        auto app = margo::Instance::create(m_cluster->fabric(), "sim://perfbench-client");
        if (!app) return app.error();
        m_app = std::move(*app);
        m_track.resize(k_regions * k_blocks);
        m_counters.assign(k_threads, 0);
        m_wbuf.assign(k_threads, std::vector<char>(k_region_bytes, 'w'));
        m_rbuf.assign(k_threads + 1, std::vector<char>(k_region_bytes));
        warabi::TargetHandle target{m_app, k_node, k_provider_id};
        m_region_ids.clear();
        for (std::size_t r = 0; r < k_regions; ++r) {
            auto id = target.create(k_region_bytes);
            if (!id) return id.error();
            m_region_ids.push_back(*id);
            auto& buf = m_wbuf[0];
            for (std::size_t b = 0; b < k_blocks; ++b) stamp(buf.data() + b * k_block, r, b, 0);
            if (auto st = target.write_bulk(*id, 0, buf.data(), k_region_bytes); !st.ok())
                return st;
        }
        return {};
    }

    void teardown() override {
        if (m_app) m_app->shutdown();
        m_cluster.reset();
    }

    [[nodiscard]] std::size_t client_threads() const override { return k_threads; }
    [[nodiscard]] std::vector<std::string> op_names() const override {
        return {"warabi.write_bulk_us.64k", "warabi.write_bulk_us.1m",
                "warabi.read_bulk_us.64k", "warabi.read_bulk_us.1m"};
    }

    OpResult op(std::size_t t, std::mt19937_64& rng) override {
        warabi::TargetHandle target{m_app, k_node, k_provider_id};
        const bool write = (rng() & 1) != 0;
        const bool large = (rng() & 2) != 0;
        const std::size_t size = large ? k_region_bytes : k_block;
        const std::size_t first = large ? 0 : rng() % k_blocks;
        const std::size_t nblocks = size / k_block;
        const auto kind = static_cast<std::uint8_t>((write ? 0 : 2) + (large ? 1 : 0));
        if (write) {
            // Thread t writes the regions r with r % k_threads == t.
            const std::size_t r = (rng() % (k_regions / k_threads)) * k_threads + t;
            auto& buf = m_wbuf[t];
            std::vector<std::uint64_t> versions;
            for (std::size_t b = 0; b < nblocks; ++b) {
                const auto v = make_version(t, ++m_counters[t]);
                m_track.attempted[r * k_blocks + first + b] = v;
                versions.push_back(v);
                stamp(buf.data() + b * k_block, r, first + b, v);
            }
            auto st = target.write_bulk(m_region_ids[r], first * k_block, buf.data(), size);
            if (st.ok())
                for (std::size_t b = 0; b < nblocks; ++b)
                    m_track.acked[r * k_blocks + first + b] = versions[b];
            return {kind, static_cast<std::uint32_t>(size), st.ok() ? k_ok : k_failed};
        }
        const std::size_t r = rng() % k_regions;
        auto& buf = m_rbuf[t];
        auto st = target.read_bulk(m_region_ids[r], first * k_block, buf.data(), size);
        if (!st.ok()) return {kind, static_cast<std::uint32_t>(size), k_failed};
        for (std::size_t b = 0; b < nblocks; ++b) {
            std::uint64_t v = 0;
            if (!check(buf.data() + b * k_block, r, first + b, v))
                return {kind, static_cast<std::uint32_t>(size), k_failed | k_wrong};
        }
        return {kind, static_cast<std::uint32_t>(size), k_ok};
    }

    NodeDocs scrape() override { return scrape_bedrock(m_app, {k_node}); }
    [[nodiscard]] const margo::InstancePtr& app() const override { return m_app; }
    [[nodiscard]] std::string noop_target() const override { return k_node; }

    Audit audit() override {
        Audit a{k_regions * k_blocks, k_regions * k_blocks, 0, 0};
        const auto deadline = Clock::now() + k_audit_deadline;
        warabi::TargetHandle target{m_app, k_node, k_provider_id};
        auto& buf = m_rbuf[k_threads];
        for (std::size_t r = 0; r < k_regions && !past(deadline); ++r) {
            if (!target.read_bulk(m_region_ids[r], 0, buf.data(), k_region_bytes).ok()) continue;
            a.unread -= k_blocks;
            for (std::size_t b = 0; b < k_blocks; ++b) {
                std::uint64_t v = 0;
                if (!check(buf.data() + b * k_block, r, b, v))
                    ++a.wrong;
                else if (!m_track.holds(r * k_blocks + b, v))
                    ++a.lost;
            }
        }
        return a;
    }

  private:
    /// Each 64 KiB block starts and ends with {magic, region, block, version}:
    /// a block from another place, or a torn one, fails the check.
    struct Header {
        std::uint64_t magic, region, block, version;
    };
    void stamp(char* block, std::size_t r, std::size_t b, std::uint64_t v) const {
        const Header h{m_magic, r, b, v};
        std::memcpy(block, &h, sizeof h);
        std::memcpy(block + k_block - sizeof h, &h, sizeof h);
    }
    bool check(const char* block, std::size_t r, std::size_t b, std::uint64_t& v) const {
        Header head{}, tail{};
        std::memcpy(&head, block, sizeof head);
        std::memcpy(&tail, block + k_block - sizeof tail, sizeof tail);
        v = head.version;
        return head.magic == m_magic && head.region == r && head.block == b &&
               std::memcmp(&head, &tail, sizeof head) == 0;
    }

    std::uint64_t m_magic = 0;
    std::unique_ptr<composed::Cluster> m_cluster;
    margo::InstancePtr m_app;
    std::vector<std::uint64_t> m_region_ids;
    std::vector<std::vector<char>> m_wbuf, m_rbuf;
    VersionTrack m_track;
    std::vector<std::uint64_t> m_counters;
};

// ---- replicated_put --------------------------------------------------------------

class RaftWorkload : public Workload {
  public:
    static constexpr std::uint16_t k_provider_id = 1;

    RaftWorkload() : m_keys({'r', 10000, 128, 4, 0.1}) {}

    Status deploy(std::uint64_t seed) override {
        m_keys.reset(seed);
        m_fabric = mercury::Fabric::create({}, seed);
        m_peers = {"sim://raft0", "sim://raft1", "sim://raft2"};
        for (const auto& addr : m_peers) {
            remi::SimFileStore::destroy_node(addr); // default RaftConfig persists here
            auto r = composed::KvReplica::create(m_fabric, addr, m_peers, k_provider_id);
            if (!r) return r.error();
            m_replicas.push_back(std::move(*r));
        }
        register_noop(m_replicas[0].instance);
        auto app = margo::Instance::create(m_fabric, "sim://perfbench-client");
        if (!app) return app.error();
        m_app = std::move(*app);
        composed::ReplicatedKvClient loader{m_app, m_peers, k_provider_id};
        if (auto st = m_keys.preload(256, [&](const auto& pairs) { return loader.put_multi(pairs); });
            !st.ok())
            return st;
        for (std::size_t t = 0; t < m_keys.shape().threads; ++t)
            m_clients.push_back(
                std::make_unique<composed::ReplicatedKvClient>(m_app, m_peers, k_provider_id));
        m_probe_client = std::make_unique<raft::Client>(m_app, m_peers, k_provider_id);
        return {};
    }

    void teardown() override {
        m_clients.clear();
        m_probe_client.reset();
        if (m_app) m_app->shutdown();
        for (auto& r : m_replicas) r.shutdown();
        m_replicas.clear();
        m_fabric.reset();
    }

    [[nodiscard]] std::size_t client_threads() const override { return m_keys.shape().threads; }
    [[nodiscard]] std::vector<std::string> op_names() const override {
        return {"composed.replicated_get_us", "composed.replicated_put_us"};
    }
    OpResult op(std::size_t t, std::mt19937_64& rng) override {
        return m_keys.op(*m_clients[t], t, rng);
    }

    /// In-process read of each replica's registry: this deployment runs no
    /// Bedrock process, and the registry is what bedrock/get_metrics serves.
    NodeDocs scrape() override {
        NodeDocs out;
        for (const auto& r : m_replicas) out[r.instance->address()] = r.instance->metrics_json();
        return out;
    }
    [[nodiscard]] bool has_bedrock() const override { return false; }
    [[nodiscard]] const margo::InstancePtr& app() const override { return m_app; }
    [[nodiscard]] std::string noop_target() const override { return m_peers[0]; }

    /// raft::Client::submit of a put command: the log without the KV client.
    void layer_probe(Recorder& rec, std::mt19937_64& rng) override {
        const std::size_t i = m_keys.owned_key(0, rng);
        const auto v = m_keys.next_version(0, i);
        const auto cmd = composed::YokanStateMachine::encode_put(m_keys.key(i), m_keys.value(i, v));
        const auto t0 = now_ns();
        auto r = m_probe_client->submit(cmd);
        const auto t1 = now_ns();
        if (r) {
            m_keys.acked(i, v);
            rec.span("raft.submit_us", t0, t1);
        }
    }

    Audit audit() override {
        composed::ReplicatedKvClient auditor{m_app, m_peers, k_provider_id};
        return m_keys.audit(256, [&](const auto& keys) { return auditor.get_multi(keys); });
    }

  private:
    KeySet m_keys;
    std::shared_ptr<mercury::Fabric> m_fabric;
    std::vector<std::string> m_peers;
    std::vector<composed::KvReplica> m_replicas;
    margo::InstancePtr m_app;
    std::vector<std::unique_ptr<composed::ReplicatedKvClient>> m_clients;
    std::unique_ptr<raft::Client> m_probe_client;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
    if (name == "kv_point")
        return std::make_unique<KvWorkload>(KeySet::Shape{'k', 100000, 64, 4, 0.9}, false);
    if (name == "elastic_churn")
        return std::make_unique<KvWorkload>(KeySet::Shape{'k', 20000, 256, 3, 0.5}, true);
    if (name == "blob_bulk") return std::make_unique<BlobWorkload>();
    if (name == "replicated_put") return std::make_unique<RaftWorkload>();
    return nullptr;
}

// -- running a measured window ------------------------------------------------------

struct Phase {
    std::int64_t begin_ns = 0, end_ns = 0;
    WindowSummary summary;
    std::vector<Sample> samples;
    std::vector<Span> spans;
    ControlLog control;
    NodeDocs scrape_begin, scrape_end;
    std::uint64_t delivered_begin = 0, delivered_end = 0;
    double stale_retries = 0, refreshes = 0; ///< over the whole phase
    std::size_t phase_ops = 0;               ///< every op of the phase, warm-up included
    std::size_t wrong_any = 0;               ///< wrong values, warm-up included
    bool hung = false;
    std::size_t in_flight = 0; ///< calls that never returned (when hung)
};

/// State the phase's threads share with the caller. Held by shared_ptr so a
/// thread that never returns keeps it alive after run_phase() gives up.
struct PhaseShared {
    std::vector<std::unique_ptr<Recorder>> recs;
    std::vector<std::pair<double, double>> counters_begin, counters_end;
    ControlLog control;
    std::atomic<bool> control_done{true};
};

/// Runs the workload's client threads (and control thread) for a warm-up
/// plus `seconds`, then waits for them with a deadline. With `scrape`, the
/// service metrics and the fabric message count are read at the window's
/// edges; with `probes`, thread 0 interleaves probe rounds with its ops.
/// `w` and `probes` must outlive the phase's threads; if one hangs, the
/// caller ends the process without destroying them.
Phase run_phase(Workload& w, double seconds, std::uint64_t seed, bool scrape,
                LayerProbes* probes) {
    Phase ph;
    const std::size_t n = w.client_threads();
    auto sh = std::make_shared<PhaseShared>();
    for (std::size_t t = 0; t < n; ++t) {
        sh->recs.push_back(std::make_unique<Recorder>());
        // Growing the sample log mid-window would copy it between two ops.
        sh->recs.back()->reserve(static_cast<std::size_t>((seconds + k_warmup_s) * 40000));
    }
    sh->counters_begin.resize(n);
    sh->counters_end.resize(n);
    const auto start = now_ns();
    ph.begin_ns = start + static_cast<std::int64_t>(k_warmup_s * 1e9);
    ph.end_ns = ph.begin_ns + static_cast<std::int64_t>(seconds * 1e9);
    const auto until = ph.end_ns;
    Workload* wp = &w;

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < n; ++t) {
        threads.emplace_back([sh, wp, probes, until, seed, t] {
            std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + t * 7919 + (probes ? 1 : 0));
            auto& rec = *sh->recs[t];
            sh->counters_begin[t] = wp->client_counters(t);
            std::int64_t next_probe = 0;
            for (std::size_t i = 0; now_ns() < until; ++i) {
                if (probes != nullptr && t == 0) {
                    rec.in_op = true;
                    if (i % k_hot_probe_every == k_hot_probe_every - 1) {
                        probes->noop(rec);
                        wp->layer_probe(rec, rng);
                    }
                    if (now_ns() >= next_probe) {
                        probes->round(rec);
                        next_probe = now_ns() + k_probe_interval_ns;
                    }
                    rec.in_op = false;
                }
                rec.in_op = true;
                const auto s = now_ns();
                auto r = wp->op(t, rng);
                const auto e = now_ns();
                rec.in_op = false;
                if (e - s > k_op_deadline_ns) r.outcome |= k_failed;
                rec.add(Sample{s, e, r.bytes, r.kind, r.outcome});
            }
            sh->counters_end[t] = wp->client_counters(t);
            rec.done = true;
        });
    }
    if (w.has_control()) {
        sh->control_done = false;
        threads.emplace_back([sh, wp, until, seed] {
            std::mt19937_64 rng(seed ^ 0xC0417201ull);
            wp->control(rng, until, sh->control);
            sh->control_done = true;
        });
    }

    const auto at = [](std::int64_t ns) {
        return Clock::time_point{std::chrono::nanoseconds(ns)};
    };
    const int parts = std::max(1, static_cast<int>(seconds * k_subwindows_per_s));
    const std::int64_t part_ns = (ph.end_ns - ph.begin_ns) / parts;
    std::vector<double> steal;
    std::this_thread::sleep_until(at(ph.begin_ns));
    auto ticks = cpu_ticks();
    if (scrape) {
        ph.delivered_begin = w.app()->fabric()->messages_delivered();
        ph.scrape_begin = w.scrape();
    }
    for (int p = 1; p <= parts; ++p) {
        std::this_thread::sleep_until(at(ph.begin_ns + p * part_ns));
        const auto now = cpu_ticks();
        steal.push_back(now.total > ticks.total ? static_cast<double>(now.steal - ticks.steal) /
                                                      static_cast<double>(now.total - ticks.total)
                                                : 0.0);
        ticks = now;
    }
    if (scrape) {
        ph.delivered_end = w.app()->fabric()->messages_delivered();
        ph.scrape_end = w.scrape();
    }

    const auto deadline = Clock::now() + k_join_deadline;
    const auto all_done = [&] {
        for (const auto& r : sh->recs)
            if (!r->done) return false;
        return sh->control_done.load();
    };
    while (!all_done() && !past(deadline))
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (all_done()) {
        for (auto& th : threads) th.join();
        ph.control = sh->control;
    } else {
        // A call that never returns cannot be joined: count it and leave
        // the threads running; main() ends the process after reporting.
        ph.hung = true;
        for (const auto& r : sh->recs) ph.in_flight += r->in_op ? 1 : 0;
        if (!sh->control_done) ++ph.in_flight;
        for (auto& th : threads) th.detach();
    }
    for (std::size_t t = 0; t < n; ++t) {
        const auto& rec = *sh->recs[t];
        auto s = rec.samples();
        ph.samples.insert(ph.samples.end(), s.begin(), s.end());
        auto sp = rec.spans();
        ph.spans.insert(ph.spans.end(), sp.begin(), sp.end());
        if (rec.done) {
            ph.stale_retries += sh->counters_end[t].first - sh->counters_begin[t].first;
            ph.refreshes += sh->counters_end[t].second - sh->counters_begin[t].second;
        }
    }
    for (const auto& s : ph.samples) {
        ++ph.phase_ops;
        if (s.outcome & k_wrong) ++ph.wrong_any;
    }
    ph.summary = summarize(ph.samples, ph.begin_ns, ph.end_ns, steal);
    return ph;
}

/// Runs `fn` on its own thread and waits up to `limit`. On timeout the
/// thread is left running (it cannot be joined) and false is returned; the
/// caller ends the process without destroying what it references.
bool with_deadline(const std::function<void()>& fn, std::chrono::seconds limit) {
    auto done = std::make_shared<std::atomic<bool>>(false);
    auto th = std::make_unique<std::thread>([fn, done] {
        fn();
        done->store(true);
    });
    const auto deadline = Clock::now() + limit;
    while (!done->load() && !past(deadline))
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (!done->load()) {
        (void)th.release();
        return false;
    }
    th->join();
    return true;
}

// -- report -------------------------------------------------------------------------

std::map<std::string, std::vector<double>> span_durations(const std::vector<Span>& spans) {
    std::map<std::string, std::vector<double>> out;
    for (const auto& s : spans)
        out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    return out;
}

double q_of(std::map<std::string, std::vector<double>>& d, const std::string& name, double q) {
    auto it = d.find(name);
    return it == d.end() ? 0.0 : quantile(it->second, q);
}

double mean_of(const std::map<std::string, std::vector<double>>& d, const std::string& name) {
    auto it = d.find(name);
    return it == d.end() ? 0.0 : mean(it->second);
}

struct Metrics {
    json::Value doc = json::Value::object();
    void set(const std::string& name, double value, const char* unit) {
        auto m = json::Value::object();
        m["value"] = value;
        m["unit"] = unit;
        doc[name] = std::move(m);
    }
};

/// Per-step and per-cycle medians, plus client p99 split by whether the op
/// overlapped a split or merge.
void churn_layers(const Phase& ph, Metrics& m) {
    std::vector<double> steps[4];
    for (const auto& s : ph.control.steps)
        if (s.ok && s.start_ns >= ph.begin_ns && s.end_ns <= ph.end_ns)
            steps[s.kind].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    for (int k = 0; k < 4; ++k)
        m.set(std::string("composed.") + k_step_names[k] + "_ms", median(steps[k]), "ms");
    std::vector<double> cycles;
    for (const auto& [b, e] : ph.control.cycles)
        if (b >= ph.begin_ns && e <= ph.end_ns) cycles.push_back(static_cast<double>(e - b) / 1e6);
    m.set("reconfig_cycle_ms", median(cycles), "ms");
    // The steps run back to back, so every op overlaps one of them; the
    // split is by the steps that flip ranges of shards the clients already
    // use (split, merge) against the rest (scale_up/scale_down migrating
    // whole shards). One thread runs them, so they are disjoint and sorted:
    // an op overlaps one iff the last one starting before the op ends has
    // not ended before the op started.
    std::vector<Step> flips;
    for (const auto& st : ph.control.steps)
        if (st.kind <= 1) flips.push_back(st);
    std::vector<double> overlap, quiet;
    for (const auto& s : ph.samples) {
        if (s.end_ns < ph.begin_ns || s.end_ns >= ph.end_ns) continue;
        auto it = std::upper_bound(flips.begin(), flips.end(), s.end_ns,
                                   [](std::int64_t t, const Step& st) { return t < st.start_ns; });
        const bool hit = it != flips.begin() && std::prev(it)->end_ns >= s.start_ns;
        (hit ? overlap : quiet).push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
    m.set("composed.overlap_p99_us", quantile(overlap, 0.99), "us");
    m.set("composed.quiet_p99_us", quantile(quiet, 0.99), "us");
}

/// Per-layer metrics from an untraced phase (scrapes, counters) and a traced
/// one (spans, probe latencies).
Metrics per_layer(Workload& w, const Phase& a, const Phase& b) {
    Metrics m;
    const auto names = w.op_names();
    auto spans = span_durations(b.spans);
    // Client op latencies of the traced window, by op kind.
    for (const auto& s : b.samples)
        if (s.end_ns >= b.begin_ns && s.end_ns < b.end_ns)
            spans[names[s.kind]].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    const Scrape d = scrape_delta(a.scrape_begin, a.scrape_end);
    const double ops_a = std::max<double>(1.0, static_cast<double>(a.summary.samples));
    const double window_s = static_cast<double>(a.end_ns - a.begin_ns) / 1e9;

    m.set("abt.ult_post_to_start_us.p50", q_of(spans, "abt.ult_post_to_start_us", 0.5), "us");
    m.set("abt.ult_post_to_start_us.p99", q_of(spans, "abt.ult_post_to_start_us", 0.99), "us");
    m.set("abt.eventual_wake_us", q_of(spans, "abt.eventual_wake_us", 0.5), "us");
    m.set("mercury.send_to_handler_us", q_of(spans, "mercury.send_to_handler_us", 0.5), "us");
    m.set("mercury.messages_per_op",
          static_cast<double>(a.delivered_end - a.delivered_begin) / ops_a, "1/op");
    const double bulk_us_per_mib = q_of(spans, "mercury.bulk_pull_1mib_us", 0.5);
    m.set("mercury.bulk_us_per_mib", bulk_us_per_mib, "us/MiB");
    const double noop_p50 = q_of(spans, "margo.forward_noop_us", 0.5);
    m.set("margo.forward_noop_us.p50", noop_p50, "us");
    m.set("margo.forward_noop_us.p99", q_of(spans, "margo.forward_noop_us", 0.99), "us");
    m.set("margo.queue_delay_us.p50", d.hist_quantile("margo_rpc_queue_delay_us", 0.5), "us");
    m.set("margo.queue_delay_us.p99", d.hist_quantile("margo_rpc_queue_delay_us", 0.99), "us");
    m.set("margo.handler_us.p50", d.hist_quantile("margo_rpc_handler_duration_us", 0.5), "us");
    m.set("margo.rpcs_per_op", d.counter("margo_rpc_handled_total") / ops_a, "1/op");

    const double yokan_get = q_of(spans, "yokan.get_us", 0.5);
    m.set("yokan.get_us", yokan_get, "us");
    m.set("yokan.put_us", q_of(spans, "yokan.put_us", 0.5), "us");
    m.set("yokan.stale_rejections_per_op",
          d.counter("yokan_stale_epoch_rejections_total") / ops_a, "1/op");

    // The composed client's read against the same read made directly on the
    // yokan provider that holds the key.
    const double client_get = q_of(spans, "composed.get_us", 0.5);
    m.set("composed.route_self_us", client_get > 0 ? client_get - yokan_get : 0.0, "us");
    m.set("composed.stale_retries_per_op",
          a.stale_retries / std::max<double>(1.0, static_cast<double>(a.phase_ops)), "1/op");
    m.set("composed.layout_refreshes", a.refreshes, "count");
    churn_layers(b, m);
    m.set("composed.notfound_present_key", static_cast<double>(b.summary.notfound), "count");

    m.set("remi.migration_ms", d.hist_quantile("remi_migration_duration_us", 0.5) / 1e3, "ms");
    std::size_t cycles_a = 0;
    for (const auto& [cb, ce] : a.control.cycles)
        if (cb >= a.begin_ns && ce <= a.end_ns) ++cycles_a;
    m.set("remi.bytes_per_cycle",
          cycles_a ? d.counter("remi_migrated_bytes_total") / static_cast<double>(cycles_a) : 0.0,
          "B");
    m.set("bedrock.get_metrics_ms", q_of(spans, "bedrock.get_metrics_us", 0.5) / 1e3, "ms");
    m.set("ssg.pings_per_s", d.counter("ssg_pings_total") / window_s, "1/s");

    for (const char* size : {"64k", "1m"}) {
        const std::string sz = size;
        const double wr = q_of(spans, "warabi.write_bulk_us." + sz, 0.5);
        const double rd = q_of(spans, "warabi.read_bulk_us." + sz, 0.5);
        m.set("warabi.write_bulk_us." + sz, wr, "us");
        m.set("warabi.read_bulk_us." + sz, rd, "us");
        const double mib = sz == "1m" ? 1.0 : 1.0 / 16;
        m.set("warabi.self_us." + sz,
              wr > 0 ? (wr + rd) / 2 - noop_p50 - bulk_us_per_mib * mib : 0.0, "us");
    }

    m.set("raft.submit_us", q_of(spans, "raft.submit_us", 0.5), "us");
    const double applied = d.counter("raft_entries_applied_total");
    m.set("raft.append_entries_per_entry",
          applied > 0 ? d.counter("raft_append_entries_sent_total") / (applied / 3.0) : 0.0,
          "1/entry");
    m.set("raft.elections", d.counter("raft_elections_total"), "count");

    // What the hooks around one RPC do not explain: the client op's mean
    // minus a bare round trip, the server queue wait and the server handler.
    const double layers = mean_of(spans, "margo.forward_noop_us") +
                          d.hist_mean("margo_rpc_queue_delay_us") +
                          d.hist_mean("margo_rpc_handler_duration_us");
    m.set("unattributed_us", a.summary.mean_us - layers, "us");
    m.set("trace.ops_s", b.summary.ops_s, "1/s");
    m.set("trace.ops_s_ratio", a.summary.ops_s > 0 ? b.summary.ops_s / a.summary.ops_s : 0.0,
          "ratio");
    return m;
}

json::Value span_summary(const std::vector<Span>& spans) {
    auto out = json::Value::object();
    for (auto& [name, d] : span_durations(spans)) {
        auto s = json::Value::object();
        s["count"] = static_cast<std::uint64_t>(d.size());
        s["mean_us"] = mean(d);
        s["p50_us"] = quantile(d, 0.5);
        s["p99_us"] = quantile(d, 0.99);
        out[name] = std::move(s);
    }
    return out;
}

/// Deploys `w` under the set-up deadline and returns the seconds it took.
/// A run that cannot set up has nothing to report: it fails (exit 1).
double deploy_or_exit(Workload& w, const Options& opt) {
    struct Deployed {
        Status status;
        double seconds = 0;
    };
    auto deployed = std::make_shared<Deployed>();
    Workload* raw = &w;
    Status st = Error{Error::Code::Timeout,
                      "missed its " + std::to_string(k_setup_deadline.count()) + " s deadline"};
    // The time is taken on the deploying thread: with_deadline() only polls.
    if (with_deadline(
            [raw, deployed, seed = opt.seed] {
                const auto t0 = now_ns();
                deployed->status = raw->deploy(seed);
                deployed->seconds = static_cast<double>(now_ns() - t0) / 1e9;
            },
            k_setup_deadline))
        st = deployed->status;
    if (!st.ok()) {
        std::fprintf(stderr, "%s: set-up failed: %s\n", opt.workload.c_str(),
                     st.error().message.c_str());
        std::fflush(stderr);
        std::_Exit(1);
    }
    return deployed->seconds;
}

/// Counts of one run, summed over its measured deployments.
struct Tally {
    std::size_t attempted = 0, failed = 0, wrong = 0, notfound = 0, lost = 0;
    json::Value problems = json::Value::array();

    /// Adds a phase's ops and reconfiguration steps; true if calls hung.
    bool add(const Phase& ph, const std::string& workload) {
        attempted += ph.summary.samples;
        failed += ph.summary.failed;
        wrong += ph.wrong_any;
        notfound += ph.summary.notfound;
        for (const auto& s : ph.control.steps) {
            if (s.start_ns < ph.begin_ns || s.end_ns >= ph.end_ns) continue;
            ++attempted;
            if (!s.ok) {
                ++failed;
                problems.push_back(std::string(k_step_names[s.kind]) + " failed: " + s.error);
            }
        }
        if (!ph.hung) return false;
        attempted += ph.in_flight;
        failed += ph.in_flight;
        problems.push_back(workload + ": " + std::to_string(ph.in_flight) +
                           " operations still in flight " +
                           std::to_string(k_join_deadline.count()) +
                           " s after the window closed");
        return true;
    }
};

json::Value window_detail(const Phase& a, bool has_control) {
    const auto& s = a.summary;
    auto d = json::Value::object();
    d["ops_s"] = s.ops_s;
    d["p50_us"] = s.p50_us;
    d["p99_us"] = s.p99_us;
    d["mb_s"] = s.mb_s;
    d["samples"] = static_cast<std::uint64_t>(s.samples);
    d["completed"] = static_cast<std::uint64_t>(s.completed);
    d["mean_us"] = s.mean_us;
    d["window_p50_us"] = s.all_p50_us;
    d["window_p99_us"] = s.all_p99_us;
    d["bytes"] = s.bytes;
    for (double v : s.part_ops_s) d["subwindow_ops_s"].push_back(v);
    for (double v : s.part_p50_us) d["subwindow_p50_us"].push_back(v);
    for (double v : s.part_p99_us) d["subwindow_p99_us"].push_back(v);
    for (double v : s.part_steal) d["subwindow_steal"].push_back(v);
    for (std::size_t v : s.parts_used)
        d["subwindows_used"].push_back(static_cast<std::uint64_t>(v));
    if (has_control) {
        Metrics churn;
        churn_layers(a, churn);
        d["reconfig_cycle_ms"] = churn.doc["reconfig_cycle_ms"]["value"];
    }
    return d;
}

int run(const Options& opt) {
    auto report = json::Value::object();
    report["workload"] = opt.workload;
    report["seed"] = opt.seed;
    report["seconds"] = opt.seconds;
    report["trace"] = opt.trace;
    report["build_type"] = PERFBENCH_BUILD_TYPE;
    report["compiler"] = PERFBENCH_COMPILER;
    Tally tally;
    // A thread that never returned still uses the objects it was given, so
    // the process then ends after printing, without running destructors.
    bool abandoned = false;

    // The end-to-end run deploys k_setup_repeats times, timing each set-up
    // (deploy + preload), and measures the last k_windows deployments for
    // an equal share of --seconds each. The figures are medians over those
    // deployments: a slowdown every deployment has moves them, while a
    // deployment that stops serving (a program defect, not a slowdown)
    // shows as failed operations. The traced run deploys once.
    const int setups = opt.trace ? 1 : k_setup_repeats;
    const int windows = opt.trace ? 1 : k_windows;
    std::vector<double> setup_s;
    std::vector<WindowSummary> measured;
    auto deployments = json::Value::array();
    Metrics layers;
    bool traced = false;
    for (int i = 0; i < setups; ++i) {
        std::unique_ptr<Workload> w = make_workload(opt.workload);
        setup_s.push_back(deploy_or_exit(*w, opt));
        bool hung = false; // calls into this deployment that never returned
        if (i >= setups - windows) {
            Phase a = run_phase(*w, opt.seconds / windows, opt.seed, opt.trace, nullptr);
            hung = tally.add(a, opt.workload);
            auto d = window_detail(a, w->has_control());
            if (opt.trace && !hung) {
                auto probes =
                    std::make_unique<LayerProbes>(w->app(), w->noop_target(), w->has_bedrock());
                Phase b = run_phase(*w, opt.seconds, opt.seed + 1, false, probes.get());
                hung = tally.add(b, opt.workload);
                if (hung) (void)probes.release();
                layers = per_layer(*w, a, b);
                d["traced_spans"] = span_summary(b.spans);
                traced = true;
            }
            measured.push_back(a.summary);
            Audit audit;
            if (!hung) audit = w->audit();
            tally.attempted += audit.keys;
            tally.failed += audit.unread;
            tally.wrong += audit.wrong;
            tally.lost += audit.lost;
            d["audited_keys"] = static_cast<std::uint64_t>(audit.keys - audit.unread);
            if (hung)
                tally.problems.push_back(opt.workload +
                                         ": read-back audit skipped, calls still in flight");
            else if (audit.unread > 0)
                tally.problems.push_back(opt.workload + ": read-back audit could not read " +
                                         std::to_string(audit.unread) + " of " +
                                         std::to_string(audit.keys));
            deployments.push_back(std::move(d));
        }
        if (hung) {
            (void)w.release();
            abandoned = true;
            continue;
        }
        // Teardown under a deadline: a stuck provider shutdown is a failed
        // operation, reported, not a hang.
        Workload* raw = w.get();
        if (!with_deadline([raw] { raw->teardown(); }, k_teardown_deadline)) {
            (void)w.release();
            abandoned = true;
            ++tally.attempted;
            ++tally.failed;
            tally.problems.push_back(opt.workload + ": teardown " + std::to_string(i) +
                                     " missed its " +
                                     std::to_string(k_teardown_deadline.count()) +
                                     " s deadline");
            // Stop repeating set-ups that leave a teardown behind.
            i = std::max(i, setups - windows - 1);
        }
    }

    const auto med = [&](double WindowSummary::*field) {
        std::vector<double> v;
        for (const auto& s : measured) v.push_back(s.*field);
        return median(v);
    };
    Metrics e2e;
    e2e.set("setup_s", median(setup_s), "s");
    e2e.set("ops_s", med(&WindowSummary::ops_s), "1/s");
    e2e.set("p50_us", med(&WindowSummary::p50_us), "us");
    e2e.set("p99_us", med(&WindowSummary::p99_us), "us");
    e2e.set("mb_s", med(&WindowSummary::mb_s), "MB/s");

    auto setup_runs = json::Value::array();
    for (double v : setup_s) setup_runs.push_back(v);
    report["setup_runs_s"] = std::move(setup_runs);
    report["attempted"] = static_cast<std::uint64_t>(tally.attempted);
    report["failed"] = static_cast<std::uint64_t>(tally.failed);
    report["wrong"] = static_cast<std::uint64_t>(tally.wrong);
    report["lost_keys"] = static_cast<std::uint64_t>(tally.lost);
    report["notfound_present_key"] = static_cast<std::uint64_t>(tally.notfound);
    report["failed_frac"] = tally.attempted ? static_cast<double>(tally.failed) /
                                                  static_cast<double>(tally.attempted)
                                            : 0.0;
    report["correct"] = tally.wrong == 0 && tally.lost == 0;
    report["problems"] = std::move(tally.problems);
    report["end_to_end"] = std::move(e2e.doc);
    if (traced) report["per_layer"] = std::move(layers.doc);
    report["deployments"] = std::move(deployments);
    std::printf("%s\n", report.dump().c_str());
    std::fflush(stdout);
    if (abandoned) std::_Exit(0);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (val == nullptr) {
            std::fprintf(stderr, "missing value for %s\n", flag.c_str());
            return 2;
        }
        ++i;
        if (flag == "--workload")
            opt.workload = val;
        else if (flag == "--seed")
            opt.seed = std::strtoull(val, nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::atof(val);
        else if (flag == "--trace")
            opt.trace = std::atoi(val) != 0;
        else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            return 2;
        }
    }
    if (!make_workload(opt.workload) || opt.seconds <= 0) {
        std::fprintf(stderr, "usage: %s --workload kv_point|blob_bulk|"
                             "elastic_churn|replicated_put --seed N --seconds S "
                             "--trace 0|1\n",
                     argv[0]);
        return 2;
    }
    return run(opt);
}
