// Tests for Yokan: backends (property-parameterized), the provider/handle
// anatomy (Figure 1 / F1), virtual replicated databases (§7 Obs. 10),
// migration, checkpoint/restore, and the Bedrock module.
#include "bedrock/client.hpp"
#include "bedrock/process.hpp"
#include "malformed_payload.hpp"
#include "yokan/provider.hpp"

#include <gtest/gtest.h>

using namespace mochi;

// ---------------------------------------------------------------------------
// Backend property tests, parameterized over every backend type (F1: the
// abstract resource interface must behave identically across backends).
// ---------------------------------------------------------------------------

class YokanBackendTest : public ::testing::TestWithParam<const char*> {
  protected:
    void SetUp() override {
        auto b = yokan::Backend::create(GetParam());
        ASSERT_TRUE(b.has_value());
        backend = std::move(*b);
    }
    std::unique_ptr<yokan::Backend> backend;
};

TEST_P(YokanBackendTest, PutGetEraseRoundTrip) {
    EXPECT_TRUE(backend->put("k1", "v1").ok());
    EXPECT_TRUE(backend->put("k2", "v2").ok());
    EXPECT_EQ(*backend->get("k1"), "v1");
    EXPECT_TRUE(backend->exists("k2"));
    EXPECT_FALSE(backend->exists("k3"));
    EXPECT_FALSE(backend->get("k3").has_value());
    EXPECT_EQ(backend->count(), 2u);
    EXPECT_TRUE(backend->erase("k1").ok());
    EXPECT_FALSE(backend->erase("k1").ok());
    EXPECT_FALSE(backend->exists("k1"));
    EXPECT_EQ(backend->count(), 1u);
}

TEST_P(YokanBackendTest, OverwriteUpdatesValue) {
    EXPECT_TRUE(backend->put("k", "old").ok());
    EXPECT_TRUE(backend->put("k", "new-longer-value").ok());
    EXPECT_EQ(*backend->get("k"), "new-longer-value");
    EXPECT_EQ(backend->count(), 1u);
}

TEST_P(YokanBackendTest, ListKeysWithPrefixAndFromAndMax) {
    for (const char* k : {"apple", "apricot", "banana", "berry", "cherry"})
        ASSERT_TRUE(backend->put(k, "x").ok());
    auto ap = backend->list_keys("", "ap", 0);
    EXPECT_EQ(ap, (std::vector<std::string>{"apple", "apricot"}));
    auto from_b = backend->list_keys("banana", "", 0);
    EXPECT_EQ(from_b, (std::vector<std::string>{"banana", "berry", "cherry"}));
    auto capped = backend->list_keys("", "", 2);
    EXPECT_EQ(capped.size(), 2u);
    EXPECT_EQ(capped[0], "apple");
    auto none = backend->list_keys("", "zz", 0);
    EXPECT_TRUE(none.empty());
}

TEST_P(YokanBackendTest, SizeBytesTracksContent) {
    EXPECT_EQ(backend->size_bytes(), 0u);
    ASSERT_TRUE(backend->put("abc", "0123456789").ok());
    EXPECT_EQ(backend->size_bytes(), 13u);
    ASSERT_TRUE(backend->put("abc", "01234").ok());
    EXPECT_EQ(backend->size_bytes(), 8u);
    ASSERT_TRUE(backend->erase("abc").ok());
    EXPECT_EQ(backend->size_bytes(), 0u);
}

TEST_P(YokanBackendTest, ForEachVisitsEverything) {
    constexpr int k_n = 500;
    for (int i = 0; i < k_n; ++i)
        ASSERT_TRUE(backend->put("key" + std::to_string(i), std::to_string(i * i)).ok());
    std::size_t visited = 0;
    bool values_match = true;
    backend->for_each([&](const std::string& k, const std::string& v) {
        ++visited;
        long i = std::stol(k.substr(3));
        if (v != std::to_string(i * i)) values_match = false;
    });
    EXPECT_EQ(visited, static_cast<std::size_t>(k_n));
    EXPECT_TRUE(values_match);
}

TEST_P(YokanBackendTest, ClearEmptiesBackend) {
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(backend->put(std::to_string(i), "v").ok());
    backend->clear();
    EXPECT_EQ(backend->count(), 0u);
    EXPECT_FALSE(backend->get("1").has_value());
}

TEST_P(YokanBackendTest, ChurnStress) {
    // Interleaved put/overwrite/erase cycles preserve exact expected content
    // (exercises the log backend's compaction in particular).
    std::map<std::string, std::string> model;
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 200; ++i) {
            auto k = "k" + std::to_string(i % 50);
            auto v = "r" + std::to_string(round) + "i" + std::to_string(i);
            ASSERT_TRUE(backend->put(k, v).ok());
            model[k] = v;
            if (i % 3 == 0) {
                ASSERT_TRUE(backend->erase(k).ok());
                model.erase(k);
            }
        }
    }
    EXPECT_EQ(backend->count(), model.size());
    for (const auto& [k, v] : model) EXPECT_EQ(*backend->get(k), v) << k;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, YokanBackendTest,
                         ::testing::Values("map", "unordered_map", "log"));

TEST(YokanBackend, UnknownTypeRejected) {
    EXPECT_FALSE(yokan::Backend::create("rocksdb?").has_value());
}

// ---------------------------------------------------------------------------
// Provider / Database handle
// ---------------------------------------------------------------------------

namespace {

struct YokanWorld {
    std::shared_ptr<mercury::Fabric> fabric = mercury::Fabric::create();
    margo::InstancePtr server;
    margo::InstancePtr client;

    YokanWorld() {
        remi::SimFileStore::destroy_node("sim://server");
        remi::SimFileStore::destroy_node("sim://dst");
        server = margo::Instance::create(fabric, "sim://server").value();
        client = margo::Instance::create(fabric, "sim://client").value();
    }
    ~YokanWorld() {
        client->shutdown();
        server->shutdown();
    }
};

} // namespace

TEST(Yokan, ProviderAndDatabaseHandle) {
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    ASSERT_TRUE(db.put("hello", "world").ok());
    EXPECT_EQ(*db.get("hello"), "world");
    EXPECT_TRUE(*db.exists("hello"));
    EXPECT_FALSE(*db.exists("nope"));
    EXPECT_FALSE(db.get("nope").has_value());
    EXPECT_EQ(*db.count(), 1u);
    EXPECT_TRUE(db.erase("hello").ok());
    EXPECT_FALSE(db.erase("hello").ok());
    EXPECT_EQ(*db.count(), 0u);
}

TEST(Yokan, MultiOperations) {
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 20; ++i)
        pairs.emplace_back("k" + std::to_string(i), "v" + std::to_string(i));
    ASSERT_TRUE(db.put_multi(pairs).ok());
    EXPECT_EQ(*db.count(), 20u);
    auto values = db.get_multi({"k3", "missing", "k7"});
    ASSERT_TRUE(values.has_value());
    ASSERT_EQ(values->size(), 3u);
    EXPECT_EQ(*(*values)[0], "v3");
    EXPECT_FALSE((*values)[1].has_value());
    EXPECT_EQ(*(*values)[2], "v7");
    auto keys = db.list_keys("", "k1", 0);
    ASSERT_TRUE(keys.has_value());
    EXPECT_EQ(keys->size(), 11u); // k1, k10..k19
}

TEST(Yokan, TwoProvidersSameProcess) {
    // Figure 1: multiple providers in one process, distinguished by id.
    YokanWorld w;
    yokan::ProviderConfig c1;
    c1.db_name = "db1";
    yokan::ProviderConfig c2;
    c2.db_name = "db2";
    yokan::Provider p1{w.server, 1, c1};
    yokan::Provider p2{w.server, 2, c2};
    yokan::Database db1{w.client, "sim://server", 1};
    yokan::Database db2{w.client, "sim://server", 2};
    ASSERT_TRUE(db1.put("k", "from-db1").ok());
    ASSERT_TRUE(db2.put("k", "from-db2").ok());
    EXPECT_EQ(*db1.get("k"), "from-db1");
    EXPECT_EQ(*db2.get("k"), "from-db2");
}

TEST(Yokan, VirtualDatabaseReplicatesTransparently) {
    // §7 Obs. 10: a "virtual database" forwards to N real databases; the
    // client cannot tell the difference.
    auto fabric = mercury::Fabric::create();
    auto n1 = margo::Instance::create(fabric, "sim://n1").value();
    auto n2 = margo::Instance::create(fabric, "sim://n2").value();
    auto front = margo::Instance::create(fabric, "sim://front").value();
    auto client = margo::Instance::create(fabric, "sim://client").value();
    yokan::Provider real1{n1, 1, {}};
    yokan::Provider real2{n2, 1, {}};
    yokan::ProviderConfig vc;
    vc.db_name = "virtual";
    vc.targets = {"yokan:1@sim://n1", "yokan:1@sim://n2"};
    yokan::Provider virt{front, 9, vc};

    yokan::Database db{client, "sim://front", 9};
    ASSERT_TRUE(db.put("replicated", "data").ok());
    EXPECT_EQ(*db.get("replicated"), "data");
    // Both replicas actually hold the pair.
    yokan::Database d1{client, "sim://n1", 1}, d2{client, "sim://n2", 1};
    EXPECT_EQ(*d1.get("replicated"), "data");
    EXPECT_EQ(*d2.get("replicated"), "data");
    // Kill one replica: reads still succeed through the other.
    n1->shutdown();
    EXPECT_EQ(*db.get("replicated"), "data");
    EXPECT_EQ(*db.count(), 1u);
    // Writes now fail (strict N-way replication).
    EXPECT_FALSE(db.put("new", "x").ok());
    client->shutdown();
    front->shutdown();
    n2->shutdown();
}

TEST(Yokan, DumpAndLoadStore) {
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    for (int i = 0; i < 300; ++i)
        ASSERT_TRUE(db.put("key" + std::to_string(i), std::string(50, 'v')).ok());
    auto store = remi::SimFileStore::for_node("sim://server");
    ASSERT_TRUE(provider.dump_to_store(*store).ok());
    // 300 pairs / 128 per file = 3 files.
    EXPECT_EQ(store->list(provider.root()).size(), 3u);
    // Wipe and reload.
    provider.backend()->clear();
    EXPECT_EQ(*db.count(), 0u);
    ASSERT_TRUE(provider.load_from_store(*store).ok());
    EXPECT_EQ(*db.count(), 300u);
    EXPECT_EQ(*db.get("key123"), std::string(50, 'v'));
}

TEST(Yokan, MigrationViaRemi) {
    YokanWorld w;
    auto dst = margo::Instance::create(w.fabric, "sim://dst").value();
    remi::Provider remi_dst{dst, yokan::Provider::k_default_remi_provider_id};
    yokan::Provider src_provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    for (int i = 0; i < 200; ++i)
        ASSERT_TRUE(db.put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    auto opts = json::Value::object();
    opts["method"] = "chunks";
    ASSERT_TRUE(src_provider.migrate_data("sim://dst", opts).ok());
    // Destination provider (fresh, same db name) re-attaches to the files.
    yokan::Provider dst_provider{dst, 3, {}};
    yokan::Database dst_db{w.client, "sim://dst", 3};
    EXPECT_EQ(*dst_db.count(), 200u);
    EXPECT_EQ(*dst_db.get("k42"), "v42");
    dst->shutdown();
}

TEST(Yokan, CheckpointRestoreViaPfs) {
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    ASSERT_TRUE(db.put("a", "1").ok());
    ASSERT_TRUE(provider.checkpoint_data("/ckpt/yokan-test").ok());
    ASSERT_TRUE(db.put("b", "2").ok());
    ASSERT_TRUE(provider.restore_data("/ckpt/yokan-test").ok());
    EXPECT_EQ(*db.count(), 1u);
    EXPECT_TRUE(*db.exists("a"));
    EXPECT_FALSE(*db.exists("b"));
}

TEST(Yokan, BedrockModuleLifecycle) {
    yokan::register_module();
    remi::register_module();
    remi::SimFileStore::destroy_node("sim://bn1");
    remi::SimFileStore::destroy_node("sim://bn2");
    auto fabric = mercury::Fabric::create();
    auto cfg = json::Value::parse(R"({
      "libraries": {"yokan": "libyokan.so", "remi": "libremi.so"},
      "providers": [
        {"name": "remi", "type": "remi", "provider_id": 1},
        {"name": "kv", "type": "yokan", "provider_id": 7,
         "config": {"name": "mydb", "backend": "map"},
         "dependencies": {"remi": "remi"}}
      ]
    })").value();
    auto n1 = bedrock::Process::spawn(fabric, "sim://bn1", cfg).value();
    auto n2 = bedrock::Process::spawn(fabric, "sim://bn2", cfg).value();
    auto client = margo::Instance::create(fabric, "sim://client").value();
    yokan::Database db{client, "sim://bn1", 7};
    for (int i = 0; i < 50; ++i)
        ASSERT_TRUE(db.put("k" + std::to_string(i), "v").ok());
    // Bedrock-managed migration (§6 Obs. 5): n1's kv moves to n2... but n2
    // already has a yokan provider with id 7; stop it first via bedrock.
    ASSERT_TRUE(n2->stop_provider("kv").ok());
    bedrock::Client bc{client};
    auto h1 = bc.makeServiceHandle("sim://bn1");
    ASSERT_TRUE(h1.migrateProvider("kv", "sim://bn2").ok());
    EXPECT_FALSE(n1->has_provider("kv"));
    EXPECT_TRUE(n2->has_provider("kv"));
    yokan::Database db2{client, "sim://bn2", 7};
    EXPECT_EQ(*db2.count(), 50u);
    // Bedrock-managed checkpoint/restore (§7 Obs. 9).
    auto h2 = bc.makeServiceHandle("sim://bn2");
    ASSERT_TRUE(h2.checkpointProvider("kv", "/pfs/bedrock-yokan").ok());
    ASSERT_TRUE(db2.erase("k0").ok());
    ASSERT_TRUE(h2.restoreProvider("kv", "/pfs/bedrock-yokan").ok());
    EXPECT_TRUE(*db2.exists("k0"));
    client->shutdown();
    n1->shutdown();
    n2->shutdown();
}

TEST(Yokan, ExtendedOperations) {
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 10; ++i)
        pairs.emplace_back("key" + std::to_string(i), "value" + std::to_string(i));
    ASSERT_TRUE(db.put_multi(pairs).ok());
    // size_bytes reflects keys + values.
    auto bytes = db.size_bytes();
    ASSERT_TRUE(bytes.has_value());
    std::uint64_t expected = 0;
    for (auto& [k, v] : pairs) expected += k.size() + v.size();
    EXPECT_EQ(*bytes, expected);
    // list_keyvals returns pairs, paginated.
    auto kvs = db.list_keyvals("", "key", 3);
    ASSERT_TRUE(kvs.has_value());
    ASSERT_EQ(kvs->size(), 3u);
    EXPECT_EQ((*kvs)[0].first, "key0");
    EXPECT_EQ((*kvs)[0].second, "value0");
    // erase_multi counts only the keys that existed.
    auto erased = db.erase_multi({"key0", "key1", "ghost"});
    ASSERT_TRUE(erased.has_value());
    EXPECT_EQ(*erased, 2u);
    EXPECT_EQ(*db.count(), 8u);
}

TEST(Yokan, ExtendedOperationsOnVirtualDatabase) {
    auto fabric = mercury::Fabric::create();
    auto n1 = margo::Instance::create(fabric, "sim://vx1").value();
    auto front = margo::Instance::create(fabric, "sim://vxf").value();
    auto client = margo::Instance::create(fabric, "sim://vxc").value();
    remi::SimFileStore::destroy_node("sim://vx1");
    yokan::Provider real{n1, 1, {}};
    yokan::ProviderConfig vc;
    vc.targets = {"yokan:1@sim://vx1"};
    yokan::Provider virt{front, 9, vc};
    yokan::Database db{client, "sim://vxf", 9};
    ASSERT_TRUE(db.put_multi({{"a", "1"}, {"b", "2"}}).ok());
    EXPECT_EQ(db.list_keyvals("", "", 0)->size(), 2u);
    EXPECT_EQ(*db.size_bytes(), 4u);
    EXPECT_EQ(*db.erase_multi({"a", "zz"}), 1u);
    client->shutdown();
    front->shutdown();
    n1->shutdown();
}

// ---------------------------------------------------------------------------
// Batched RPC pipeline (op coalescing, vectored handlers, auto-batcher)
// ---------------------------------------------------------------------------

TEST(YokanBatch, LargeBatchRidesBulkTransfer) {
    // A batch whose payload reaches k_bulk_threshold switches to the
    // put_multi_bulk path: pairs are packed into one buffer and pulled over
    // RDMA. The result must be indistinguishable from the inline path.
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 64; ++i)
        pairs.emplace_back("bulk" + std::to_string(i), std::string(1024, 'a' + i % 26));
    ASSERT_GE(pairs.size() * 1024, yokan::Database::k_bulk_threshold);
    ASSERT_TRUE(db.put_multi(pairs).ok());
    EXPECT_EQ(*db.count(), 64u);
    EXPECT_EQ(*db.get("bulk63"), std::string(1024, 'a' + 63 % 26));
    // Every op in the batch counted individually despite the single RPC.
    EXPECT_EQ(w.server->metrics()->counter("yokan_puts_total").value(), 64u);
    EXPECT_EQ(w.server->metrics()->counter("margo_batch_ops_total").value(), 64u);
}

TEST(YokanBatch, ForgedBulkSizeRejectedBeforeAllocation) {
    // The handle names a real 8-byte region but claims 2^63 bytes: the
    // provider must answer InvalidArgument instead of sizing a buffer by
    // the claim (which would throw on the handler ULT and end the process).
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    char exposed[8] = {};
    auto handle = w.client->expose(exposed, sizeof exposed, /*writable=*/false);
    handle.size = 1ull << 63;
    margo::ForwardOptions opts;
    opts.provider_id = 3;
    auto r = w.client->forward("sim://server", "yokan/put_multi_bulk",
                               mercury::pack(std::uint64_t{0}, handle), opts);
    w.client->unexpose(handle.id);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, Error::Code::InvalidArgument);
    EXPECT_EQ(*db.count(), 0u);
    // The provider still serves a well-formed request.
    ASSERT_TRUE(db.put("after", "ok").ok());
    EXPECT_EQ(*db.count(), 1u);
}

TEST(YokanBatch, PutMultiAsyncOverlapsBatches) {
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    std::vector<margo::AsyncRequest> inflight;
    for (int b = 0; b < 4; ++b) {
        std::vector<std::pair<std::string, std::string>> pairs;
        for (int i = 0; i < 8; ++i)
            pairs.emplace_back("b" + std::to_string(b) + "k" + std::to_string(i), "v");
        inflight.push_back(db.put_multi_async(pairs));
    }
    for (auto& req : inflight) {
        auto r = req.wait_unpack<std::uint64_t, bool>();
        ASSERT_TRUE(r.has_value()) << r.error().message;
    }
    EXPECT_EQ(*db.count(), 32u);
}

TEST(YokanBatch, BatcherFlushesOnOpCount) {
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    yokan::Batcher::Options opts;
    opts.max_ops = 8;
    yokan::Batcher batcher{db, opts};
    for (int i = 0; i < 20; ++i)
        batcher.put("k" + std::to_string(i), "v" + std::to_string(i));
    ASSERT_TRUE(batcher.drain().ok());
    EXPECT_EQ(*db.count(), 20u);
    EXPECT_EQ(*db.get("k19"), "v19");
    auto stats = batcher.stats();
    EXPECT_EQ(stats.ops_enqueued, 20u);
    EXPECT_GE(stats.batches_sent, 3u); // 8 + 8 + 4
    EXPECT_LE(stats.largest_batch, 8u);
}

TEST(YokanBatch, BatcherTimerFlushesPartialBatch) {
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    yokan::Batcher::Options opts;
    opts.max_ops = 1000; // never reached
    opts.max_delay = std::chrono::milliseconds(20);
    yokan::Batcher batcher{db, opts};
    batcher.put("lonely", "op");
    // No flush()/drain(): the delay timer must push the batch out.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
        if (*db.count() == 1u) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(*db.count(), 1u);
    EXPECT_EQ(*db.get("lonely"), "op");
    ASSERT_TRUE(batcher.drain().ok());
}

TEST(YokanBatch, BatcherDestructorDrains) {
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    {
        yokan::Batcher batcher{db};
        for (int i = 0; i < 5; ++i) batcher.put("d" + std::to_string(i), "v");
    }
    EXPECT_EQ(*db.count(), 5u);
}

TEST(YokanBatch, VirtualDatabaseForwardsWholeBatch) {
    // A batched write through a virtual database must reach every replica
    // as one put_multi per replica, not one RPC per pair.
    auto fabric = mercury::Fabric::create();
    auto n1 = margo::Instance::create(fabric, "sim://n1").value();
    auto n2 = margo::Instance::create(fabric, "sim://n2").value();
    auto front = margo::Instance::create(fabric, "sim://front").value();
    auto client = margo::Instance::create(fabric, "sim://client").value();
    yokan::Provider real1{n1, 1, {}};
    yokan::Provider real2{n2, 1, {}};
    yokan::ProviderConfig vc;
    vc.db_name = "virtual";
    vc.targets = {"yokan:1@sim://n1", "yokan:1@sim://n2"};
    yokan::Provider virt{front, 9, vc};
    yokan::Database db{client, "sim://front", 9};

    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 10; ++i) pairs.emplace_back("vk" + std::to_string(i), "v");
    ASSERT_TRUE(db.put_multi(pairs).ok());
    yokan::Database d1{client, "sim://n1", 1}, d2{client, "sim://n2", 1};
    EXPECT_EQ(*d1.count(), 10u);
    EXPECT_EQ(*d2.count(), 10u);
    auto values = db.get_multi({"vk0", "vk9", "gone"});
    ASSERT_TRUE(values.has_value());
    EXPECT_TRUE((*values)[0].has_value());
    EXPECT_TRUE((*values)[1].has_value());
    EXPECT_FALSE((*values)[2].has_value());
    client->shutdown();
    front->shutdown();
    n2->shutdown();
    n1->shutdown();
}

// ---------------------------------------------------------------------------
// Epoch guard (the layout plane's piggybacked invalidation, §6) and the
// split/merge data-movement primitives.
// ---------------------------------------------------------------------------

TEST(YokanEpoch, StaleEpochRejectedWithPiggybackedLayout) {
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    provider.set_epoch(7, "opaque-layout-bytes");
    auto ctx = std::make_shared<yokan::EpochContext>();
    ctx->epoch = 3; // behind the provider
    yokan::Database db{w.client, "sim://server", 3, ctx};
    auto st = db.put("k", "v");
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, Error::Code::Conflict);
    std::uint64_t hint_epoch = 0;
    std::string hint_blob;
    ASSERT_TRUE(yokan::decode_stale_epoch(st.error(), hint_epoch, hint_blob));
    EXPECT_EQ(hint_epoch, 7u);
    EXPECT_EQ(hint_blob, "opaque-layout-bytes");
    EXPECT_EQ(w.server->metrics()->counter("yokan_stale_epoch_rejections_total").value(), 1u);
    // Catching up (as a client would from the hint) makes the op succeed and
    // the reply's piggybacked epoch is observed.
    ctx->epoch = hint_epoch;
    ASSERT_TRUE(db.put("k", "v").ok());
    EXPECT_EQ(ctx->observed.load(), 7u);
}

TEST(YokanEpoch, EpochZeroBypassesGuardBothWays) {
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    // Provider has no epoch yet: any client epoch passes.
    auto ctx = std::make_shared<yokan::EpochContext>();
    ctx->epoch = 42;
    yokan::Database guarded{w.client, "sim://server", 3, ctx};
    EXPECT_TRUE(guarded.put("a", "1").ok());
    // Provider gains an epoch: epoch-less (plain) clients still pass.
    provider.set_epoch(9, "");
    yokan::Database plain{w.client, "sim://server", 3};
    EXPECT_TRUE(plain.put("b", "2").ok());
    EXPECT_EQ(*plain.get("a"), "1");
    // A *newer* client epoch than the provider's also passes (the provider
    // will hear the new layout soon; rejecting would livelock the client).
    ctx->epoch = 11;
    EXPECT_TRUE(guarded.put("c", "3").ok());
}

TEST(YokanEpoch, UpdateEpochRpcAndRegistryFanout) {
    YokanWorld w;
    yokan::Provider p1{w.server, 3, {}};
    yokan::Provider p2{w.server, 4, {}};
    yokan::Database db{w.client, "sim://server", 3};
    ASSERT_TRUE(db.update_epoch(5, "blob-v5").ok());
    EXPECT_EQ(p1.epoch(), 5u);
    EXPECT_EQ(p2.epoch(), 0u); // direct RPC targets one provider
    // The registry fan-out (the SSG payload callback's path) reaches every
    // provider of the instance.
    yokan::apply_epoch_update(w.server, 6, "blob-v6");
    EXPECT_EQ(p1.epoch(), 6u);
    EXPECT_EQ(p2.epoch(), 6u);
    // Older epochs never regress a provider.
    yokan::apply_epoch_update(w.server, 2, "old");
    EXPECT_EQ(p1.epoch(), 6u);
}

TEST(YokanSplit, ExtractEraseAbsorbMoveRangeBetweenProviders) {
    YokanWorld w;
    remi::SimFileStore::destroy_node("sim://server"); // fresh staging area
    yokan::ProviderConfig pc, cc;
    pc.db_name = "parent";
    cc.db_name = "child";
    yokan::Provider parent{w.server, 3, pc};
    yokan::Provider child{w.server, 4, cc};
    yokan::Database pdb{w.client, "sim://server", 3};
    yokan::Database cdb{w.client, "sim://server", 4};
    const int n = 200;
    for (int i = 0; i < n; ++i)
        ASSERT_TRUE(pdb.put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
    // Count keys hashing into the upper half of the ring.
    const std::uint64_t mid = std::uint64_t{1} << 63;
    std::size_t upper = 0;
    for (int i = 0; i < n; ++i)
        if (common::fnv1a64("key" + std::to_string(i)) >= mid) ++upper;
    ASSERT_GT(upper, 0u);
    // extract (copy) -> absorb -> erase: the split_shard sequence.
    auto ex = pdb.extract_range(mid, 0, "/yokan/child/", "seed", "sim://server");
    ASSERT_TRUE(ex.has_value()) << ex.error().message;
    EXPECT_EQ(*ex, upper);
    auto ab = cdb.absorb("seed");
    ASSERT_TRUE(ab.has_value()) << ab.error().message;
    EXPECT_EQ(*ab, upper);
    auto er = pdb.erase_range(mid, 0);
    ASSERT_TRUE(er.has_value()) << er.error().message;
    EXPECT_EQ(*er, upper);
    EXPECT_EQ(*cdb.count(), upper);
    EXPECT_EQ(*pdb.count(), n - upper);
    // Every key readable from exactly the side its hash says.
    for (int i = 0; i < n; ++i) {
        const std::string k = "key" + std::to_string(i);
        auto& owner = common::fnv1a64(k) >= mid ? cdb : pdb;
        EXPECT_EQ(*owner.get(k), "v" + std::to_string(i)) << k;
    }
}

TEST(Yokan, MalformedPayloadsNeverReachTheBackend) {
    YokanWorld w;
    yokan::Provider provider{w.server, 3, {}};
    yokan::Database db{w.client, "sim://server", 3};
    ASSERT_TRUE(db.put("kept", "value").ok());
    const std::uint64_t e = 0;
    const std::string k = "k", v = "v";
    const std::vector<std::string> keys{"k"};
    const std::vector<std::pair<std::string, std::string>> pairs{{"k", "v"}};
    test::expect_bad_payload_rejected(
        *w.client, "sim://server", 3,
        {{"yokan/put", mercury::pack(e, k, v)},
         {"yokan/get", mercury::pack(e, k)},
         {"yokan/exists", mercury::pack(e, k)},
         {"yokan/erase", mercury::pack(e, k)},
         {"yokan/count", mercury::pack(e)},
         {"yokan/put_multi", mercury::pack(e, pairs)},
         {"yokan/put_multi_bulk", mercury::pack(e, mercury::BulkHandle{"sim://client", 1, 8})},
         {"yokan/get_multi", mercury::pack(e, keys)},
         {"yokan/list_keys", mercury::pack(e, k, k, std::uint64_t{0})},
         {"yokan/erase_multi", mercury::pack(e, keys)},
         {"yokan/list_keyvals", mercury::pack(e, k, k, std::uint64_t{0})},
         {"yokan/size_bytes", mercury::pack(e)},
         {"yokan/update_epoch", mercury::pack(std::uint64_t{7}, std::string("blob"))},
         {"yokan/extract_range",
          mercury::pack(e, e, std::string("/dst/"), std::string("p"), std::string("sim://dst"),
                        std::string("chunks"), std::uint32_t{1})},
         {"yokan/erase_range", mercury::pack(e, e)},
         {"yokan/absorb", mercury::pack(std::string("p"))}});
    // Nothing reached the backend or the epoch guard.
    EXPECT_EQ(*db.count(), 1u);
    EXPECT_EQ(*db.get("kept"), "value");
    EXPECT_EQ(provider.epoch(), 0u);
    // The provider still serves well-formed requests.
    ASSERT_TRUE(db.put("after", "ok").ok());
    EXPECT_EQ(*db.count(), 2u);
}
