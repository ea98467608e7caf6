// Tests for Warabi (blob storage): region lifecycle, inline and bulk I/O,
// persistence, the §3.2 composition example (datasets = Yokan metadata +
// Warabi data), and the Bedrock module.
#include "bedrock/process.hpp"
#include "malformed_payload.hpp"
#include "warabi/provider.hpp"
#include "yokan/provider.hpp"

#include <gtest/gtest.h>

#include <limits>

using namespace mochi;

namespace {

struct WarabiWorld {
    std::shared_ptr<mercury::Fabric> fabric = mercury::Fabric::create();
    margo::InstancePtr server;
    margo::InstancePtr client;
    std::unique_ptr<warabi::Provider> provider;

    WarabiWorld() {
        remi::SimFileStore::destroy_node("sim://server");
        server = margo::Instance::create(fabric, "sim://server").value();
        client = margo::Instance::create(fabric, "sim://client").value();
        provider = std::make_unique<warabi::Provider>(server, 4);
    }
    ~WarabiWorld() {
        provider.reset();
        client->shutdown();
        server->shutdown();
    }
};

} // namespace

TEST(Warabi, RegionLifecycle) {
    WarabiWorld w;
    warabi::TargetHandle target{w.client, "sim://server", 4};
    auto region = target.create(64);
    ASSERT_TRUE(region.has_value());
    EXPECT_EQ(*target.region_size(*region), 64u);
    ASSERT_TRUE(target.write(*region, 8, "hello warabi").ok());
    EXPECT_EQ(*target.read(*region, 8, 12), "hello warabi");
    EXPECT_EQ(*target.read(*region, 0, 1), std::string(1, '\0'));
    ASSERT_TRUE(target.erase(*region).ok());
    EXPECT_FALSE(target.read(*region, 0, 1).has_value());
    EXPECT_FALSE(target.erase(*region).ok());
}

TEST(Warabi, BoundsChecked) {
    WarabiWorld w;
    warabi::TargetHandle target{w.client, "sim://server", 4};
    auto region = *target.create(16);
    EXPECT_FALSE(target.write(region, 10, "too-long-for-16").ok());
    EXPECT_FALSE(target.read(region, 10, 10).has_value());
    EXPECT_FALSE(target.write(999, 0, "x").ok());
    // Offsets near 2^64 must not wrap the range check into a std::string
    // exception on the handler ULT (which would terminate the process), and
    // a region size std::string cannot hold is rejected, not thrown.
    constexpr auto max = std::numeric_limits<std::uint64_t>::max();
    EXPECT_FALSE(target.write(region, max, "xy").ok());
    EXPECT_FALSE(target.read(region, max, 2).has_value());
    EXPECT_FALSE(target.write_multi(region, {{0, "ok"}, {max, "xy"}}).ok());
    char buf[4] = {};
    EXPECT_FALSE(target.write_bulk(region, max - 1, buf, sizeof buf).ok());
    EXPECT_FALSE(target.read_bulk(region, max - 1, buf, sizeof buf).ok());
    auto huge = target.create(max);
    ASSERT_FALSE(huge.has_value());
    EXPECT_EQ(huge.error().code, Error::Code::InvalidArgument);
    // A forged bulk handle claims far more bytes than its owner exposed.
    // The provider must reject it before sizing a buffer by the claim
    // (std::string would throw std::length_error on the handler ULT).
    char exposed[4] = {'a', 'b', 'c', 'd'};
    auto handle = w.client->expose(exposed, sizeof exposed, /*writable=*/false);
    handle.size = 1ull << 63;
    margo::ForwardOptions opts;
    opts.provider_id = 4;
    for (const auto& [rpc, payload] :
         {std::pair{"warabi/write_bulk", mercury::pack(region, std::uint64_t{0}, handle)},
          std::pair{"warabi/write_multi_bulk",
                    mercury::pack(region, std::vector<std::uint64_t>{0}, handle)}}) {
        auto r = w.client->forward("sim://server", rpc, payload, opts);
        ASSERT_FALSE(r.has_value()) << rpc;
        EXPECT_EQ(r.error().code, Error::Code::InvalidArgument) << rpc;
    }
    w.client->unexpose(handle.id);
    // The provider survived and nothing was written.
    EXPECT_EQ(*target.read(region, 0, 2), std::string(2, '\0'));
    ASSERT_TRUE(target.write_bulk(region, 0, buf, 2).ok());
}

TEST(Warabi, BulkReadWrite) {
    WarabiWorld w;
    warabi::TargetHandle target{w.client, "sim://server", 4};
    auto region = *target.create(1 << 20);
    std::string data(1 << 20, 'B');
    data[12345] = 'x';
    ASSERT_TRUE(target.write_bulk(region, 0, data.data(), data.size()).ok());
    std::string back(1 << 20, '\0');
    ASSERT_TRUE(target.read_bulk(region, 0, back.data(), back.size()).ok());
    EXPECT_EQ(back, data);
    // Bulk out of bounds rejected.
    EXPECT_FALSE(target.write_bulk(region, 1, data.data(), data.size()).ok());
}

TEST(Warabi, DumpAndLoad) {
    WarabiWorld w;
    warabi::TargetHandle target{w.client, "sim://server", 4};
    auto r1 = *target.create(8);
    auto r2 = *target.create(8);
    ASSERT_TRUE(target.write(r1, 0, "11111111").ok());
    ASSERT_TRUE(target.write(r2, 0, "22222222").ok());
    auto store = remi::SimFileStore::for_node("sim://server");
    ASSERT_TRUE(w.provider->dump_to_store(*store).ok());
    EXPECT_EQ(store->list(w.provider->root()).size(), 2u);
    // A fresh provider in a fresh process re-attaches to the files.
    w.provider.reset();
    w.provider = std::make_unique<warabi::Provider>(w.server, 4);
    EXPECT_EQ(*target.read(r1, 0, 8), "11111111");
    EXPECT_EQ(*target.read(r2, 0, 8), "22222222");
    // New allocations don't collide with restored region ids.
    auto r3 = *target.create(4);
    EXPECT_GT(r3, r2);
}

TEST(Warabi, DatasetCompositionExample) {
    // §3.2: "a Mochi component M managing datasets by storing their metadata
    // in a key-value store (Yokan) and their data in a blob storage target
    // (Warabi)". Composition through resource handles.
    WarabiWorld w;
    yokan::Provider meta_provider{w.server, 5, {}};
    yokan::Database metadata{w.client, "sim://server", 5};
    warabi::TargetHandle data{w.client, "sim://server", 4};

    auto put_dataset = [&](const std::string& name,
                           const std::string& content) -> Status {
        auto region = data.create(content.size());
        if (!region) return region.error();
        if (auto st = data.write(*region, 0, content); !st.ok()) return st;
        auto meta = json::Value::object();
        meta["region"] = *region;
        meta["size"] = content.size();
        return metadata.put("dataset/" + name, meta.dump());
    };
    auto get_dataset = [&](const std::string& name) -> Expected<std::string> {
        auto meta_str = metadata.get("dataset/" + name);
        if (!meta_str) return std::move(meta_str).error();
        auto meta = json::Value::parse(*meta_str);
        if (!meta) return meta.error();
        return data.read(static_cast<std::uint64_t>((*meta)["region"].as_integer()), 0,
                         static_cast<std::uint64_t>((*meta)["size"].as_integer()));
    };

    ASSERT_TRUE(put_dataset("particles", "x=1,y=2,z=3").ok());
    ASSERT_TRUE(put_dataset("energies", "1.5 2.5 3.5").ok());
    EXPECT_EQ(*get_dataset("particles"), "x=1,y=2,z=3");
    EXPECT_EQ(*get_dataset("energies"), "1.5 2.5 3.5");
    EXPECT_FALSE(get_dataset("missing").has_value());
    auto names = metadata.list_keys("", "dataset/", 0);
    ASSERT_TRUE(names.has_value());
    EXPECT_EQ(names->size(), 2u);
}

TEST(Warabi, BedrockModule) {
    warabi::register_module();
    remi::SimFileStore::destroy_node("sim://wb1");
    auto fabric = mercury::Fabric::create();
    auto cfg = json::Value::parse(R"({
      "libraries": {"warabi": "libwarabi.so"},
      "providers": [{"name": "blobs", "type": "warabi", "provider_id": 2,
                      "config": {"name": "t1", "inline_threshold": 8192}}]
    })").value();
    auto proc = bedrock::Process::spawn(fabric, "sim://wb1", cfg).value();
    auto client = margo::Instance::create(fabric, "sim://client").value();
    warabi::TargetHandle target{client, "sim://wb1", 2};
    auto region = target.create(16);
    ASSERT_TRUE(region.has_value());
    ASSERT_TRUE(target.write(*region, 0, "bedrock-managed!").ok());
    EXPECT_EQ(*target.read(*region, 0, 16), "bedrock-managed!");
    // The provider's live config is reflected in the process config.
    auto pcfg = proc->config();
    bool found = false;
    for (const auto& p : pcfg["providers"].as_array()) {
        if (p["name"].as_string() == "blobs") {
            EXPECT_EQ(p["config"]["inline_threshold"].as_integer(), 8192);
            EXPECT_EQ(p["config"]["regions"].as_integer(), 1);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    client->shutdown();
    proc->shutdown();
}

// ---------------------------------------------------------------------------
// Batched writes (write_multi)
// ---------------------------------------------------------------------------

TEST(WarabiBatch, WriteMultiInline) {
    WarabiWorld w;
    warabi::TargetHandle target{w.client, "sim://server", 4};
    auto region = *target.create(256);
    std::vector<std::pair<std::uint64_t, std::string>> writes = {
        {0, "head"}, {100, "middle"}, {250, "tail__"}};
    ASSERT_TRUE(target.write_multi(region, writes).ok());
    EXPECT_EQ(*target.read(region, 0, 4), "head");
    EXPECT_EQ(*target.read(region, 100, 6), "middle");
    EXPECT_EQ(*target.read(region, 250, 6), "tail__");
    // Per-op accounting despite the single RPC.
    EXPECT_EQ(w.server->metrics()->counter("margo_batch_ops_total").value(), 3u);
    EXPECT_EQ(w.server->metrics()->counter("warabi_bytes_written_total").value(), 16u);
}

TEST(WarabiBatch, WriteMultiBulkPath) {
    // Total payload over k_bulk_threshold: data travels as one segment
    // buffer over RDMA, offsets inline.
    WarabiWorld w;
    warabi::TargetHandle target{w.client, "sim://server", 4};
    constexpr std::size_t k_chunk = 4096, k_n = 8;
    auto region = *target.create(k_chunk * k_n);
    std::vector<std::pair<std::uint64_t, std::string>> writes;
    for (std::size_t i = 0; i < k_n; ++i)
        writes.emplace_back(i * k_chunk, std::string(k_chunk, char('A' + i)));
    ASSERT_GE(k_chunk * k_n, warabi::TargetHandle::k_bulk_threshold);
    ASSERT_TRUE(target.write_multi(region, writes).ok());
    for (std::size_t i = 0; i < k_n; ++i)
        EXPECT_EQ(*target.read(region, i * k_chunk, k_chunk),
                  std::string(k_chunk, char('A' + i)));
    EXPECT_EQ(w.server->metrics()->counter("margo_batch_ops_total").value(), k_n);
}

TEST(WarabiBatch, WriteMultiValidatesWholeBatchBeforeApplying) {
    // One out-of-bounds op must fail the batch atomically: no earlier op in
    // the same batch may have landed.
    WarabiWorld w;
    warabi::TargetHandle target{w.client, "sim://server", 4};
    auto region = *target.create(32);
    ASSERT_TRUE(target.write(region, 0, std::string(32, '.')).ok());
    std::vector<std::pair<std::uint64_t, std::string>> writes = {
        {0, "valid"}, {30, "out-of-bounds"}};
    auto st = target.write_multi(region, writes);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, Error::Code::InvalidArgument);
    EXPECT_EQ(*target.read(region, 0, 5), "....."); // first op did not land
    // Unknown region rejected too.
    EXPECT_FALSE(target.write_multi(999, {{0, "x"}}).ok());
    // Empty batch is a no-op success without any RPC.
    EXPECT_TRUE(target.write_multi(region, {}).ok());
}

TEST(Warabi, MalformedPayloadsNeverReachTheTarget) {
    WarabiWorld w;
    warabi::TargetHandle target{w.client, "sim://server", 4};
    auto region = *target.create(16);
    ASSERT_TRUE(target.write(region, 0, "0123456789abcdef").ok());
    const std::uint64_t r = region, zero = 0;
    const mercury::BulkHandle bulk{"sim://client", 1, 4};
    const std::vector<std::pair<std::uint64_t, std::string>> writes{{0, "xy"}};
    test::expect_bad_payload_rejected(
        *w.client, "sim://server", 4,
        {{"warabi/create", mercury::pack(std::uint64_t{8})},
         {"warabi/write", mercury::pack(r, zero, std::string("xy"))},
         {"warabi/read", mercury::pack(r, zero, std::uint64_t{4})},
         {"warabi/erase", mercury::pack(r)},
         {"warabi/region_size", mercury::pack(r)},
         {"warabi/write_multi", mercury::pack(r, writes)},
         {"warabi/write_multi_bulk", mercury::pack(r, std::vector<std::uint64_t>{0}, bulk)},
         {"warabi/write_bulk", mercury::pack(r, zero, bulk)},
         {"warabi/read_bulk", mercury::pack(r, zero, bulk)}});
    // The region's contents and size are unchanged, and no region was
    // created or erased: the next id follows the first.
    EXPECT_EQ(*target.read(region, 0, 16), "0123456789abcdef");
    EXPECT_EQ(*target.region_size(region), 16u);
    auto next = target.create(4);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(*next, region + 1);
}
