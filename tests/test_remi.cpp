// Tests for REMI (§6): fileset migration via the RDMA path and the
// pipelined-chunk path, source cleanup, error handling, and the SimFileStore
// substrate itself.
#include "remi/provider.hpp"
#include "malformed_payload.hpp"

#include <gtest/gtest.h>

#include <atomic>

using namespace mochi;

namespace {

struct RemiPair {
    std::shared_ptr<mercury::Fabric> fabric = mercury::Fabric::create();
    margo::InstancePtr src;
    margo::InstancePtr dst;
    std::unique_ptr<remi::Provider> dst_provider;
    std::shared_ptr<remi::SimFileStore> src_store;
    std::shared_ptr<remi::SimFileStore> dst_store;

    RemiPair() {
        remi::SimFileStore::destroy_node("sim://src");
        remi::SimFileStore::destroy_node("sim://dst");
        src = margo::Instance::create(fabric, "sim://src").value();
        dst = margo::Instance::create(fabric, "sim://dst").value();
        dst_provider = std::make_unique<remi::Provider>(dst, 1);
        src_store = remi::SimFileStore::for_node("sim://src");
        dst_store = remi::SimFileStore::for_node("sim://dst");
    }
    ~RemiPair() {
        dst_provider.reset();
        src->shutdown();
        dst->shutdown();
    }

    void make_files(const std::string& root, int count, std::size_t size) {
        for (int i = 0; i < count; ++i) {
            char name[32];
            std::snprintf(name, sizeof name, "f%04d", i);
            std::string data(size, static_cast<char>('a' + i % 26));
            ASSERT_TRUE(src_store->write(root + name, std::move(data)).ok());
        }
    }
};

} // namespace

TEST(SimFileStore, BasicOperations) {
    remi::SimFileStore::destroy_node("sim://t");
    auto store = remi::SimFileStore::for_node("sim://t");
    EXPECT_TRUE(store->write("/a/x", "hello").ok());
    EXPECT_TRUE(store->append("/a/x", " world").ok());
    EXPECT_EQ(*store->read("/a/x"), "hello world");
    EXPECT_TRUE(store->exists("/a/x"));
    EXPECT_FALSE(store->exists("/a/y"));
    EXPECT_FALSE(store->read("/a/y").has_value());
    EXPECT_TRUE(store->write("/a/y", "2").ok());
    EXPECT_TRUE(store->write("/b/z", "3").ok());
    EXPECT_EQ(store->list("/a/").size(), 2u);
    EXPECT_EQ(store->file_count(), 3u);
    EXPECT_EQ(*store->file_size("/a/x"), 11u);
    EXPECT_EQ(store->total_bytes(), 13u);
    EXPECT_TRUE(store->remove("/a/x").ok());
    EXPECT_FALSE(store->remove("/a/x").ok());
    EXPECT_EQ(store->remove_prefix("/a/"), 1u);
    EXPECT_EQ(store->file_count(), 1u);
    EXPECT_FALSE(store->write("", "x").ok());
    // Same node address returns the same store; the PFS is shared.
    EXPECT_EQ(remi::SimFileStore::for_node("sim://t").get(), store.get());
    EXPECT_EQ(remi::SimFileStore::pfs().get(), remi::SimFileStore::pfs().get());
}

TEST(Remi, RdmaMigrationMovesFiles) {
    RemiPair pair;
    pair.make_files("/data/", 8, 1000);
    auto fileset = remi::Fileset::scan(*pair.src_store, "/data/");
    EXPECT_EQ(fileset.files.size(), 8u);
    remi::MigrationOptions opts;
    opts.method = remi::Method::Rdma;
    auto stats = remi::migrate(pair.src, pair.src_store, fileset, "sim://dst", 1, opts);
    ASSERT_TRUE(stats.has_value()) << stats.error().message;
    EXPECT_EQ(stats->files, 8u);
    EXPECT_EQ(stats->bytes, 8000u);
    EXPECT_EQ(stats->messages, 8u); // one bulk RPC per file
    // Content arrived intact; source cleaned up.
    EXPECT_EQ(pair.dst_store->list("/data/").size(), 8u);
    EXPECT_EQ(*pair.dst_store->read("/data/f0001"), std::string(1000, 'b'));
    EXPECT_TRUE(pair.src_store->list("/data/").empty());
}

TEST(Remi, ChunkMigrationPacksSmallFiles) {
    RemiPair pair;
    pair.make_files("/small/", 100, 64); // 6.4 KB total
    auto fileset = remi::Fileset::scan(*pair.src_store, "/small/");
    remi::MigrationOptions opts;
    opts.method = remi::Method::Chunks;
    opts.chunk_size = 1024; // ~16 files per chunk
    auto stats = remi::migrate(pair.src, pair.src_store, fileset, "sim://dst", 1, opts);
    ASSERT_TRUE(stats.has_value()) << stats.error().message;
    EXPECT_EQ(stats->files, 100u);
    // Packing: far fewer messages than files.
    EXPECT_LT(stats->messages, 20u);
    EXPECT_EQ(pair.dst_store->list("/small/").size(), 100u);
    EXPECT_EQ(*pair.dst_store->read("/small/f0099"), std::string(64, 'a' + 99 % 26));
}

TEST(Remi, ChunkMigrationSplitsLargeFiles) {
    RemiPair pair;
    pair.make_files("/big/", 2, 100'000);
    auto fileset = remi::Fileset::scan(*pair.src_store, "/big/");
    remi::MigrationOptions opts;
    opts.method = remi::Method::Chunks;
    opts.chunk_size = 16'384;
    auto stats = remi::migrate(pair.src, pair.src_store, fileset, "sim://dst", 1, opts);
    ASSERT_TRUE(stats.has_value()) << stats.error().message;
    EXPECT_GT(stats->messages, 10u); // files split across chunks
    EXPECT_EQ(pair.dst_store->list("/big/").size(), 2u);
    EXPECT_EQ(pair.dst_store->read("/big/f0000")->size(), 100'000u);
    EXPECT_EQ(*pair.dst_store->read("/big/f0001"), std::string(100'000, 'b'));
}

TEST(Remi, KeepSourceOption) {
    RemiPair pair;
    pair.make_files("/keep/", 4, 128);
    auto fileset = remi::Fileset::scan(*pair.src_store, "/keep/");
    remi::MigrationOptions opts;
    opts.remove_source = false;
    auto stats = remi::migrate(pair.src, pair.src_store, fileset, "sim://dst", 1, opts);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(pair.src_store->list("/keep/").size(), 4u);
    EXPECT_EQ(pair.dst_store->list("/keep/").size(), 4u);
}

TEST(Remi, MigrationToUnknownDestinationFails) {
    RemiPair pair;
    pair.make_files("/x/", 2, 32);
    auto fileset = remi::Fileset::scan(*pair.src_store, "/x/");
    auto stats = remi::migrate(pair.src, pair.src_store, fileset, "sim://ghost", 1, {});
    EXPECT_FALSE(stats.has_value());
    // Source untouched on failure.
    EXPECT_EQ(pair.src_store->list("/x/").size(), 2u);
}

TEST(Remi, MigrationToWrongProviderIdFails) {
    RemiPair pair;
    pair.make_files("/x/", 1, 32);
    auto fileset = remi::Fileset::scan(*pair.src_store, "/x/");
    auto stats = remi::migrate(pair.src, pair.src_store, fileset, "sim://dst", 42, {});
    EXPECT_FALSE(stats.has_value());
}

TEST(Remi, EmptyFilesetIsANoop) {
    RemiPair pair;
    auto fileset = remi::Fileset::scan(*pair.src_store, "/nothing/");
    auto stats = remi::migrate(pair.src, pair.src_store, fileset, "sim://dst", 1, {});
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->files, 0u);
    EXPECT_EQ(stats->bytes, 0u);
}

TEST(Remi, BothMethodsProduceIdenticalResults) {
    for (auto method : {remi::Method::Rdma, remi::Method::Chunks}) {
        RemiPair pair;
        pair.make_files("/same/", 17, 777);
        auto fileset = remi::Fileset::scan(*pair.src_store, "/same/");
        remi::MigrationOptions opts;
        opts.method = method;
        opts.chunk_size = 2048;
        auto stats = remi::migrate(pair.src, pair.src_store, fileset, "sim://dst", 1, opts);
        ASSERT_TRUE(stats.has_value());
        auto files = pair.dst_store->list("/same/");
        ASSERT_EQ(files.size(), 17u);
        for (int i = 0; i < 17; ++i) {
            char name[32];
            std::snprintf(name, sizeof name, "/same/f%04d", i);
            EXPECT_EQ(*pair.dst_store->read(name), std::string(777, 'a' + i % 26));
        }
    }
}

namespace {

/// Mirror of the provider's wire format for "remi/write_chunk" (structural
/// serialization: field order and types must match).
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

} // namespace

TEST(Remi, MidPipelineFailureDoesNotShipLaterChunks) {
    // Regression: when a chunk RPC fails mid-pipeline, a worker waiting on
    // the failed chunk's completion must abort — not ship its own chunk,
    // which would append a continuation onto a file whose earlier piece
    // never landed.
    auto fabric = mercury::Fabric::create();
    remi::SimFileStore::destroy_node("sim://src");
    auto src = margo::Instance::create(fabric, "sim://src").value();
    auto dst = margo::Instance::create(fabric, "sim://dst").value();
    auto src_store = remi::SimFileStore::for_node("sim://src");

    // Stand-in destination provider: fails the chunk starting at offset
    // 2000 and accepts everything else, tracking append contiguity.
    std::mutex m;
    std::map<std::string, std::uint64_t> accepted; // path -> bytes landed
    bool out_of_order = false;
    ASSERT_TRUE(dst->register_rpc("remi/write_chunk", 1,
                                  [&](const margo::Request& req) {
                                      std::vector<WireChunkEntry> entries;
                                      ASSERT_TRUE(req.unpack(entries));
                                      std::lock_guard lk{m};
                                      if (!entries.empty() && entries.front().offset == 2000) {
                                          req.respond_error(
                                              Error{Error::Code::Generic, "injected failure"});
                                          return;
                                      }
                                      for (const auto& e : entries) {
                                          if (e.offset != accepted[e.path]) out_of_order = true;
                                          accepted[e.path] += e.data.size();
                                      }
                                      req.respond_values(true);
                                  })
                    .has_value());

    // One 10-chunk file: every chunk but the first is a continuation, so the
    // pipeline serializes on the done[] chain that the failure breaks.
    ASSERT_TRUE(src_store->write("/big/f0", std::string(10'000, 'x')).ok());
    auto fileset = remi::Fileset::scan(*src_store, "/big/");
    remi::MigrationOptions opts;
    opts.method = remi::Method::Chunks;
    opts.chunk_size = 1000;
    opts.pipeline_width = 2;
    auto stats = remi::migrate(src, src_store, fileset, "sim://dst", 1, opts);
    ASSERT_FALSE(stats.has_value());
    EXPECT_FALSE(out_of_order) << "a chunk landed after an earlier one failed";
    {
        std::lock_guard lk{m};
        EXPECT_EQ(accepted["/big/f0"], 2000u); // chunks 0 and 1 only
    }
    // Source untouched on failure.
    EXPECT_TRUE(src_store->exists("/big/f0"));
    src->shutdown();
    dst->shutdown();
}

TEST(Remi, ProviderConfigReportsStore) {
    RemiPair pair;
    ASSERT_TRUE(pair.dst_store->write("/w/x", "1234").ok());
    auto cfg = pair.dst_provider->get_config();
    EXPECT_EQ(cfg["type"].as_string(), "remi");
    EXPECT_GE(cfg["files"].as_integer(), 1);
}

TEST(Remi, BulkAccountingExactUnderPipelinedTransfers) {
    // Monitor edge case: concurrent RDMA migrations must account every bulk
    // transfer exactly once — the destination's on_bulk_complete feeds both
    // the Listing-1 statistics and the margo_bulk_* metrics counters.
    RemiPair pair;
    constexpr int k_sets = 4, k_files = 5;
    constexpr std::size_t k_size = 1024;
    for (int s = 0; s < k_sets; ++s)
        pair.make_files("/set" + std::to_string(s) + "/", k_files, k_size);

    remi::MigrationOptions opts;
    opts.method = remi::Method::Rdma;
    auto rt = pair.src->runtime();
    std::vector<abt::ThreadHandle> workers;
    std::atomic<int> failures{0};
    for (int s = 0; s < k_sets; ++s) {
        workers.push_back(rt->post_thread(rt->primary_pool(), [&, s] {
            auto fs = remi::Fileset::scan(*pair.src_store, "/set" + std::to_string(s) + "/");
            auto r = remi::migrate(pair.src, pair.src_store, fs, "sim://dst", 1, opts);
            if (!r || r->files != k_files) ++failures;
        }));
    }
    for (auto& w : workers) w.join();
    ASSERT_EQ(failures.load(), 0);

    // Each file is one bulk pull on the destination: exact counts, no
    // double-counting and no lost updates despite the pipelining.
    auto& m = *pair.dst->metrics();
    EXPECT_EQ(m.counter("margo_bulk_transfers_total").value(),
              static_cast<std::uint64_t>(k_sets * k_files));
    EXPECT_EQ(m.counter("margo_bulk_bytes_total").value(),
              static_cast<std::uint64_t>(k_sets * k_files) * k_size);
    // The Listing-1 statistics agree on the byte total.
    auto stats = pair.dst->monitoring_json();
    std::uint64_t stat_bulk_num = 0;
    double stat_bulk_sum = 0;
    for (const auto& [key, entry] : stats["rpcs"].as_object()) {
        if (!entry.contains("bulk")) continue;
        stat_bulk_num += entry["bulk"]["size"]["num"].as_integer();
        stat_bulk_sum += entry["bulk"]["size"]["sum"].as_real();
    }
    EXPECT_EQ(stat_bulk_num, static_cast<std::uint64_t>(k_sets * k_files));
    EXPECT_DOUBLE_EQ(stat_bulk_sum, static_cast<double>(k_sets * k_files * k_size));
}

TEST(Remi, MalformedPayloadsLeaveTheStoreUntouched) {
    RemiPair pair;
    ASSERT_TRUE(pair.dst_store->write("/data/kept", "kept").ok());
    const std::vector<WireChunkEntry> chunk{{"/data/new", 0, "abc", 1}};
    test::expect_bad_payload_rejected(
        *pair.src, "sim://dst", 1,
        {{"remi/fetch_rdma",
          mercury::pack(std::string("/data/new"), mercury::BulkHandle{"sim://src", 1, 3})},
         {"remi/write_chunk", mercury::pack(chunk)}});
    EXPECT_EQ(pair.dst_store->list("/data/"), (std::vector<std::string>{"/data/kept"}));
    // The provider still serves a well-formed request.
    pair.make_files("/in/", 2, 10);
    auto fileset = remi::Fileset::scan(*pair.src_store, "/in/");
    auto stats = remi::migrate(pair.src, pair.src_store, fileset, "sim://dst", 1, {});
    ASSERT_TRUE(stats.has_value()) << stats.error().message;
    EXPECT_EQ(pair.dst_store->list("/in/").size(), 2u);
}

TEST(Remi, ForgedBulkSizeRejectedBeforeAllocation) {
    // The handle names a real 4-byte region but claims 2^63 bytes: the
    // destination must answer InvalidArgument instead of sizing a buffer by
    // the claim (which would throw on the handler ULT and end the process).
    RemiPair pair;
    char exposed[4] = {'a', 'b', 'c', 'd'};
    auto handle = pair.src->expose(exposed, sizeof exposed, /*writable=*/false);
    handle.size = 1ull << 63;
    margo::ForwardOptions opts;
    opts.provider_id = 1;
    auto r = pair.src->forward("sim://dst", "remi/fetch_rdma",
                               mercury::pack(std::string("/data/forged"), handle), opts);
    pair.src->unexpose(handle.id);
    ASSERT_FALSE(r.has_value());
    EXPECT_EQ(r.error().code, Error::Code::InvalidArgument);
    EXPECT_TRUE(pair.dst_store->list("/data/").empty());
    // The provider still serves a well-formed request.
    pair.make_files("/in/", 2, 10);
    auto fileset = remi::Fileset::scan(*pair.src_store, "/in/");
    auto stats = remi::migrate(pair.src, pair.src_store, fileset, "sim://dst", 1, {});
    ASSERT_TRUE(stats.has_value()) << stats.error().message;
    EXPECT_EQ(pair.dst_store->list("/in/").size(), 2u);
}
