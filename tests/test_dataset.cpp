// Tests for the §3.2 composition example: the dataset component M built
// from Yokan (metadata) + Warabi (data) + Poesie (scripting), wired both
// manually and through Bedrock dependency injection, within and across
// processes.
#include "bedrock/client.hpp"
#include "bedrock/process.hpp"
#include "composed/dataset.hpp"
#include "malformed_payload.hpp"

#include <gtest/gtest.h>

using namespace mochi;
using namespace mochi::composed;

namespace {

json::Value parse(const char* text) { return *json::Value::parse(text); }

/// All three backing providers in one process, wired manually.
struct ManualWorld {
    std::shared_ptr<mercury::Fabric> fabric = mercury::Fabric::create();
    margo::InstancePtr server;
    margo::InstancePtr client;
    std::unique_ptr<yokan::Provider> meta_provider;
    std::unique_ptr<warabi::Provider> data_provider;
    std::unique_ptr<poesie::Provider> script_provider;
    std::unique_ptr<DatasetProvider> dataset_provider;

    ManualWorld() {
        remi::SimFileStore::destroy_node("sim://server");
        server = margo::Instance::create(fabric, "sim://server").value();
        client = margo::Instance::create(fabric, "sim://client").value();
        meta_provider = std::make_unique<yokan::Provider>(server, 1, yokan::ProviderConfig{});
        data_provider = std::make_unique<warabi::Provider>(server, 2);
        script_provider = std::make_unique<poesie::Provider>(server, 3);
        dataset_provider = std::make_unique<DatasetProvider>(
            server, 10, yokan::Database{server, "sim://server", 1},
            warabi::TargetHandle{server, "sim://server", 2},
            poesie::InterpreterHandle{server, "sim://server", 3});
    }
    ~ManualWorld() {
        dataset_provider.reset();
        script_provider.reset();
        data_provider.reset();
        meta_provider.reset();
        client->shutdown();
        server->shutdown();
    }
};

} // namespace

TEST(Dataset, CreateReadListDestroy) {
    ManualWorld w;
    DatasetHandle ds{w.client, "sim://server", 10};
    ASSERT_TRUE(ds.create("particles", "p1,p2,p3").ok());
    ASSERT_TRUE(ds.create("energies", "1.5 2.5").ok());
    EXPECT_FALSE(ds.create("particles", "dup").ok());
    EXPECT_EQ(*ds.read("particles"), "p1,p2,p3");
    EXPECT_FALSE(ds.read("missing").has_value());
    auto all = ds.list();
    ASSERT_TRUE(all.has_value());
    EXPECT_EQ(*all, (std::vector<std::string>{"energies", "particles"}));
    auto pa = ds.list("pa");
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(pa->size(), 1u);
    ASSERT_TRUE(ds.destroy("particles").ok());
    EXPECT_FALSE(ds.read("particles").has_value());
    EXPECT_FALSE(ds.destroy("particles").ok());
}

TEST(Dataset, MetadataLivesInYokanDataInWarabi) {
    // White-box: the composition stores metadata under "dataset/<name>" in
    // Yokan and the bytes in a Warabi region (Figure 1 composition).
    ManualWorld w;
    DatasetHandle ds{w.client, "sim://server", 10};
    ASSERT_TRUE(ds.create("x", "0123456789").ok());
    yokan::Database meta{w.client, "sim://server", 1};
    auto meta_str = meta.get("dataset/x");
    ASSERT_TRUE(meta_str.has_value());
    auto meta_json = *json::Value::parse(*meta_str);
    EXPECT_EQ(meta_json["size"].as_integer(), 10);
    warabi::TargetHandle data{w.client, "sim://server", 2};
    auto content =
        data.read(static_cast<std::uint64_t>(meta_json["region"].as_integer()), 0, 10);
    ASSERT_TRUE(content.has_value());
    EXPECT_EQ(*content, "0123456789");
}

TEST(Dataset, ScriptsExecuteOnDatasets) {
    ManualWorld w;
    DatasetHandle ds{w.client, "sim://server", 10};
    ASSERT_TRUE(ds.create("doc", "hello mochi world").ok());
    // The script sees $dataset and $name (via the Poesie dependency).
    auto r = ds.run_script("doc", R"(
        return {"name" => $name, "length" => count($dataset),
                 "has_mochi" => contains($dataset, "mochi")};
    )");
    ASSERT_TRUE(r.has_value()) << r.error().message;
    EXPECT_EQ((*r)["name"].as_string(), "doc");
    EXPECT_EQ((*r)["length"].as_integer(), 17);
    EXPECT_TRUE((*r)["has_mochi"].as_bool());
    EXPECT_FALSE(ds.run_script("missing", "return 1;").has_value());
}

TEST(Dataset, BedrockComposedSingleProcess) {
    yokan::register_module();
    warabi::register_module();
    poesie::register_module();
    register_dataset_module();
    remi::SimFileStore::destroy_node("sim://dn1");
    auto fabric = mercury::Fabric::create();
    // Listing-3-style composition of four components with dependency
    // injection (§3.2).
    auto cfg = parse(R"({
      "libraries": {"yokan": "libyokan.so", "warabi": "libwarabi.so",
                     "poesie": "libpoesie.so", "dataset": "libdataset.so"},
      "providers": [
        {"name": "meta", "type": "yokan", "provider_id": 1,
         "config": {"name": "metadata"}},
        {"name": "blobs", "type": "warabi", "provider_id": 2},
        {"name": "scripting", "type": "poesie", "provider_id": 3},
        {"name": "datasets", "type": "dataset", "provider_id": 10,
         "dependencies": {"meta": "meta", "data": "blobs", "script": "scripting"}}
      ]
    })");
    auto proc = bedrock::Process::spawn(fabric, "sim://dn1", cfg);
    ASSERT_TRUE(proc.has_value()) << proc.error().message;
    auto client = margo::Instance::create(fabric, "sim://client").value();
    DatasetHandle ds{client, "sim://dn1", 10};
    ASSERT_TRUE(ds.create("d1", "composed!").ok());
    EXPECT_EQ(*ds.read("d1"), "composed!");
    EXPECT_EQ(ds.run_script("d1", "return count($dataset);")->as_integer(), 9);
    // Dependencies are tracked: stopping yokan under the dataset is refused.
    EXPECT_FALSE((*proc)->stop_provider("meta").ok());
    EXPECT_TRUE((*proc)->stop_provider("datasets").ok());
    EXPECT_TRUE((*proc)->stop_provider("meta").ok());
    client->shutdown();
    (*proc)->shutdown();
}

TEST(Dataset, BedrockComposedAcrossProcesses) {
    yokan::register_module();
    warabi::register_module();
    poesie::register_module();
    register_dataset_module();
    for (const char* n : {"sim://meta-node", "sim://data-node", "sim://front-node"})
        remi::SimFileStore::destroy_node(n);
    auto fabric = mercury::Fabric::create();
    // The dataset provider's dependencies live on *other* processes
    // ("type:id@address" specs): metadata node, data node, front node.
    auto meta_proc = bedrock::Process::spawn(fabric, "sim://meta-node", parse(R"({
        "libraries": {"yokan": "libyokan.so"},
        "providers": [{"name": "meta", "type": "yokan", "provider_id": 1}]
    })")).value();
    auto data_proc = bedrock::Process::spawn(fabric, "sim://data-node", parse(R"({
        "libraries": {"warabi": "libwarabi.so"},
        "providers": [{"name": "blobs", "type": "warabi", "provider_id": 2}]
    })")).value();
    auto front = bedrock::Process::spawn(fabric, "sim://front-node", parse(R"({
        "libraries": {"dataset": "libdataset.so"},
        "providers": [{"name": "datasets", "type": "dataset", "provider_id": 10,
                        "dependencies": {"meta": "yokan:1@sim://meta-node",
                                          "data": "warabi:2@sim://data-node"}}]
    })"));
    ASSERT_TRUE(front.has_value()) << front.error().message;
    auto client = margo::Instance::create(fabric, "sim://client").value();
    DatasetHandle ds{client, "sim://front-node", 10};
    ASSERT_TRUE(ds.create("remote", "spread across three nodes").ok());
    EXPECT_EQ(*ds.read("remote"), "spread across three nodes");
    // Without a poesie dependency, scripting reports InvalidState.
    auto no_script = ds.run_script("remote", "return 1;");
    ASSERT_FALSE(no_script.has_value());
    EXPECT_EQ(no_script.error().code, Error::Code::InvalidState);
    // Cross-process dependency tracking: the metadata node refuses to stop
    // its yokan while the front depends on it.
    EXPECT_FALSE(meta_proc->stop_provider("meta").ok());
    client->shutdown();
    (*front)->shutdown();
    data_proc->shutdown();
    meta_proc->shutdown();
}

TEST(Dataset, MalformedPayloadsLeaveDatasetsUntouched) {
    ManualWorld w;
    DatasetHandle ds{w.client, "sim://server", 10};
    ASSERT_TRUE(ds.create("kept", "payload").ok());
    const std::string name = "kept";
    test::expect_bad_payload_rejected(
        *w.client, "sim://server", 10,
        {{"dataset/create", mercury::pack(std::string("new"), std::string("content"))},
         {"dataset/read", mercury::pack(name)},
         {"dataset/list", mercury::pack(std::string(""))},
         {"dataset/destroy", mercury::pack(name)},
         {"dataset/run_script", mercury::pack(name, std::string("return 1;"))}});
    EXPECT_EQ(*ds.list(), (std::vector<std::string>{"kept"}));
    // The provider still serves a well-formed request.
    auto r = ds.read("kept");
    ASSERT_TRUE(r.has_value()) << r.error().message;
    EXPECT_EQ(*r, "payload");
}
