// Tests for Poesie (§3.2's embedded language interpreter component): VM
// lifecycle, remote script execution, persistent environments, and the
// Bedrock module.
#include "bedrock/process.hpp"
#include "malformed_payload.hpp"
#include "poesie/provider.hpp"

#include <gtest/gtest.h>

using namespace mochi;

namespace {

struct PoesieWorld {
    std::shared_ptr<mercury::Fabric> fabric = mercury::Fabric::create();
    margo::InstancePtr server;
    margo::InstancePtr client;
    std::unique_ptr<poesie::Provider> provider;
    poesie::InterpreterHandle handle;

    PoesieWorld()
    : server(margo::Instance::create(fabric, "sim://server").value()),
      client(margo::Instance::create(fabric, "sim://client").value()),
      provider(std::make_unique<poesie::Provider>(server, 6)),
      handle(client, "sim://server", 6) {}
    ~PoesieWorld() {
        provider.reset();
        client->shutdown();
        server->shutdown();
    }
};

} // namespace

TEST(Poesie, VmLifecycle) {
    PoesieWorld w;
    EXPECT_TRUE(w.handle.create_vm("vm1").ok());
    EXPECT_FALSE(w.handle.create_vm("vm1").ok()); // duplicate
    EXPECT_TRUE(w.handle.create_vm("vm2").ok());
    auto vms = w.handle.list_vms();
    ASSERT_TRUE(vms.has_value());
    EXPECT_EQ(*vms, (std::vector<std::string>{"vm1", "vm2"}));
    EXPECT_TRUE(w.handle.destroy_vm("vm1").ok());
    EXPECT_FALSE(w.handle.destroy_vm("vm1").ok());
    EXPECT_EQ(w.handle.list_vms()->size(), 1u);
}

TEST(Poesie, RemoteExecution) {
    PoesieWorld w;
    ASSERT_TRUE(w.handle.create_vm("vm").ok());
    auto r = w.handle.execute("vm", "return 6 * 7;");
    ASSERT_TRUE(r.has_value()) << r.error().message;
    EXPECT_EQ(r->as_integer(), 42);
    // Structured return values round-trip as JSON.
    auto obj = w.handle.execute("vm", R"(return {"a" => [1, 2], "b" => "x"};)");
    ASSERT_TRUE(obj.has_value());
    EXPECT_EQ((*obj)["a"].size(), 2u);
    EXPECT_EQ((*obj)["b"].as_string(), "x");
}

TEST(Poesie, EnvironmentPersistsAcrossExecutions) {
    PoesieWorld w;
    ASSERT_TRUE(w.handle.create_vm("session").ok());
    ASSERT_TRUE(w.handle.execute("session", "$counter = 10;").has_value());
    ASSERT_TRUE(w.handle.execute("session", "$counter = $counter + 5;").has_value());
    auto r = w.handle.execute("session", "return $counter;");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->as_integer(), 15);
    // VMs are isolated from each other.
    ASSERT_TRUE(w.handle.create_vm("other").ok());
    auto other = w.handle.execute("other", "return $counter;");
    ASSERT_TRUE(other.has_value());
    EXPECT_TRUE(other->is_null());
}

TEST(Poesie, GetSetVariables) {
    PoesieWorld w;
    ASSERT_TRUE(w.handle.create_vm("vm").ok());
    ASSERT_TRUE(w.handle.set_variable("vm", "config", *json::Value::parse(R"({"n": 3})")).ok());
    auto r = w.handle.execute("vm", "return $config.n * 2;");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->as_integer(), 6);
    ASSERT_TRUE(w.handle.execute("vm", "$result = $config.n + 1;").has_value());
    auto v = w.handle.get_variable("vm", "result");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->as_integer(), 4);
    EXPECT_FALSE(w.handle.get_variable("vm", "ghost").has_value());
}

TEST(Poesie, ErrorsPropagate) {
    PoesieWorld w;
    EXPECT_FALSE(w.handle.execute("no-such-vm", "return 1;").has_value());
    ASSERT_TRUE(w.handle.create_vm("vm").ok());
    auto bad = w.handle.execute("vm", "return 1 / 0;");
    ASSERT_FALSE(bad.has_value());
    EXPECT_NE(bad.error().message.find("division by zero"), std::string::npos);
    // A failed script must not corrupt the environment.
    ASSERT_TRUE(w.handle.execute("vm", "$x = 1;").has_value());
    EXPECT_FALSE(w.handle.execute("vm", "$x = 2; return 1/0;").has_value());
    EXPECT_EQ(w.handle.get_variable("vm", "x")->as_integer(), 1);
}

TEST(Poesie, BedrockModule) {
    poesie::register_module();
    auto fabric = mercury::Fabric::create();
    auto cfg = json::Value::parse(R"({
      "libraries": {"poesie": "libpoesie.so"},
      "providers": [{"name": "scripting", "type": "poesie", "provider_id": 11}]
    })").value();
    auto proc = bedrock::Process::spawn(fabric, "sim://pn1", cfg).value();
    auto client = margo::Instance::create(fabric, "sim://client").value();
    poesie::InterpreterHandle handle{client, "sim://pn1", 11};
    ASSERT_TRUE(handle.create_vm("vm").ok());
    EXPECT_EQ(handle.execute("vm", "return 1 + 1;")->as_integer(), 2);
    // VM stats appear in the process configuration.
    auto pcfg = proc->config();
    bool found = false;
    for (const auto& p : pcfg["providers"].as_array())
        if (p["name"].as_string() == "scripting" && p["config"]["vms"].size() == 1)
            found = true;
    EXPECT_TRUE(found);
    client->shutdown();
    proc->shutdown();
}

TEST(Poesie, MalformedPayloadsLeaveVmsUntouched) {
    PoesieWorld w;
    ASSERT_TRUE(w.handle.create_vm("vm").ok());
    ASSERT_TRUE(w.handle.execute("vm", "$x = 1;").has_value());
    const std::string vm = "vm";
    test::expect_bad_payload_rejected(
        *w.client, "sim://server", 6,
        {{"poesie/create_vm", mercury::pack(std::string("vm2"))},
         {"poesie/destroy_vm", mercury::pack(vm)},
         {"poesie/execute", mercury::pack(vm, std::string("$x = 2;"))},
         {"poesie/get_variable", mercury::pack(vm, std::string("x"))},
         {"poesie/set_variable", mercury::pack(vm, std::string("x"), std::string("3"))}});
    EXPECT_EQ(*w.handle.list_vms(), (std::vector<std::string>{"vm"}));
    EXPECT_EQ(w.handle.get_variable("vm", "x")->as_integer(), 1);
    // The provider still serves a well-formed request.
    auto r = w.handle.execute("vm", "return $x + 1;");
    ASSERT_TRUE(r.has_value()) << r.error().message;
    EXPECT_EQ(r->as_integer(), 2);
}
