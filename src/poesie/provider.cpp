#include "poesie/provider.hpp"
#include "bedrock/component.hpp"

namespace mochi::poesie {

// ---------------------------------------------------------------------------
// InterpreterHandle
// ---------------------------------------------------------------------------

Status InterpreterHandle::create_vm(const std::string& name) const {
    auto r = call<bool>("create_vm", name);
    if (!r) return r.error();
    return {};
}

Status InterpreterHandle::destroy_vm(const std::string& name) const {
    auto r = call<bool>("destroy_vm", name);
    if (!r) return r.error();
    return {};
}

Expected<std::vector<std::string>> InterpreterHandle::list_vms() const {
    auto r = call<std::vector<std::string>>("list_vms");
    if (!r) return std::move(r).error();
    return std::get<0>(std::move(*r));
}

Expected<json::Value> InterpreterHandle::execute(const std::string& vm,
                                                 const std::string& code) const {
    auto r = call<std::string>("execute", vm, code);
    if (!r) return std::move(r).error();
    return json::Value::parse(std::get<0>(*r));
}

Expected<json::Value> InterpreterHandle::get_variable(const std::string& vm,
                                                      const std::string& name) const {
    auto r = call<std::string>("get_variable", vm, name);
    if (!r) return std::move(r).error();
    return json::Value::parse(std::get<0>(*r));
}

Status InterpreterHandle::set_variable(const std::string& vm, const std::string& name,
                                       const json::Value& value) const {
    auto r = call<bool>("set_variable", vm, name, value.dump());
    if (!r) return r.error();
    return {};
}

// ---------------------------------------------------------------------------
// Provider
// ---------------------------------------------------------------------------

Provider::Provider(margo::InstancePtr instance, std::uint16_t provider_id,
                   std::shared_ptr<abt::Pool> pool)
: margo::Provider(std::move(instance), provider_id, "poesie", std::move(pool)) {
    define<std::string>("create_vm", [this](const margo::Request& req,
                                            const std::string& name) {
        std::lock_guard lk{m_mutex};
        if (m_vms.count(name)) {
            req.respond_error(Error{Error::Code::AlreadyExists, "vm exists: " + name});
            return;
        }
        m_vms[name];
        req.respond_values(true);
    });
    define<std::string>("destroy_vm", [this](const margo::Request& req,
                                             const std::string& name) {
        std::lock_guard lk{m_mutex};
        if (m_vms.erase(name) == 0) {
            req.respond_error(Error{Error::Code::NotFound, "no vm named " + name});
            return;
        }
        req.respond_values(true);
    });
    define("list_vms", [this](const margo::Request& req) {
        std::lock_guard lk{m_mutex};
        std::vector<std::string> names;
        names.reserve(m_vms.size());
        for (const auto& [n, vm] : m_vms) names.push_back(n);
        req.respond_values(names);
    });
    define<std::string, std::string>("execute", [this](const margo::Request& req,
                                                       const std::string& vm_name,
                                                       const std::string& code) {
        // Copy the environment out, evaluate without holding the lock (the
        // script may run long), then merge back.
        std::map<std::string, json::Value> env;
        {
            std::lock_guard lk{m_mutex};
            auto it = m_vms.find(vm_name);
            if (it == m_vms.end()) {
                req.respond_error(Error{Error::Code::NotFound, "no vm named " + vm_name});
                return;
            }
            env = it->second.env;
        }
        auto result = bedrock::jx9::evaluate_env(code, env);
        if (!result) {
            req.respond_error(result.error());
            return;
        }
        {
            std::lock_guard lk{m_mutex};
            auto it = m_vms.find(vm_name);
            if (it != m_vms.end()) {
                it->second.env = std::move(env);
                ++it->second.executions;
            }
        }
        req.respond_values(result->dump());
    });
    define<std::string, std::string>("get_variable", [this](const margo::Request& req,
                                                            const std::string& vm_name,
                                                            const std::string& var) {
        std::lock_guard lk{m_mutex};
        auto it = m_vms.find(vm_name);
        if (it == m_vms.end()) {
            req.respond_error(Error{Error::Code::NotFound, "no vm named " + vm_name});
            return;
        }
        auto vit = it->second.env.find(var);
        if (vit == it->second.env.end()) {
            req.respond_error(Error{Error::Code::NotFound, "no variable $" + var});
            return;
        }
        req.respond_values(vit->second.dump());
    });
    define<std::string, std::string, std::string>(
        "set_variable", [this](const margo::Request& req, const std::string& vm_name,
                               const std::string& var, const std::string& value_str) {
        auto value = json::Value::parse(value_str);
        if (!value) {
            req.respond_error(value.error());
            return;
        }
        std::lock_guard lk{m_mutex};
        auto it = m_vms.find(vm_name);
        if (it == m_vms.end()) {
            req.respond_error(Error{Error::Code::NotFound, "no vm named " + vm_name});
            return;
        }
        it->second.env[var] = std::move(*value);
        req.respond_values(true);
    });
}

json::Value Provider::get_config() const {
    std::lock_guard lk{m_mutex};
    auto c = json::Value::object();
    c["vms"] = json::Value::array();
    for (const auto& [name, vm] : m_vms) {
        auto v = json::Value::object();
        v["name"] = name;
        v["variables"] = vm.env.size();
        v["executions"] = vm.executions;
        c["vms"].push_back(std::move(v));
    }
    return c;
}

// ---------------------------------------------------------------------------
// Bedrock module
// ---------------------------------------------------------------------------

namespace {

class PoesieComponent : public bedrock::ComponentInstance {
  public:
    explicit PoesieComponent(const bedrock::ComponentArgs& args)
    : m_provider(args.instance, args.provider_id, args.pool) {}
    json::Value get_config() const override { return m_provider.get_config(); }

  private:
    Provider m_provider;
};

} // namespace

void register_module() {
    bedrock::ModuleDefinition module;
    module.type = "poesie";
    module.factory = [](const bedrock::ComponentArgs& args)
        -> Expected<std::unique_ptr<bedrock::ComponentInstance>> {
        return std::unique_ptr<bedrock::ComponentInstance>(new PoesieComponent(args));
    };
    bedrock::ModuleRegistry::provide("libpoesie.so", std::move(module));
}

} // namespace mochi::poesie
