#include "composed/dataset.hpp"
#include "bedrock/component.hpp"

namespace mochi::composed {

// ---------------------------------------------------------------------------
// DatasetHandle
// ---------------------------------------------------------------------------

Status DatasetHandle::create(const std::string& name, const std::string& content) const {
    auto r = call<bool>("create", name, content);
    if (!r) return r.error();
    return {};
}

Expected<std::string> DatasetHandle::read(const std::string& name) const {
    auto r = call<std::string>("read", name);
    if (!r) return std::move(r).error();
    return std::get<0>(std::move(*r));
}

Expected<std::vector<std::string>> DatasetHandle::list(const std::string& prefix) const {
    auto r = call<std::vector<std::string>>("list", prefix);
    if (!r) return std::move(r).error();
    return std::get<0>(std::move(*r));
}

Status DatasetHandle::destroy(const std::string& name) const {
    auto r = call<bool>("destroy", name);
    if (!r) return r.error();
    return {};
}

Expected<json::Value> DatasetHandle::run_script(const std::string& name,
                                                const std::string& code) const {
    auto r = call<std::string>("run_script", name, code);
    if (!r) return std::move(r).error();
    return json::Value::parse(std::get<0>(*r));
}

// ---------------------------------------------------------------------------
// DatasetProvider
// ---------------------------------------------------------------------------

DatasetProvider::DatasetProvider(margo::InstancePtr instance, std::uint16_t provider_id,
                                 yokan::Database meta, warabi::TargetHandle data,
                                 std::optional<poesie::InterpreterHandle> script,
                                 std::shared_ptr<abt::Pool> pool)
: margo::Provider(std::move(instance), provider_id, "dataset", std::move(pool)),
  m_meta(std::move(meta)), m_data(std::move(data)), m_script(std::move(script)) {
    define<std::string, std::string>("create", [this](const margo::Request& req,
                                                      const std::string& name,
                                                      const std::string& content) {
        if (auto existing = m_meta.exists(meta_key(name)); existing && *existing) {
            req.respond_error(Error{Error::Code::AlreadyExists, "dataset exists: " + name});
            return;
        }
        auto region = m_data.create(content.size());
        if (!region) {
            req.respond_error(region.error());
            return;
        }
        if (auto st = m_data.write(*region, 0, content); !st.ok()) {
            req.respond_error(st.error());
            return;
        }
        auto meta = json::Value::object();
        meta["region"] = *region;
        meta["size"] = content.size();
        if (auto st = m_meta.put(meta_key(name), meta.dump()); !st.ok()) {
            req.respond_error(st.error());
            return;
        }
        req.respond_values(true);
    });
    define<std::string>("read", [this](const margo::Request& req, const std::string& name) {
        auto meta_str = m_meta.get(meta_key(name));
        if (!meta_str) {
            req.respond_error(meta_str.error());
            return;
        }
        auto meta = json::Value::parse(*meta_str);
        if (!meta) {
            req.respond_error(meta.error());
            return;
        }
        auto content =
            m_data.read(static_cast<std::uint64_t>((*meta)["region"].as_integer()), 0,
                        static_cast<std::uint64_t>((*meta)["size"].as_integer()));
        if (!content) {
            req.respond_error(content.error());
            return;
        }
        req.respond_values(*content);
    });
    define<std::string>("list", [this](const margo::Request& req, const std::string& prefix) {
        auto keys = m_meta.list_keys("", "dataset/" + prefix, 0);
        if (!keys) {
            req.respond_error(keys.error());
            return;
        }
        std::vector<std::string> names;
        names.reserve(keys->size());
        for (auto& k : *keys) names.push_back(k.substr(8)); // strip "dataset/"
        req.respond_values(names);
    });
    define<std::string>("destroy", [this](const margo::Request& req, const std::string& name) {
        auto meta_str = m_meta.get(meta_key(name));
        if (!meta_str) {
            req.respond_error(meta_str.error());
            return;
        }
        auto meta = json::Value::parse(*meta_str);
        if (meta)
            (void)m_data.erase(static_cast<std::uint64_t>((*meta)["region"].as_integer()));
        if (auto st = m_meta.erase(meta_key(name)); !st.ok()) {
            req.respond_error(st.error());
            return;
        }
        req.respond_values(true);
    });
    define<std::string, std::string>("run_script", [this](const margo::Request& req,
                                                          const std::string& name,
                                                          const std::string& code) {
        if (!m_script) {
            req.respond_error(Error{Error::Code::InvalidState,
                                    "no poesie dependency configured for this provider"});
            return;
        }
        auto meta_str = m_meta.get(meta_key(name));
        if (!meta_str) {
            req.respond_error(meta_str.error());
            return;
        }
        auto meta = json::Value::parse(*meta_str);
        auto content =
            m_data.read(static_cast<std::uint64_t>((*meta)["region"].as_integer()), 0,
                        static_cast<std::uint64_t>((*meta)["size"].as_integer()));
        if (!content) {
            req.respond_error(content.error());
            return;
        }
        // One throwaway VM per execution: inject $dataset and $name, run.
        std::string vm = "dataset-" + name;
        (void)m_script->create_vm(vm);
        (void)m_script->set_variable(vm, "dataset", json::Value{*content});
        (void)m_script->set_variable(vm, "name", json::Value{name});
        auto result = m_script->execute(vm, code);
        (void)m_script->destroy_vm(vm);
        if (!result) {
            req.respond_error(result.error());
            return;
        }
        req.respond_values(result->dump());
    });
}

json::Value DatasetProvider::get_config() const {
    auto c = json::Value::object();
    c["meta"] = m_meta.address() + ":" + std::to_string(m_meta.provider_id());
    c["data"] = m_data.address() + ":" + std::to_string(m_data.provider_id());
    c["scriptable"] = m_script.has_value();
    return c;
}

// ---------------------------------------------------------------------------
// Bedrock module
// ---------------------------------------------------------------------------

namespace {

class DatasetComponent : public bedrock::ComponentInstance {
  public:
    DatasetComponent(const bedrock::ComponentArgs& args, yokan::Database meta,
                     warabi::TargetHandle data,
                     std::optional<poesie::InterpreterHandle> script)
    : m_provider(args.instance, args.provider_id, std::move(meta), std::move(data),
                 std::move(script), args.pool) {}
    json::Value get_config() const override { return m_provider.get_config(); }

  private:
    DatasetProvider m_provider;
};

/// Resolve a dependency entry into (address, provider_id): local
/// dependencies address this very process.
std::pair<std::string, std::uint16_t> endpoint_of(const bedrock::ComponentArgs& args,
                                                  const bedrock::ResolvedDependency& dep) {
    if (dep.is_local()) return {args.instance->address(), dep.provider_id};
    return {dep.address, dep.provider_id};
}

} // namespace

void register_dataset_module() {
    bedrock::ModuleDefinition module;
    module.type = "dataset";
    module.dependency_specs.push_back({"meta", "yokan", /*required=*/true, false});
    module.dependency_specs.push_back({"data", "warabi", /*required=*/true, false});
    module.dependency_specs.push_back({"script", "poesie", /*required=*/false, false});
    module.factory = [](const bedrock::ComponentArgs& args)
        -> Expected<std::unique_ptr<bedrock::ComponentInstance>> {
        auto [meta_addr, meta_id] = endpoint_of(args, args.dependencies.at("meta").front());
        auto [data_addr, data_id] = endpoint_of(args, args.dependencies.at("data").front());
        yokan::Database meta{args.instance, meta_addr, meta_id};
        warabi::TargetHandle data{args.instance, data_addr, data_id};
        std::optional<poesie::InterpreterHandle> script;
        auto it = args.dependencies.find("script");
        if (it != args.dependencies.end() && !it->second.empty()) {
            auto [addr, id] = endpoint_of(args, it->second.front());
            script.emplace(args.instance, addr, id);
        }
        return std::unique_ptr<bedrock::ComponentInstance>(new DatasetComponent(
            args, std::move(meta), std::move(data), std::move(script)));
    };
    bedrock::ModuleRegistry::provide("libdataset.so", std::move(module));
}

} // namespace mochi::composed
