#include "bedrock/process.hpp"
#include "bedrock/jx9.hpp"
#include "common/logging.hpp"

#include <thread>

namespace mochi::bedrock {

namespace {

/// Locking discipline: m_mutex (abt::Mutex, suspension-safe) serializes
/// configuration mutations and may be held across RPCs; m_providers is read
/// through short std::recursive_mutex sections so that remote lookup RPCs
/// (has_provider, register_dependent) never wait on a mutation in progress —
/// this breaks the distributed deadlock that mutual cross-process
/// dependency checks would otherwise create.
abt::Mutex& config_mutex(void* tag, std::map<void*, std::unique_ptr<abt::Mutex>>& registry,
                         std::mutex& guard) {
    std::lock_guard lk{guard};
    auto& slot = registry[tag];
    if (!slot) slot = std::make_unique<abt::Mutex>();
    return *slot;
}

} // namespace

// The configuration mutation lock is stored out-of-line so that the header
// does not need abt/sync.hpp.
static std::mutex g_cfg_registry_guard;
static std::map<void*, std::unique_ptr<abt::Mutex>> g_cfg_registry;

static abt::Mutex& cfg_lock(const Process* p) {
    return config_mutex(const_cast<Process*>(p), g_cfg_registry, g_cfg_registry_guard);
}

Expected<std::shared_ptr<Process>> Process::spawn(std::shared_ptr<mercury::Fabric> fabric,
                                                  std::string address,
                                                  const json::Value& config) {
    auto inst = margo::Instance::create(fabric, std::move(address), config["margo"]);
    if (!inst) return inst.error();
    auto proc = std::shared_ptr<Process>(new Process());
    proc->m_margo = std::move(inst).value();
    proc->m_fabric = std::move(fabric);
    proc->register_rpcs();

    // Load libraries (Listing 3 "libraries" section).
    if (config.contains("libraries")) {
        if (!config["libraries"].is_object()) {
            proc->shutdown();
            return Error{Error::Code::InvalidArgument, "'libraries' must be an object"};
        }
        for (const auto& [type, lib] : config["libraries"].as_object()) {
            if (!lib.is_string()) {
                proc->shutdown();
                return Error{Error::Code::InvalidArgument, "library path must be a string"};
            }
            if (auto st = proc->load_module(type, lib.as_string()); !st.ok()) {
                proc->shutdown();
                return st.error();
            }
        }
    }
    // Start providers in declaration order.
    if (config.contains("providers")) {
        if (!config["providers"].is_array()) {
            proc->shutdown();
            return Error{Error::Code::InvalidArgument, "'providers' must be an array"};
        }
        for (const auto& desc : config["providers"].as_array()) {
            if (auto st = proc->start_provider(desc); !st.ok()) {
                proc->shutdown();
                return st.error();
            }
        }
    }
    return proc;
}

Expected<std::shared_ptr<Process>> Process::spawn_jx9(
    std::shared_ptr<mercury::Fabric> fabric, std::string address,
    std::string_view jx9_script, const json::Value& params) {
    auto config = jx9::evaluate(
        jx9_script, {{"params", params.is_null() ? json::Value::object() : params},
                     {"address", json::Value{address}}});
    if (!config) return config.error();
    if (!config->is_object())
        return Error{Error::Code::InvalidArgument,
                     "jx9 configuration script must return an object"};
    return spawn(std::move(fabric), std::move(address), *config);
}

Process::~Process() {
    shutdown();
    std::lock_guard lk{g_cfg_registry_guard};
    g_cfg_registry.erase(const_cast<Process*>(this));
}

void Process::shutdown() {
    {
        std::lock_guard lk{m_mutex};
        if (m_shutdown) return;
        m_shutdown = true;
        // Destroy providers in reverse start order approximation: clear map.
        m_providers.clear();
        m_modules.clear();
    }
    m_margo->shutdown();
}

// ---------------------------------------------------------------------------
// Modules
// ---------------------------------------------------------------------------

Status Process::load_module(const std::string& type, const std::string& library) {
    auto module = ModuleRegistry::lookup(library);
    if (!module) return module.error();
    if (module->type != type)
        return Error{Error::Code::InvalidArgument,
                     "library '" + library + "' provides type '" + module->type +
                         "', not '" + type + "'"};
    std::lock_guard lk{m_mutex};
    m_libraries[type] = library;
    m_modules[type] = std::move(*module);
    return {};
}

bool Process::has_module(const std::string& type) const {
    std::lock_guard lk{m_mutex};
    return m_modules.count(type) > 0;
}

// ---------------------------------------------------------------------------
// Providers
// ---------------------------------------------------------------------------

Status Process::start_provider(const json::Value& descriptor) {
    abt::Mutex& mtx = cfg_lock(this);
    mtx.lock();
    auto st = start_provider_locked(descriptor);
    mtx.unlock();
    return st;
}

Status Process::start_provider_locked(const json::Value& descriptor) {
    if (!descriptor.is_object())
        return Error{Error::Code::InvalidArgument, "provider descriptor must be an object"};
    std::string name = descriptor.get_string("name");
    std::string type = descriptor.get_string("type");
    auto provider_id = static_cast<std::uint16_t>(descriptor.get_integer("provider_id", 0));
    if (name.empty() || type.empty())
        return Error{Error::Code::InvalidArgument,
                     "provider descriptor requires 'name' and 'type'"};

    ModuleDefinition module;
    {
        std::lock_guard lk{m_mutex};
        if (m_shutdown) return Error{Error::Code::InvalidState, "process is shut down"};
        auto mit = m_modules.find(type);
        if (mit == m_modules.end())
            return Error{Error::Code::NotFound,
                         "no module loaded for provider type '" + type + "'"};
        module = mit->second;
        if (m_providers.count(name))
            return Error{Error::Code::AlreadyExists, "provider '" + name + "' already exists"};
        for (const auto& [n, e] : m_providers) {
            if (e.type == type && e.provider_id == provider_id)
                return Error{Error::Code::AlreadyExists,
                             "a '" + type + "' provider with id " +
                                 std::to_string(provider_id) + " already exists"};
        }
    }

    // Resolve the pool.
    std::shared_ptr<abt::Pool> pool;
    std::string pool_name = descriptor.get_string("pool");
    if (pool_name.empty()) {
        pool = m_margo->runtime()->primary_pool();
    } else {
        auto p = m_margo->find_pool_by_name(pool_name);
        if (!p)
            return Error{Error::Code::NotFound,
                         "provider '" + name + "' references unknown pool '" + pool_name + "'"};
        pool = std::move(p).value();
    }

    // Resolve dependencies against the module's specification.
    ComponentArgs args;
    args.instance = m_margo;
    args.name = name;
    args.provider_id = provider_id;
    args.pool = pool;
    args.config = descriptor["config"];
    std::vector<ResolvedDependency> flattened;
    const json::Value& deps = descriptor["dependencies"];
    for (const auto& spec : module.dependency_specs) {
        if (!deps.contains(spec.name)) {
            if (spec.required)
                return Error{Error::Code::InvalidArgument,
                             "provider '" + name + "' misses required dependency '" +
                                 spec.name + "'"};
            continue;
        }
        const json::Value& entry = deps[spec.name];
        std::vector<std::string> raw;
        if (entry.is_string()) {
            raw.push_back(entry.as_string());
        } else if (entry.is_array()) {
            if (!spec.is_array)
                return Error{Error::Code::InvalidArgument,
                             "dependency '" + spec.name + "' of '" + name +
                                 "' does not accept a list"};
            for (const auto& e : entry.as_array()) {
                if (!e.is_string())
                    return Error{Error::Code::InvalidArgument,
                                 "dependency entries must be strings"};
                raw.push_back(e.as_string());
            }
        } else {
            return Error{Error::Code::InvalidArgument,
                         "dependency '" + spec.name + "' must be a string or list"};
        }
        for (const auto& s : raw) {
            auto dep = parse_dependency(s);
            if (!dep) return dep.error();
            if (dep->is_local()) {
                std::lock_guard lk{m_mutex};
                auto pit = m_providers.find(dep->local_name);
                if (pit == m_providers.end())
                    return Error{Error::Code::NotFound,
                                 "dependency '" + s + "' of provider '" + name +
                                     "' not found in this process"};
                if (!spec.type.empty() && pit->second.type != spec.type)
                    return Error{Error::Code::InvalidArgument,
                                 "dependency '" + s + "' has type '" + pit->second.type +
                                     "', expected '" + spec.type + "'"};
                dep->type = pit->second.type;
                dep->provider_id = pit->second.provider_id;
                pit->second.dependents.insert(name);
            } else {
                if (dep->address == address()) {
                    return Error{Error::Code::InvalidArgument,
                                 "dependency '" + s + "' addresses this process; use the "
                                 "local provider name instead"};
                }
                // Remote dependency: verify it exists and register ourselves
                // as a dependent (cross-process dependency tracking, §5).
                auto ok = m_margo->call<bool>(
                    dep->address, "bedrock/has_provider_typed", {}, dep->type,
                    static_cast<std::uint32_t>(dep->provider_id));
                if (!ok) return ok.error();
                if (!std::get<0>(*ok))
                    return Error{Error::Code::NotFound,
                                 "remote dependency '" + s + "' of provider '" + name +
                                     "' does not exist"};
                auto reg = m_margo->call<bool>(
                    dep->address, "bedrock/register_dependent", {}, dep->type,
                    static_cast<std::uint32_t>(dep->provider_id), name + "@" + address());
                if (!reg) return reg.error();
            }
            args.dependencies[spec.name].push_back(*dep);
            flattened.push_back(*dep);
        }
    }

    auto component = module.factory(args);
    if (!component) return component.error();

    std::lock_guard lk{m_mutex};
    ProviderEntry entry;
    entry.descriptor = descriptor;
    entry.descriptor["pool"] = pool->name();
    entry.type = type;
    entry.provider_id = provider_id;
    entry.component = std::move(*component);
    entry.dependencies = std::move(flattened);
    m_providers.emplace(name, std::move(entry));
    log::info("bedrock", "%s: started provider %s (type %s, id %u)", address().c_str(),
              name.c_str(), type.c_str(), provider_id);
    return {};
}

Status Process::stop_provider(const std::string& name) {
    abt::Mutex& mtx = cfg_lock(this);
    mtx.lock();
    auto st = stop_provider_locked(name);
    mtx.unlock();
    return st;
}

Status Process::stop_provider_locked(const std::string& name) {
    std::vector<ResolvedDependency> deps;
    {
        std::lock_guard lk{m_mutex};
        auto it = m_providers.find(name);
        if (it == m_providers.end())
            return Error{Error::Code::NotFound, "no provider named '" + name + "'"};
        if (!it->second.dependents.empty())
            return Error{Error::Code::InvalidState,
                         "provider '" + name + "' still has dependents (e.g. '" +
                             *it->second.dependents.begin() + "')"};
        for (const auto& [n, e] : m_providers) {
            for (const auto& d : e.dependencies) {
                if (d.is_local() && d.local_name == name)
                    return Error{Error::Code::InvalidState,
                                 "provider '" + name + "' is a dependency of '" + n + "'"};
            }
        }
        deps = it->second.dependencies;
        m_providers.erase(it); // destroys the component (deregisters RPCs)
    }
    // Release our registrations at remote dependency holders (best effort).
    for (const auto& d : deps) {
        if (d.is_local()) {
            std::lock_guard lk{m_mutex};
            auto pit = m_providers.find(d.local_name);
            if (pit != m_providers.end()) pit->second.dependents.erase(name);
        } else {
            (void)m_margo->call<bool>(d.address, "bedrock/unregister_dependent", {}, d.type,
                                      static_cast<std::uint32_t>(d.provider_id),
                                      name + "@" + address());
        }
    }
    log::info("bedrock", "%s: stopped provider %s", address().c_str(), name.c_str());
    return {};
}

bool Process::has_provider(std::string_view name) const {
    std::lock_guard lk{m_mutex};
    return m_providers.find(name) != m_providers.end();
}

bool Process::has_provider(std::string_view type, std::uint16_t provider_id) const {
    std::lock_guard lk{m_mutex};
    for (const auto& [n, e] : m_providers)
        if (e.type == type && e.provider_id == provider_id) return true;
    return false;
}

std::vector<std::string> Process::provider_names() const {
    std::lock_guard lk{m_mutex};
    std::vector<std::string> names;
    names.reserve(m_providers.size());
    for (const auto& [n, e] : m_providers) names.push_back(n);
    return names;
}

Expected<ComponentInstance*> Process::find_component(const std::string& name) const {
    std::lock_guard lk{m_mutex};
    auto it = m_providers.find(name);
    if (it == m_providers.end())
        return Error{Error::Code::NotFound, "no provider named '" + name + "'"};
    return it->second.component.get();
}

Status Process::register_dependent(const std::string& provider,
                                   const std::string& dependent_spec) {
    std::lock_guard lk{m_mutex};
    auto it = m_providers.find(provider);
    if (it == m_providers.end())
        return Error{Error::Code::NotFound, "no provider named '" + provider + "'"};
    it->second.dependents.insert(dependent_spec);
    return {};
}

Status Process::unregister_dependent(const std::string& provider,
                                     const std::string& dependent_spec) {
    std::lock_guard lk{m_mutex};
    auto it = m_providers.find(provider);
    if (it == m_providers.end())
        return Error{Error::Code::NotFound, "no provider named '" + provider + "'"};
    it->second.dependents.erase(dependent_spec);
    return {};
}

// ---------------------------------------------------------------------------
// Pools / xstreams
// ---------------------------------------------------------------------------

Expected<std::shared_ptr<abt::Pool>> Process::add_pool(const json::Value& config) {
    return m_margo->add_pool_from_json(config);
}

Status Process::remove_pool(const std::string& name) {
    // Bedrock knows which providers use which pools (§5 Obs. 3) and refuses
    // to orphan one.
    {
        std::lock_guard lk{m_mutex};
        for (const auto& [n, e] : m_providers) {
            if (e.descriptor.get_string("pool") == name)
                return Error{Error::Code::InvalidState,
                             "pool '" + name + "' is used by provider '" + n + "'"};
        }
    }
    return m_margo->remove_pool(name);
}

Status Process::add_xstream(const json::Value& config) {
    return m_margo->add_xstream_from_json(config);
}

Status Process::remove_xstream(const std::string& name) {
    return m_margo->remove_xstream(name);
}

// ---------------------------------------------------------------------------
// Migration / checkpoint / restore (§6, §7)
// ---------------------------------------------------------------------------

Status Process::migrate_provider(const std::string& name, const std::string& dest_address,
                                 const json::Value& options) {
    abt::Mutex& mtx = cfg_lock(this);
    mtx.lock();
    auto unlock = [&mtx](Status st) {
        mtx.unlock();
        return st;
    };
    json::Value descriptor;
    ComponentInstance* component = nullptr;
    std::uint16_t provider_id = 0;
    {
        std::lock_guard lk{m_mutex};
        auto it = m_providers.find(name);
        if (it == m_providers.end())
            return unlock(Error{Error::Code::NotFound, "no provider named '" + name + "'"});
        // §6 Obs. 5: "Bedrock can assert that migrating a provider will not
        // break dependencies."
        if (!it->second.dependents.empty() && !options.get_bool("force"))
            return unlock(Error{Error::Code::InvalidState,
                                "provider '" + name + "' has dependents; migration would "
                                "break them (pass force to override)"});
        descriptor = it->second.descriptor;
        component = it->second.component.get();
        provider_id = it->second.provider_id;
    }
    // 1. Migrate the resource's data (component hook, usually REMI-backed).
    if (auto st = component->migrate(dest_address, provider_id, options); !st.ok())
        return unlock(st);
    // Capture the provider's *current* configuration so the replacement
    // re-attaches to the migrated state.
    descriptor["config"] = component->get_config();
    // 2. Instantiate the replacement provider on the destination.
    auto started = m_margo->call<bool>(dest_address, "bedrock/start_provider", {},
                                       descriptor.dump());
    if (!started) return unlock(started.error());
    // 3. Remove the local provider.
    if (!options.get_bool("keep_source")) {
        if (auto st = stop_provider_locked(name); !st.ok()) return unlock(st);
    }
    log::info("bedrock", "%s: migrated provider %s to %s", address().c_str(), name.c_str(),
              dest_address.c_str());
    return unlock({});
}

Status Process::checkpoint_provider(const std::string& name, const std::string& path) {
    auto component = find_component(name);
    if (!component) return component.error();
    return (*component)->checkpoint(path);
}

Status Process::restore_provider(const std::string& name, const std::string& path) {
    auto component = find_component(name);
    if (!component) return component.error();
    return (*component)->restore(path);
}

// ---------------------------------------------------------------------------
// Configuration & queries
// ---------------------------------------------------------------------------

json::Value Process::config() const {
    std::lock_guard lk{m_mutex};
    return config_locked();
}

json::Value Process::config_locked() const {
    auto cfg = json::Value::object();
    cfg["margo"] = m_margo->config();
    cfg["libraries"] = json::Value::object();
    for (const auto& [type, lib] : m_libraries) cfg["libraries"][type] = lib;
    cfg["providers"] = json::Value::array();
    for (const auto& [name, e] : m_providers) {
        auto p = e.descriptor;
        p["config"] = e.component->get_config();
        auto deps = json::Value::array();
        for (const auto& d : e.dependencies) deps.push_back(d.spec);
        p["resolved_dependencies"] = std::move(deps);
        cfg["providers"].push_back(std::move(p));
    }
    return cfg;
}

Expected<json::Value> Process::query(std::string_view jx9_script) const {
    // $__metrics__ makes the same snapshot that bedrock/get_metrics returns
    // available to Jx9 scripts, so an operator (or a rebalancing agent) can
    // compute over configuration and load in one query.
    return jx9::evaluate(jx9_script, {{"__config__", config()},
                                      {"__metrics__", m_margo->metrics_json()}});
}

// ---------------------------------------------------------------------------
// Two-phase commit (§5 cross-process consistency)
// ---------------------------------------------------------------------------

Status Process::validate_op(const json::Value& op) const {
    if (!op.is_object() || !op["op"].is_string())
        return Error{Error::Code::InvalidArgument, "transaction op must have an 'op' field"};
    std::string kind = op.get_string("op");
    std::lock_guard lk{m_mutex};
    if (kind == "start_provider") {
        const auto& d = op["descriptor"];
        std::string name = d.get_string("name");
        std::string type = d.get_string("type");
        if (name.empty() || type.empty())
            return Error{Error::Code::InvalidArgument, "descriptor requires name and type"};
        if (m_providers.count(name))
            return Error{Error::Code::AlreadyExists, "provider '" + name + "' already exists"};
        if (!m_modules.count(type))
            return Error{Error::Code::NotFound, "no module for type '" + type + "'"};
        return {};
    }
    if (kind == "stop_provider") {
        std::string name = op.get_string("name");
        auto it = m_providers.find(name);
        if (it == m_providers.end())
            return Error{Error::Code::NotFound, "no provider named '" + name + "'"};
        if (!it->second.dependents.empty())
            return Error{Error::Code::InvalidState, "provider '" + name + "' has dependents"};
        return {};
    }
    if (kind == "add_pool" || kind == "add_xstream" || kind == "remove_pool" ||
        kind == "remove_xstream" || kind == "load_module")
        return {}; // validated on apply
    return Error{Error::Code::InvalidArgument, "unknown transaction op '" + kind + "'"};
}

Status Process::apply_op(const json::Value& op) {
    std::string kind = op.get_string("op");
    if (kind == "start_provider") return start_provider_locked(op["descriptor"]);
    if (kind == "stop_provider") return stop_provider_locked(op.get_string("name"));
    if (kind == "add_pool") {
        auto r = add_pool(op["config"]);
        return r ? Status{} : Status{r.error()};
    }
    if (kind == "remove_pool") return remove_pool(op.get_string("name"));
    if (kind == "add_xstream") return add_xstream(op["config"]);
    if (kind == "remove_xstream") return remove_xstream(op.get_string("name"));
    if (kind == "load_module")
        return load_module(op.get_string("type"), op.get_string("library"));
    return Error{Error::Code::InvalidArgument, "unknown transaction op '" + kind + "'"};
}

Status Process::prepare(const std::string& txn_id, const json::Value& ops) {
    abt::Mutex& mtx = cfg_lock(this);
    if (!mtx.try_lock())
        return Error{Error::Code::Conflict, "another reconfiguration is in progress"};
    // Config lock acquired; validate. On failure release immediately.
    if (!ops.is_array()) {
        mtx.unlock();
        return Error{Error::Code::InvalidArgument, "transaction ops must be an array"};
    }
    for (const auto& op : ops.as_array()) {
        if (auto st = validate_op(op); !st.ok()) {
            mtx.unlock();
            return st;
        }
    }
    {
        std::lock_guard lk{m_mutex};
        m_txn_id = txn_id;
        m_txn_ops = ops;
    }
    return {}; // lock stays held until commit/abort
}

Status Process::commit(const std::string& txn_id) {
    json::Value ops;
    {
        std::lock_guard lk{m_mutex};
        if (m_txn_id != txn_id)
            return Error{Error::Code::InvalidState, "no prepared transaction '" + txn_id + "'"};
        ops = std::move(m_txn_ops);
        m_txn_id.clear();
        m_txn_ops = json::Value{};
    }
    Status result;
    for (const auto& op : ops.as_array()) {
        if (auto st = apply_op(op); !st.ok()) {
            // Validation passed at prepare time; a failure here means the
            // world changed through a non-transactional path. Report it.
            result = st;
            break;
        }
    }
    cfg_lock(this).unlock();
    return result;
}

Status Process::abort(const std::string& txn_id) {
    {
        std::lock_guard lk{m_mutex};
        if (m_txn_id != txn_id)
            return Error{Error::Code::InvalidState, "no prepared transaction '" + txn_id + "'"};
        m_txn_id.clear();
        m_txn_ops = json::Value{};
    }
    cfg_lock(this).unlock();
    return {};
}

// ---------------------------------------------------------------------------
// RPC surface
// ---------------------------------------------------------------------------

namespace {

/// Respond with status-only result: payload carries `true` on success.
void respond_status(const margo::Request& req, const Status& st) {
    if (st.ok())
        req.respond_values(true);
    else
        req.respond_error(st.error());
}

/// Registers bedrock/* RPCs as typed handlers whose body also receives the
/// Process. The Process is held weakly: a handler racing its destruction
/// answers InvalidState instead of touching a dead object.
struct RpcDefiner {
    margo::Instance& margo;
    std::weak_ptr<Process> self;

    template <typename... Args, typename F>
    void define(const char* name, F fn) const {
        auto r = margo.register_rpc(
            name, k_bedrock_provider_id,
            margo::typed_handler<Args...>(
                [self = self, fn = std::move(fn)](const margo::Request& req, Args&... args) {
                    auto proc = self.lock();
                    if (!proc) {
                        req.respond_error(Error{Error::Code::InvalidState, "process is gone"});
                        return;
                    }
                    fn(*proc, req, args...);
                }));
        assert(r.has_value());
        (void)r;
    }
};

} // namespace

void Process::register_rpcs() {
    RpcDefiner rpc{*m_margo, weak_from_this()};

    rpc.define("bedrock/get_config", [](Process& p, const margo::Request& req) {
        req.respond_values(p.config().dump());
    });
    rpc.define("bedrock/get_metrics", [](Process& p, const margo::Request& req) {
        req.respond_values(p.m_margo->metrics_json().dump());
    });
    rpc.define<std::string>(
        "bedrock/query", [](Process& p, const margo::Request& req, const std::string& script) {
            auto result = p.query(script);
            if (!result)
                req.respond_error(result.error());
            else
                req.respond_values(result->dump());
        });
    rpc.define<std::string, std::string>(
        "bedrock/load_module", [](Process& p, const margo::Request& req,
                                  const std::string& type, const std::string& library) {
            respond_status(req, p.load_module(type, library));
        });
    rpc.define<std::string>(
        "bedrock/start_provider",
        [](Process& p, const margo::Request& req, const std::string& desc_str) {
            auto desc = json::Value::parse(desc_str);
            if (!desc) {
                req.respond_error(desc.error());
                return;
            }
            respond_status(req, p.start_provider(*desc));
        });
    rpc.define<std::string>(
        "bedrock/stop_provider",
        [](Process& p, const margo::Request& req, const std::string& name) {
            respond_status(req, p.stop_provider(name));
        });
    // Zero-copy: the name aliases the request payload.
    rpc.define<std::string_view>(
        "bedrock/has_provider",
        [](Process& p, const margo::Request& req, std::string_view name) {
            req.respond_values(p.has_provider(name));
        });
    rpc.define<std::string_view, std::uint32_t>(
        "bedrock/has_provider_typed",
        [](Process& p, const margo::Request& req, std::string_view type, std::uint32_t id) {
            req.respond_values(p.has_provider(type, static_cast<std::uint16_t>(id)));
        });
    // The type is compared only; the spec is retained, so owned.
    rpc.define<std::string_view, std::uint32_t, std::string>(
        "bedrock/register_dependent", [](Process& p, const margo::Request& req,
                                         std::string_view type, std::uint32_t id,
                                         const std::string& spec) {
            // Resolve (type,id) -> name.
            std::lock_guard lk{p.m_mutex};
            for (auto& [name, e] : p.m_providers) {
                if (e.type == type && e.provider_id == id) {
                    e.dependents.insert(spec);
                    req.respond_values(true);
                    return;
                }
            }
            req.respond_error(Error{Error::Code::NotFound, "no such provider"});
        });
    rpc.define<std::string_view, std::uint32_t, std::string>(
        "bedrock/unregister_dependent", [](Process& p, const margo::Request& req,
                                           std::string_view type, std::uint32_t id,
                                           const std::string& spec) {
            std::lock_guard lk{p.m_mutex};
            for (auto& [name, e] : p.m_providers) {
                if (e.type == type && e.provider_id == id) e.dependents.erase(spec);
            }
            req.respond_values(true);
        });
    rpc.define<std::string>(
        "bedrock/add_pool",
        [](Process& p, const margo::Request& req, const std::string& cfg_str) {
            auto cfg = json::Value::parse(cfg_str);
            if (!cfg) {
                req.respond_error(cfg.error());
                return;
            }
            auto r = p.add_pool(*cfg);
            respond_status(req, r ? Status{} : Status{r.error()});
        });
    rpc.define<std::string>(
        "bedrock/remove_pool",
        [](Process& p, const margo::Request& req, const std::string& name) {
            respond_status(req, p.remove_pool(name));
        });
    rpc.define<std::string>(
        "bedrock/add_xstream",
        [](Process& p, const margo::Request& req, const std::string& cfg_str) {
            auto cfg = json::Value::parse(cfg_str);
            if (!cfg) {
                req.respond_error(cfg.error());
                return;
            }
            respond_status(req, p.add_xstream(*cfg));
        });
    rpc.define<std::string>(
        "bedrock/remove_xstream",
        [](Process& p, const margo::Request& req, const std::string& name) {
            respond_status(req, p.remove_xstream(name));
        });
    rpc.define<std::string, std::string, std::string>(
        "bedrock/migrate_provider",
        [](Process& p, const margo::Request& req, const std::string& name,
           const std::string& dest, const std::string& options_str) {
            auto options = json::Value::parse(options_str);
            if (!options) {
                req.respond_error(options.error());
                return;
            }
            respond_status(req, p.migrate_provider(name, dest, *options));
        });
    rpc.define<std::string, std::string>(
        "bedrock/checkpoint_provider", [](Process& p, const margo::Request& req,
                                          const std::string& name, const std::string& path) {
            respond_status(req, p.checkpoint_provider(name, path));
        });
    rpc.define<std::string, std::string>(
        "bedrock/restore_provider", [](Process& p, const margo::Request& req,
                                       const std::string& name, const std::string& path) {
            respond_status(req, p.restore_provider(name, path));
        });
    rpc.define<std::string, std::string>(
        "bedrock/prepare", [](Process& p, const margo::Request& req, const std::string& txn,
                              const std::string& ops_str) {
            auto ops = json::Value::parse(ops_str);
            if (!ops) {
                req.respond_error(ops.error());
                return;
            }
            respond_status(req, p.prepare(txn, *ops));
        });
    rpc.define<std::string>(
        "bedrock/commit", [](Process& p, const margo::Request& req, const std::string& txn) {
            respond_status(req, p.commit(txn));
        });
    rpc.define<std::string>(
        "bedrock/abort", [](Process& p, const margo::Request& req, const std::string& txn) {
            respond_status(req, p.abort(txn));
        });
    rpc.define("bedrock/shutdown", [](Process& p, const margo::Request& req) {
        req.respond_values(true);
        // Finalizing the runtime joins execution streams, which cannot be
        // done from a handler ULT running on one of them; hand off.
        auto proc = p.shared_from_this();
        std::thread([proc] { proc->shutdown(); }).detach();
    });
}

} // namespace mochi::bedrock
