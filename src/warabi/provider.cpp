#include "warabi/provider.hpp"
#include "bedrock/component.hpp"

namespace mochi::warabi {

namespace {

/// Overflow-safe range check: [offset, offset + len) lies within `size`.
bool in_bounds(std::uint64_t offset, std::uint64_t len, std::uint64_t size) noexcept {
    return offset <= size && len <= size - offset;
}

} // namespace

// ---------------------------------------------------------------------------
// TargetHandle
// ---------------------------------------------------------------------------

Expected<std::uint64_t> TargetHandle::create(std::uint64_t size) const {
    auto r = call<std::uint64_t>("create", size);
    if (!r) return std::move(r).error();
    return std::get<0>(*r);
}

Status TargetHandle::write(std::uint64_t region, std::uint64_t offset,
                           const std::string& data) const {
    auto r = call<bool>("write", region, offset, data);
    if (!r) return r.error();
    return {};
}

Expected<std::string> TargetHandle::read(std::uint64_t region, std::uint64_t offset,
                                         std::uint64_t size) const {
    auto r = call<std::string>("read", region, offset, size);
    if (!r) return std::move(r).error();
    return std::get<0>(std::move(*r));
}

Status TargetHandle::erase(std::uint64_t region) const {
    auto r = call<bool>("erase", region);
    if (!r) return r.error();
    return {};
}

Expected<std::uint64_t> TargetHandle::region_size(std::uint64_t region) const {
    auto r = call<std::uint64_t>("region_size", region);
    if (!r) return std::move(r).error();
    return std::get<0>(*r);
}

Status TargetHandle::write_multi(
    std::uint64_t region,
    const std::vector<std::pair<std::uint64_t, std::string>>& writes) const {
    if (writes.empty()) return {};
    std::size_t bytes = 0;
    for (const auto& [off, data] : writes) {
        (void)off;
        bytes += data.size();
    }
    if (writes.size() > 1 && bytes >= k_bulk_threshold) {
        // Offsets stay inline with the RPC; the concatenated segment data
        // travels in one bulk pull.
        std::vector<std::uint64_t> offsets;
        offsets.reserve(writes.size());
        mercury::SegmentBuilder builder;
        for (const auto& [off, data] : writes) {
            offsets.push_back(off);
            builder.add(data);
        }
        auto buffer = builder.take();
        auto handle = instance()->expose(buffer.data(), buffer.size(), /*writable=*/false);
        auto r = call<bool>("write_multi_bulk", region, offsets, handle);
        instance()->unexpose(handle.id);
        if (!r) return r.error();
        return {};
    }
    auto r = call<bool>("write_multi", region, writes);
    if (!r) return r.error();
    return {};
}

Status TargetHandle::write_bulk(std::uint64_t region, std::uint64_t offset, const char* data,
                                std::size_t size) const {
    auto handle = instance()->expose(const_cast<char*>(data), size, /*writable=*/false);
    auto r = call<bool>("write_bulk", region, offset, handle);
    instance()->unexpose(handle.id);
    if (!r) return r.error();
    return {};
}

Status TargetHandle::read_bulk(std::uint64_t region, std::uint64_t offset, char* data,
                               std::size_t size) const {
    auto handle = instance()->expose(data, size, /*writable=*/true);
    auto r = call<bool>("read_bulk", region, offset, handle);
    instance()->unexpose(handle.id);
    if (!r) return r.error();
    return {};
}

// ---------------------------------------------------------------------------
// Provider
// ---------------------------------------------------------------------------

Provider::Provider(margo::InstancePtr instance, std::uint16_t provider_id,
                   TargetConfig config, std::shared_ptr<abt::Pool> pool)
: margo::Provider(std::move(instance), provider_id, "warabi", std::move(pool)),
  m_config(std::move(config)),
  m_regions_created(this->instance()->metrics()->counter("warabi_regions_created_total")),
  m_bytes_written(this->instance()->metrics()->counter("warabi_bytes_written_total")),
  m_bytes_read(this->instance()->metrics()->counter("warabi_bytes_read_total")) {
    auto store = remi::SimFileStore::for_node(this->instance()->address());
    if (!store->list(root()).empty()) (void)load_from_store(*store);

    define<std::uint64_t>("create", [this](const margo::Request& req, std::uint64_t size) {
        // A size std::string cannot hold would throw on this handler ULT,
        // where nothing catches it.
        if (size > std::string{}.max_size()) {
            req.respond_error(Error{Error::Code::InvalidArgument, "region size too large"});
            return;
        }
        m_regions_created.inc();
        std::uint64_t id;
        {
            std::lock_guard lk{m_mutex};
            id = m_next_region++;
            m_regions[id] = std::string(size, '\0');
        }
        req.respond_values(id);
    });
    // Zero-copy: the data bytes are read straight out of the request payload
    // into the region, never staged in an owned string.
    define<std::uint64_t, std::uint64_t, std::string_view>(
        "write", [this](const margo::Request& req, std::uint64_t region, std::uint64_t offset,
                        std::string_view data) {
            if (!admit(req)) return;
            m_bytes_written.inc(data.size());
            std::lock_guard lk{m_mutex};
            auto it = m_regions.find(region);
            if (it == m_regions.end()) {
                req.respond_error(Error{Error::Code::NotFound, "no such region"});
                return;
            }
            if (!in_bounds(offset, data.size(), it->second.size())) {
                req.respond_error(Error{Error::Code::InvalidArgument, "write out of bounds"});
                return;
            }
            it->second.replace(offset, data.size(), data);
            req.respond_values(true);
        });
    define<std::uint64_t, std::uint64_t, std::uint64_t>(
        "read", [this](const margo::Request& req, std::uint64_t region, std::uint64_t offset,
                       std::uint64_t size) {
            // Reads bill their byte quota on what leaves the node, not the
            // few bytes of request header.
            if (!admit(req, size)) return;
            std::lock_guard lk{m_mutex};
            auto it = m_regions.find(region);
            if (it == m_regions.end()) {
                req.respond_error(Error{Error::Code::NotFound, "no such region"});
                return;
            }
            if (!in_bounds(offset, size, it->second.size())) {
                req.respond_error(Error{Error::Code::InvalidArgument, "read out of bounds"});
                return;
            }
            m_bytes_read.inc(size);
            req.respond_values(it->second.substr(offset, size));
        });
    define<std::uint64_t>("erase", [this](const margo::Request& req, std::uint64_t region) {
        std::lock_guard lk{m_mutex};
        if (m_regions.erase(region) == 0) {
            req.respond_error(Error{Error::Code::NotFound, "no such region"});
            return;
        }
        req.respond_values(true);
    });
    define<std::uint64_t>("region_size", [this](const margo::Request& req,
                                                std::uint64_t region) {
        std::lock_guard lk{m_mutex};
        auto it = m_regions.find(region);
        if (it == m_regions.end()) {
            req.respond_error(Error{Error::Code::NotFound, "no such region"});
            return;
        }
        req.respond_values(static_cast<std::uint64_t>(it->second.size()));
    });
    // Data segments decode as views into the request payload, so the batch
    // is never re-copied between the wire and the region.
    define<std::uint64_t, std::vector<std::pair<std::uint64_t, std::string_view>>>(
        "write_multi",
        [this](const margo::Request& req, std::uint64_t region, const auto& writes) {
            if (!admit(req)) return;
            std::vector<std::uint64_t> offsets;
            std::vector<std::string_view> datas;
            offsets.reserve(writes.size());
            datas.reserve(writes.size());
            for (const auto& [off, data] : writes) {
                offsets.push_back(off);
                datas.push_back(data);
            }
            handle_write_multi(req, region, offsets, datas);
        });
    define<std::uint64_t, std::vector<std::uint64_t>, mercury::BulkHandle>(
        "write_multi_bulk",
        [this](const margo::Request& req, std::uint64_t region,
               const std::vector<std::uint64_t>& offsets, const mercury::BulkHandle& handle) {
            if (!admit(req, handle.size)) return;
            auto buffer = this->instance()->bulk_pull_all(handle);
            if (!buffer) {
                req.respond_error(buffer.error());
                return;
            }
            std::vector<std::string_view> datas;
            if (!mercury::unpack_segments(*buffer, datas) || datas.size() != offsets.size()) {
                req.respond_error(
                    Error{Error::Code::Corruption, "bad write_multi segment buffer"});
                return;
            }
            handle_write_multi(req, region, offsets, datas);
        });
    define<std::uint64_t, std::uint64_t, mercury::BulkHandle>(
        "write_bulk", [this](const margo::Request& req, std::uint64_t region,
                             std::uint64_t offset, const mercury::BulkHandle& handle) {
            if (!admit(req, handle.size)) return;
            auto buffer = this->instance()->bulk_pull_all(handle);
            if (!buffer) {
                req.respond_error(buffer.error());
                return;
            }
            std::lock_guard lk{m_mutex};
            auto it = m_regions.find(region);
            if (it == m_regions.end()) {
                req.respond_error(Error{Error::Code::NotFound, "no such region"});
                return;
            }
            if (!in_bounds(offset, buffer->size(), it->second.size())) {
                req.respond_error(Error{Error::Code::InvalidArgument, "write out of bounds"});
                return;
            }
            it->second.replace(offset, buffer->size(), *buffer);
            req.respond_values(true);
        });
    define<std::uint64_t, std::uint64_t, mercury::BulkHandle>(
        "read_bulk", [this](const margo::Request& req, std::uint64_t region,
                            std::uint64_t offset, const mercury::BulkHandle& handle) {
            if (!admit(req, handle.size)) return;
            std::string data;
            {
                std::lock_guard lk{m_mutex};
                auto it = m_regions.find(region);
                if (it == m_regions.end()) {
                    req.respond_error(Error{Error::Code::NotFound, "no such region"});
                    return;
                }
                if (!in_bounds(offset, handle.size, it->second.size())) {
                    req.respond_error(
                        Error{Error::Code::InvalidArgument, "read out of bounds"});
                    return;
                }
                data = it->second.substr(offset, handle.size);
            }
            if (auto st = this->instance()->bulk_push(handle, 0, data.data(), data.size());
                !st.ok()) {
                req.respond_error(st.error());
                return;
            }
            req.respond_values(true);
        });
}

void Provider::handle_write_multi(const margo::Request& req, std::uint64_t region,
                                  const std::vector<std::uint64_t>& offsets,
                                  const std::vector<std::string_view>& datas) {
    std::lock_guard lk{m_mutex};
    auto it = m_regions.find(region);
    if (it == m_regions.end()) {
        req.respond_error(Error{Error::Code::NotFound, "no such region"});
        return;
    }
    // Validate the whole batch before applying any of it, so a bad op never
    // leaves the region half-written.
    for (std::size_t i = 0; i < datas.size(); ++i) {
        if (!in_bounds(offsets[i], datas[i].size(), it->second.size())) {
            req.respond_error(Error{Error::Code::InvalidArgument, "write out of bounds"});
            return;
        }
    }
    // Applied in order under the region lock (ops in a batch may overlap),
    // but every op still reports its own span and metric count even though
    // the fabric saw a single RPC.
    for (std::size_t i = 0; i < datas.size(); ++i) {
        double t0 = margo::trace_now_us();
        it->second.replace(offsets[i], datas[i].size(), datas[i].data(), datas[i].size());
        m_bytes_written.inc(datas[i].size());
        instance()->notify_batch_op("warabi/write", datas[i].size(),
                                    margo::trace_now_us() - t0, true);
    }
    req.respond_values(true);
}

json::Value Provider::get_config() const {
    std::lock_guard lk{m_mutex};
    auto c = json::Value::object();
    c["name"] = m_config.target_name;
    c["inline_threshold"] = m_config.inline_threshold;
    c["regions"] = m_regions.size();
    return c;
}

Status Provider::dump_to_store(remi::SimFileStore& store) const {
    std::lock_guard lk{m_mutex};
    store.remove_prefix(root());
    for (const auto& [id, data] : m_regions) {
        char name[32];
        std::snprintf(name, sizeof name, "region-%016llx",
                      static_cast<unsigned long long>(id));
        if (auto st = store.write(root() + name, data); !st.ok()) return st;
    }
    return {};
}

Status Provider::load_from_store(remi::SimFileStore& store) {
    std::lock_guard lk{m_mutex};
    m_regions.clear();
    for (const auto& path : store.list(root())) {
        auto data = store.read(path);
        if (!data) return data.error();
        auto name = path.substr(root().size());
        if (name.rfind("region-", 0) != 0)
            return Error{Error::Code::Corruption, "unexpected file " + path};
        std::uint64_t id = std::stoull(name.substr(7), nullptr, 16);
        m_next_region = std::max(m_next_region, id + 1);
        m_regions[id] = std::move(*data);
    }
    return {};
}

// ---------------------------------------------------------------------------
// Bedrock module
// ---------------------------------------------------------------------------

namespace {

class WarabiComponent : public bedrock::ComponentInstance {
  public:
    explicit WarabiComponent(const bedrock::ComponentArgs& args) {
        TargetConfig cfg;
        cfg.target_name = args.config.get_string("name", "target");
        if (auto t = args.config.get_integer("inline_threshold", 0); t > 0)
            cfg.inline_threshold = static_cast<std::uint64_t>(t);
        m_provider =
            std::make_unique<Provider>(args.instance, args.provider_id, cfg, args.pool);
    }
    json::Value get_config() const override { return m_provider->get_config(); }

  private:
    std::unique_ptr<Provider> m_provider;
};

} // namespace

void register_module() {
    bedrock::ModuleDefinition module;
    module.type = "warabi";
    module.factory = [](const bedrock::ComponentArgs& args)
        -> Expected<std::unique_ptr<bedrock::ComponentInstance>> {
        return std::unique_ptr<bedrock::ComponentInstance>(new WarabiComponent(args));
    };
    bedrock::ModuleRegistry::provide("libwarabi.so", std::move(module));
}

} // namespace mochi::warabi
