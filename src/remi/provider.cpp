#include "remi/provider.hpp"
#include "bedrock/component.hpp"
#include "common/logging.hpp"
#include "margo/tracing.hpp"

#include <atomic>

namespace mochi::remi {

namespace {

struct ChunkEntry {
    std::string path;
    std::uint64_t offset = 0;
    std::string data;
    std::uint8_t last = 1; ///< final piece of this file

    template <typename A>
    void serialize(A& ar) {
        ar& path& offset& data& last;
    }
};

} // namespace

Fileset Fileset::scan(const SimFileStore& store, std::string root) {
    Fileset fs;
    fs.files = store.list(root);
    fs.root = std::move(root);
    return fs;
}

Provider::Provider(margo::InstancePtr instance, std::uint16_t provider_id,
                   std::shared_ptr<abt::Pool> pool)
: margo::Provider(std::move(instance), provider_id, "remi", std::move(pool)),
  m_store(SimFileStore::for_node(this->instance()->address())) {
    // RDMA path: the source exposes the file contents; we pull them in one
    // bulk transfer and write the file locally.
    define<std::string, mercury::BulkHandle>(
        "fetch_rdma", [this](const margo::Request& req, const std::string& path,
                             const mercury::BulkHandle& handle) {
            auto buffer = this->instance()->bulk_pull_all(handle);
            if (!buffer) {
                req.respond_error(buffer.error());
                return;
            }
            if (auto st = m_store->write(path, std::move(*buffer)); !st.ok()) {
                req.respond_error(st.error());
                return;
            }
            req.respond_values(true);
        });
    // Chunk path: a batch of (possibly partial) small files packed together.
    define<std::vector<ChunkEntry>>("write_chunk", [this](const margo::Request& req,
                                                          std::vector<ChunkEntry>& entries) {
        for (auto& e : entries) {
            Status st = e.offset == 0 ? m_store->write(e.path, std::move(e.data))
                                      : m_store->append(e.path, e.data);
            if (!st.ok()) {
                req.respond_error(st.error());
                return;
            }
        }
        req.respond_values(true);
    });
}

json::Value Provider::get_config() const {
    auto c = json::Value::object();
    c["type"] = "remi";
    c["files"] = m_store->file_count();
    c["bytes"] = m_store->total_bytes();
    return c;
}

namespace {

Expected<MigrationStats> migrate_rdma(const margo::InstancePtr& instance,
                                      const std::shared_ptr<SimFileStore>& store,
                                      const Fileset& fileset, const std::string& dest,
                                      std::uint16_t provider_id,
                                      const MigrationOptions& options) {
    MigrationStats stats;
    margo::ForwardOptions fopts;
    fopts.provider_id = provider_id;
    fopts.timeout = options.rpc_timeout;
    for (const auto& path : fileset.files) {
        auto data = store->read(path);
        if (!data) return data.error();
        // "memory mapping the files and using RDMA to transfer the data"
        auto handle = instance->expose(data->data(), data->size(), /*writable=*/false);
        auto r = instance->call<bool>(dest, "remi/fetch_rdma", fopts, path, handle);
        instance->unexpose(handle.id);
        if (!r) return std::move(r).error();
        ++stats.files;
        ++stats.messages;
        stats.bytes += data->size();
    }
    return stats;
}

Expected<MigrationStats> migrate_chunks(const margo::InstancePtr& instance,
                                        const std::shared_ptr<SimFileStore>& store,
                                        const Fileset& fileset, const std::string& dest,
                                        std::uint16_t provider_id,
                                        const MigrationOptions& options) {
    // Build the chunk list: files are "packed together into larger chunks";
    // files bigger than the chunk size are split at chunk boundaries.
    std::vector<std::vector<ChunkEntry>> chunks;
    std::vector<ChunkEntry> current;
    std::size_t current_bytes = 0;
    MigrationStats stats;
    auto flush = [&] {
        if (!current.empty()) {
            chunks.push_back(std::move(current));
            current.clear();
            current_bytes = 0;
        }
    };
    for (const auto& path : fileset.files) {
        auto data = store->read(path);
        if (!data) return data.error();
        stats.bytes += data->size();
        ++stats.files;
        std::size_t offset = 0;
        do {
            std::size_t room = options.chunk_size - current_bytes;
            if (room == 0) {
                flush();
                room = options.chunk_size;
            }
            std::size_t take = std::min(room, data->size() - offset);
            ChunkEntry e;
            e.path = path;
            e.offset = offset;
            e.data = data->substr(offset, take);
            offset += take;
            e.last = offset == data->size() ? 1 : 0;
            current_bytes += take;
            current.push_back(std::move(e));
        } while (offset < data->size());
    }
    flush();
    stats.messages = chunks.size();

    // Pipeline: `pipeline_width` ULTs ship chunks concurrently; chunks
    // touching the same file stay ordered because splitting only crosses a
    // chunk boundary at flush points, and offsets make writes idempotent in
    // position. To be safe we ship same-file continuation chunks in order by
    // assigning chunks to workers round-robin *in sequence* and having each
    // worker process its assignment in order.
    margo::ForwardOptions fopts;
    fopts.provider_id = provider_id;
    fopts.timeout = options.rpc_timeout;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::string first_error;
    std::mutex error_mutex;
    int width = std::max(1, options.pipeline_width);
    // A file split across chunks lands in *consecutive* chunks; process them
    // with a single worker when width > 1 would break append ordering. We
    // sidestep this by noting that ChunkEntry::offset==0 rewrites the file
    // and appends carry explicit contiguity from split order; to keep the
    // implementation simple and correct we serialize multi-chunk files:
    // chunk i may only be sent once chunk i-1 for the same file completed.
    // The chunk builder splits large files into consecutive chunks, so a
    // conservative and simple approach is: workers claim chunks in order and
    // a chunk whose first entry has offset != 0 waits for the previous chunk
    // index to complete.
    std::vector<std::atomic<bool>> done(chunks.size());
    for (auto& d : done) d.store(false);
    // Worker ULTs have a fresh user_context; carry the migration's ambient
    // RPC/trace context across the post so the write_chunk forwards keep
    // their parent attribution and stay on the caller's trace.
    margo::RpcContext ctx = margo::current_rpc_context();
    auto worker = [&, ctx] {
        margo::ContextScope scope{ctx};
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= chunks.size() || failed.load()) return;
            if (!chunks[i].empty() && chunks[i].front().offset != 0) {
                // Wait for the previous chunk (same file's earlier piece).
                while (i > 0 && !done[i - 1].load() && !failed.load()) abt::yield();
                // A failure may be what ended the wait: shipping chunk i now
                // would append a continuation out of order onto a file whose
                // earlier piece never landed.
                if (i > 0 && !done[i - 1].load()) return;
            }
            auto r = instance->call<bool>(dest, "remi/write_chunk", fopts, chunks[i]);
            if (!r) {
                std::lock_guard lk{error_mutex};
                if (!failed.exchange(true)) first_error = r.error().message;
                return;
            }
            done[i].store(true);
        }
    };
    auto rt = instance->runtime();
    std::vector<abt::ThreadHandle> handles;
    for (int w = 0; w < width; ++w) handles.push_back(rt->post_thread(rt->primary_pool(), worker));
    for (auto& h : handles) h.join();
    if (failed.load()) return Error{Error::Code::Generic, "chunk migration failed: " + first_error};
    return stats;
}

} // namespace

Expected<MigrationStats> migrate(const margo::InstancePtr& instance,
                                 const std::shared_ptr<SimFileStore>& store,
                                 const Fileset& fileset, const std::string& dest_address,
                                 std::uint16_t dest_provider_id,
                                 const MigrationOptions& options) {
    auto t0 = std::chrono::steady_clock::now();
    auto result = options.method == Method::Rdma
                      ? migrate_rdma(instance, store, fileset, dest_address,
                                     dest_provider_id, options)
                      : migrate_chunks(instance, store, fileset, dest_address,
                                       dest_provider_id, options);
    if (!result) return result;
    if (options.remove_source)
        for (const auto& path : fileset.files) (void)store->remove(path);
    result->duration_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    auto& metrics = *instance->metrics();
    metrics.counter("remi_migrations_total").inc();
    metrics.counter("remi_migrated_files_total").inc(result->files);
    metrics.counter("remi_migrated_bytes_total").inc(result->bytes);
    metrics.histogram("remi_migration_duration_us").observe(result->duration_us);
    log::debug("remi", "migrated %zu files (%zu bytes) to %s in %.0f us", result->files,
               result->bytes, dest_address.c_str(), result->duration_us);
    return result;
}

namespace {

class RemiComponent : public bedrock::ComponentInstance {
  public:
    explicit RemiComponent(const bedrock::ComponentArgs& args)
    : m_provider(args.instance, args.provider_id, args.pool) {}
    json::Value get_config() const override { return m_provider.get_config(); }

  private:
    Provider m_provider;
};

} // namespace

void register_module() {
    bedrock::ModuleDefinition module;
    module.type = "remi";
    module.factory = [](const bedrock::ComponentArgs& args)
        -> Expected<std::unique_ptr<bedrock::ComponentInstance>> {
        return std::unique_ptr<bedrock::ComponentInstance>(new RemiComponent(args));
    };
    bedrock::ModuleRegistry::provide("libremi.so", std::move(module));
}

} // namespace mochi::remi
