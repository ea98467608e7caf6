// Yokan: Mochi's node-based key-value component, following Figure 1's
// anatomy exactly: a server library (Provider + pluggable Backend resource),
// a client library (Database resource handle), JSON configuration, and the
// dynamic-service hooks the paper adds — REMI-based migration (§6),
// checkpoint/restore to the parallel file system (§7 Obs. 9), and the
// "virtual database" replication mode (§7 Obs. 10).
//
// Epoch guard (the elastic service's piggybacked invalidation): every data
// RPC leads with the sender's layout epoch and every reply leads with the
// provider's. A request whose epoch is older than the provider's is answered
// with a retryable Conflict error carrying the current epoch (and, when
// small, the serialized layout itself), so a stale client repairs its cache
// from the rejection without a directory round trip. Epoch 0 means
// "unguarded" on either side — standalone Yokan deployments never pay for
// the mechanism.
#pragma once

#include "common/hash.hpp"
#include "margo/metrics.hpp"
#include "margo/provider.hpp"
#include "remi/provider.hpp"
#include "yokan/backend.hpp"

namespace mochi::yokan {

/// Shared send/observe epoch state: a client wires one EpochContext into
/// every Database handle it creates; `epoch` is attached to outgoing
/// requests and `observed` tracks the newest provider epoch seen in any
/// reply (the piggybacked hint that the layout moved on).
struct EpochContext {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> observed{0};

    void observe(std::uint64_t e) noexcept {
        auto cur = observed.load(std::memory_order_relaxed);
        while (e > cur &&
               !observed.compare_exchange_weak(cur, e, std::memory_order_relaxed)) {
        }
    }
};

/// Marker prefix of a stale-epoch rejection's error message. The message is
/// transported verbatim (binary-safe) by margo's error path, so the current
/// epoch and the layout blob ride inside it.
inline constexpr std::string_view k_stale_epoch_tag = "stale-epoch\x1f";

[[nodiscard]] inline Error make_stale_epoch_error(std::uint64_t epoch,
                                                  const std::string& layout_blob) {
    std::string msg{k_stale_epoch_tag};
    char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((epoch >> (8 * i)) & 0xFF);
    msg.append(bytes, 8);
    msg += layout_blob;
    return Error{Error::Code::Conflict, std::move(msg)};
}

/// Decode a stale-epoch rejection; `layout_blob` may come back empty when
/// the provider judged its layout too large to piggyback.
[[nodiscard]] inline bool decode_stale_epoch(const Error& err, std::uint64_t& epoch,
                                             std::string& layout_blob) {
    if (err.code != Error::Code::Conflict) return false;
    if (err.message.size() < k_stale_epoch_tag.size() + 8) return false;
    if (err.message.compare(0, k_stale_epoch_tag.size(), k_stale_epoch_tag) != 0)
        return false;
    epoch = 0;
    for (int i = 0; i < 8; ++i)
        epoch |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                     err.message[k_stale_epoch_tag.size() + static_cast<std::size_t>(i)]))
                 << (8 * i);
    layout_blob = err.message.substr(k_stale_epoch_tag.size() + 8);
    return true;
}

/// Client-side handle to a remote (or virtual) database (Figure 1's
/// "resource handle").
class Database : public margo::ResourceHandle {
  public:
    Database(margo::InstancePtr instance, std::string address, std::uint16_t provider_id,
             std::shared_ptr<EpochContext> epoch_context = nullptr)
    : ResourceHandle(std::move(instance), std::move(address), provider_id, "yokan"),
      m_epoch_context(std::move(epoch_context)) {}

    /// put_multi batches at or above this many payload bytes ride a single
    /// bulk (RDMA) pull instead of inline RPC bytes.
    static constexpr std::size_t k_bulk_threshold = 16 * 1024;

    Status put(const std::string& key, const std::string& value) const;
    [[nodiscard]] Expected<std::string> get(const std::string& key) const;
    [[nodiscard]] Expected<bool> exists(const std::string& key) const;
    Status erase(const std::string& key) const;
    [[nodiscard]] Expected<std::uint64_t> count() const;
    /// Store N pairs in one RPC (inline payload, or one bulk transfer when
    /// the batch reaches k_bulk_threshold). The server executes the batch
    /// across its handler pool's ULTs and replies once.
    Status put_multi(const std::vector<std::pair<std::string, std::string>>& pairs) const;
    [[nodiscard]] Expected<std::vector<std::optional<std::string>>>
    get_multi(const std::vector<std::string>& keys) const;
    /// Fire-and-wait-later variants. The reply leads with the provider's
    /// epoch: the returned handle's wait_unpack<std::uint64_t, bool>() /
    /// wait_unpack<std::uint64_t, std::vector<...>>() yields it alongside
    /// the result; callers overlap batches to several providers
    /// (elastic_kv's shard fan-out) or pipeline consecutive batches (the
    /// Batcher).
    [[nodiscard]] margo::AsyncRequest
    put_multi_async(const std::vector<std::pair<std::string, std::string>>& pairs) const;
    [[nodiscard]] margo::AsyncRequest
    get_multi_async(const std::vector<std::string>& keys) const;
    /// Erase several keys; returns how many existed and were removed.
    [[nodiscard]] Expected<std::uint64_t>
    erase_multi(const std::vector<std::string>& keys) const;
    [[nodiscard]] Expected<std::vector<std::string>>
    list_keys(const std::string& from = "", const std::string& prefix = "",
              std::uint64_t max = 0) const;
    /// Paginated key-value listing (the scan primitive of Yokan's API).
    [[nodiscard]] Expected<std::vector<std::pair<std::string, std::string>>>
    list_keyvals(const std::string& from = "", const std::string& prefix = "",
                 std::uint64_t max = 0) const;
    /// Total bytes stored in the database.
    [[nodiscard]] Expected<std::uint64_t> size_bytes() const;

    // -- control plane (unguarded; the elastic controller drives these) -------

    /// Hand the provider a new layout epoch (+ blob); adopted when newer.
    Status update_epoch(std::uint64_t epoch, const std::string& layout_blob) const;
    /// Copy the keys whose ring hash falls in [begin, end) (end 0 == 2^64)
    /// into bundle files under `dest_root` + `file_prefix` and ship them to
    /// `dest_address`'s REMI provider (files stay local when the
    /// destination is this provider's own node). Source keys are NOT
    /// erased — the split protocol flips the layout first and cleans up
    /// with erase_range afterwards, so reads never miss. Returns the number
    /// of pairs extracted.
    [[nodiscard]] Expected<std::uint64_t>
    extract_range(std::uint64_t begin, std::uint64_t end, const std::string& dest_root,
                  const std::string& file_prefix, const std::string& dest_address,
                  const std::string& method = "chunks",
                  std::uint16_t remi_provider_id = 1) const;
    /// Erase every key whose ring hash falls in [begin, end); returns the
    /// number erased (the post-flip cleanup of a split).
    [[nodiscard]] Expected<std::uint64_t> erase_range(std::uint64_t begin,
                                                      std::uint64_t end) const;
    /// Load (and delete) staged bundle files under root() + `file_prefix`
    /// into the live database — the landing half of a shard split or merge.
    /// Put-if-absent: a key already present here arrived *after* the layout
    /// flip that froze the staged range, so the local copy wins.
    [[nodiscard]] Expected<std::uint64_t> absorb(const std::string& file_prefix) const;

    [[nodiscard]] const std::shared_ptr<EpochContext>& epoch_context() const noexcept {
        return m_epoch_context;
    }

  private:
    [[nodiscard]] std::uint64_t send_epoch() const noexcept {
        return m_epoch_context ? m_epoch_context->epoch.load(std::memory_order_relaxed) : 0;
    }
    void observe(std::uint64_t e) const noexcept {
        if (m_epoch_context) m_epoch_context->observe(e);
    }

    std::shared_ptr<EpochContext> m_epoch_context;
};

/// Opt-in client-side op coalescing: put() enqueues locally and whole
/// batches leave as single put_multi RPCs (sent asynchronously, so
/// consecutive batches pipeline). A batch flushes when it reaches
/// `max_ops` operations or `max_bytes` payload bytes; with `max_delay` > 0
/// a timer also flushes a partial batch that sat too long, bounding the
/// latency a coalesced op can pay. Errors surface at drain(): the returned
/// status is the first failed batch's error.
///
/// Thread-safe; put() never blocks on the network. The destructor flushes
/// and drains (dropping any error), so explicitly drain() when failures
/// matter.
class Batcher {
  public:
    struct Options {
        std::size_t max_ops = 32;
        std::size_t max_bytes = 1 << 20;
        std::chrono::milliseconds max_delay{0}; ///< 0 = no time-based flush
    };
    struct Stats {
        std::uint64_t ops_enqueued = 0;
        std::uint64_t batches_sent = 0;
        std::uint64_t largest_batch = 0;
    };

    explicit Batcher(Database db);
    Batcher(Database db, Options options);
    ~Batcher();
    Batcher(const Batcher&) = delete;
    Batcher& operator=(const Batcher&) = delete;

    /// Enqueue one put; may send a full batch on its way out.
    void put(std::string key, std::string value);
    /// Send whatever is queued now (async; does not wait).
    void flush();
    /// Flush, then wait for every outstanding batch; first error wins.
    Status drain();
    [[nodiscard]] Stats stats() const;

  private:
    struct Inner;
    std::shared_ptr<Inner> m_inner;
};

struct ProviderConfig {
    std::string db_name = "db";
    std::string backend = "map";
    /// Non-empty => virtual database (§7 Obs. 10): every write fans out to
    /// these replicas ("type:id@address" dependency-style specs), reads are
    /// served by the first reachable replica. The provider holds no data.
    std::vector<std::string> targets;

    static Expected<ProviderConfig> from_json(const json::Value& config);
    [[nodiscard]] json::Value to_json() const;
};

class Provider : public margo::Provider {
  public:
    Provider(margo::InstancePtr instance, std::uint16_t provider_id, ProviderConfig config,
             std::shared_ptr<abt::Pool> pool = nullptr);
    /// Quiesce handlers before the backend is destroyed.
    ~Provider() override;

    [[nodiscard]] json::Value get_config() const override;

    /// Direct (in-process) access to the backend, used by service glue like
    /// the RAFT state machine adapter.
    [[nodiscard]] Backend* backend() noexcept { return m_backend.get(); }

    // -- epoch guard -----------------------------------------------------------

    /// Adopt `epoch` (and the layout blob piggybacked into stale-epoch
    /// rejections) if newer than what the provider holds. Also reachable
    /// remotely (update_epoch RPC) and via SSG payload dissemination
    /// (apply_epoch_update below).
    void set_epoch(std::uint64_t epoch, std::string layout_blob);
    [[nodiscard]] std::uint64_t epoch() const noexcept {
        return m_epoch.load(std::memory_order_acquire);
    }

    /// Layout blobs at or under this size ride inside stale-epoch
    /// rejections; larger ones force the client to refresh explicitly.
    static constexpr std::size_t k_epoch_piggyback_limit = 8 * 1024;

    // -- dynamic-service hooks -------------------------------------------------

    /// Serialize the database into files under root() in `store` (one file
    /// per bundle of pairs, so REMI has a multi-file fileset to migrate).
    Status dump_to_store(remi::SimFileStore& store) const;
    /// Load the database from files under root() (invoked automatically at
    /// construction when such files exist — the post-migration re-attach).
    Status load_from_store(remi::SimFileStore& store);
    /// Fileset root for this database: "/yokan/<db_name>/".
    [[nodiscard]] std::string root() const { return "/yokan/" + m_config.db_name + "/"; }

    /// §6: migrate the database files to the REMI provider at the
    /// destination. `options` accepts {"method": "rdma"|"chunks",
    /// "chunk_size": N, "remi_provider_id": N}.
    Status migrate_data(const std::string& dest_address, const json::Value& options);

    /// §7 Obs. 9: checkpoint/restore against the shared PFS store.
    Status checkpoint_data(const std::string& path) const;
    Status restore_data(const std::string& path);

    // -- shard split/merge primitives (see Database wrappers) ------------------

    Expected<std::uint64_t> extract_range(std::uint64_t begin, std::uint64_t end,
                                          const std::string& dest_root,
                                          const std::string& file_prefix,
                                          const std::string& dest_address,
                                          const json::Value& options);
    Expected<std::uint64_t> erase_range(std::uint64_t begin, std::uint64_t end);
    Expected<std::uint64_t> absorb(const std::string& file_prefix);

    static constexpr std::uint16_t k_default_remi_provider_id = 1;
    static constexpr std::size_t k_pairs_per_file = 128;

  private:
    void define_rpcs();
    /// Define an epoch-guarded data RPC whose payload is (epoch, Args...):
    /// the body runs only after check_epoch() and then admit(), which
    /// charges the request payload size. Ops whose cost is not the payload
    /// (put_multi_bulk) define their guard by hand.
    template <typename... Args, typename F>
    void define_data_op(const std::string& op, F fn);
    /// Epoch guard shared by every data RPC: true when the request may
    /// proceed; otherwise the stale-epoch rejection was already sent.
    bool check_epoch(const margo::Request& req, std::uint64_t req_epoch) const;
    /// Vectored batch execution (shared by put_multi and put_multi_bulk):
    /// runs the pairs across the handler pool's ULTs, emitting one
    /// notify_batch_op per pair, and replies once. Keys are zero-copy views
    /// into the request payload (or the pulled bulk buffer), both of which
    /// outlive this call.
    void handle_put_multi(const margo::Request& req,
                          std::vector<std::pair<std::string_view, std::string>>&& pairs);
    /// Virtual mode: reply (epoch, result) from the first replica whose
    /// `op(replica)` succeeds, or Unreachable when none does.
    template <typename Op>
    void respond_from_replicas(const margo::Request& req, Op op) const;
    Status virtual_put(std::string_view key, const std::string& value);
    Expected<std::string> virtual_get(std::string_view key) const;

    ProviderConfig m_config;
    std::unique_ptr<Backend> m_backend; ///< null in virtual mode
    std::vector<Database> m_replicas;   ///< virtual mode targets

    /// Counters, resolved once at construction (the registry owns them).
    /// The per-provider ones (`yokan_provider_<id>_*`) sit next to the
    /// process-global ones: in an elastic layout each shard is one provider,
    /// so these are what lets a metrics scraper attribute load to individual
    /// shards.
    margo::Counter& m_puts;        ///< yokan_puts_total
    margo::Counter& m_gets;        ///< yokan_gets_total
    margo::Counter& m_stale_total; ///< yokan_stale_epoch_rejections_total
    margo::Counter& m_ops;
    margo::Counter& m_stale;

    std::atomic<std::uint64_t> m_epoch{0};
    mutable std::mutex m_epoch_mutex; ///< guards m_layout_blob
    std::string m_layout_blob;
};

/// Push a layout epoch into every Yokan provider living on `instance` (the
/// SSG payload callback's entry point: gossip delivers the blob to a node,
/// the node applies it to its local shards without any controller RPC).
void apply_epoch_update(const margo::InstancePtr& instance, std::uint64_t epoch,
                        const std::string& layout_blob);

/// Register Yokan's Bedrock module under library name "libyokan.so"
/// (idempotent). The module declares an optional "remi" dependency used for
/// provider migration, mirroring §6 Observation 5.
void register_module();

} // namespace mochi::yokan
