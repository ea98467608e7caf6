// Warabi: Mochi's blob-storage component. A provider manages a "target"
// holding byte regions addressed by 64-bit ids; clients create regions,
// write/read byte ranges (small payloads inline, large ones via RDMA bulk),
// and erase them. Used by the paper's composition example (§3.2: component
// M stores dataset metadata in Yokan and data in Warabi).
#pragma once

#include "margo/provider.hpp"
#include "remi/sim_file_store.hpp"

#include <map>

namespace mochi::warabi {

/// Client-side handle to a remote target.
class TargetHandle : public margo::ResourceHandle {
  public:
    TargetHandle(margo::InstancePtr instance, std::string address, std::uint16_t provider_id)
    : ResourceHandle(std::move(instance), std::move(address), provider_id, "warabi") {}

    /// write_multi batches at or above this many payload bytes ride a
    /// single bulk (RDMA) pull instead of inline RPC bytes.
    static constexpr std::size_t k_bulk_threshold = 16 * 1024;

    /// Allocate a region of `size` bytes; returns its id.
    [[nodiscard]] Expected<std::uint64_t> create(std::uint64_t size) const;
    Status write(std::uint64_t region, std::uint64_t offset, const std::string& data) const;
    /// Apply N (offset, bytes) writes to one region in a single RPC. Small
    /// batches travel inline; at k_bulk_threshold total payload bytes the
    /// data rides one bulk pull (offsets inline, bytes as a segment buffer).
    /// The batch is validated whole before any byte lands, so a failed op
    /// never leaves the region half-written.
    Status write_multi(std::uint64_t region,
                       const std::vector<std::pair<std::uint64_t, std::string>>& writes) const;
    [[nodiscard]] Expected<std::string> read(std::uint64_t region, std::uint64_t offset,
                                             std::uint64_t size) const;
    Status erase(std::uint64_t region) const;
    [[nodiscard]] Expected<std::uint64_t> region_size(std::uint64_t region) const;

    /// RDMA paths for large payloads: the caller exposes a local buffer and
    /// the provider pulls/pushes it.
    Status write_bulk(std::uint64_t region, std::uint64_t offset, const char* data,
                      std::size_t size) const;
    Status read_bulk(std::uint64_t region, std::uint64_t offset, char* data,
                     std::size_t size) const;
};

struct TargetConfig {
    std::string target_name = "target";
    /// Inline-payload threshold: writes/reads above it should use the bulk
    /// API (enforced only by convention, as in Mochi).
    std::uint64_t inline_threshold = 4096;
};

class Provider : public margo::Provider {
  public:
    Provider(margo::InstancePtr instance, std::uint16_t provider_id, TargetConfig config = {},
             std::shared_ptr<abt::Pool> pool = nullptr);
    /// Quiesce handlers before m_regions/m_mutex are destroyed.
    ~Provider() override { deregister_all(); }

    [[nodiscard]] json::Value get_config() const override;

    [[nodiscard]] std::string root() const { return "/warabi/" + m_config.target_name + "/"; }
    Status dump_to_store(remi::SimFileStore& store) const;
    Status load_from_store(remi::SimFileStore& store);

  private:
    /// Shared tail of write_multi / write_multi_bulk: validate the whole
    /// batch, apply it, emit one notify_batch_op per op, reply once.
    void handle_write_multi(const margo::Request& req, std::uint64_t region,
                            const std::vector<std::uint64_t>& offsets,
                            const std::vector<std::string_view>& datas);

    TargetConfig m_config;
    // Resolved once at construction; the registry owns them.
    margo::Counter& m_regions_created; ///< warabi_regions_created_total
    margo::Counter& m_bytes_written;   ///< warabi_bytes_written_total
    margo::Counter& m_bytes_read;      ///< warabi_bytes_read_total
    mutable std::mutex m_mutex;
    std::map<std::uint64_t, std::string> m_regions;
    std::uint64_t m_next_region = 1;
};

/// Register Warabi's Bedrock module under "libwarabi.so" (idempotent).
void register_module();

} // namespace mochi::warabi
