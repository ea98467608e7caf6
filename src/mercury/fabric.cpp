#include "mercury/fabric.hpp"
#include "common/logging.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace mochi::mercury {

// ---------------------------------------------------------------------------
// Endpoint
// ---------------------------------------------------------------------------

Endpoint::Endpoint(std::shared_ptr<Fabric> fabric, std::string address, MessageHandler handler)
: m_fabric(std::move(fabric)), m_address(std::move(address)), m_handler(std::move(handler)) {
    m_attached.store(true);
}

Endpoint::~Endpoint() { detach(); }

void Endpoint::detach() {
    bool was = m_attached.exchange(false);
    if (was) {
        m_fabric->do_detach(m_address);
        // Quiesce: deliveries hold m_deliver_mutex shared while invoking the
        // handler, so acquiring it exclusively waits out any invocation that
        // passed the m_attached check before the exchange above.
        std::unique_lock lk{m_deliver_mutex};
    }
}

Status Endpoint::send(const std::string& dst, Message msg) {
    if (!m_attached.load())
        return Error{Error::Code::InvalidState, "endpoint is detached"};
    msg.source = m_address;
    return m_fabric->send_from(m_address, dst, std::move(msg));
}

BulkHandle Endpoint::expose(char* data, std::size_t size, bool writable) {
    std::uint64_t id = m_next_region_id.fetch_add(1);
    {
        std::lock_guard lk{m_regions_mutex};
        m_regions[id] = BulkRegion{data, size, writable};
    }
    return BulkHandle{m_address, id, size};
}

void Endpoint::unexpose(std::uint64_t id) {
    std::lock_guard lk{m_regions_mutex};
    m_regions.erase(id);
}

Expected<double> Endpoint::bulk_pull(const BulkHandle& remote, std::size_t remote_offset,
                                     char* local, std::size_t size) {
    return m_fabric->bulk_op(m_address, remote, remote_offset, local, size, /*pull=*/true);
}

Expected<double> Endpoint::bulk_push(const BulkHandle& remote, std::size_t remote_offset,
                                     const char* local, std::size_t size) {
    return m_fabric->bulk_op(m_address, remote, remote_offset, const_cast<char*>(local), size,
                             /*pull=*/false);
}

Expected<double> Endpoint::bulk_pull_all(const BulkHandle& remote, std::string& out) {
    return m_fabric->bulk_op(m_address, remote, 0, nullptr, remote.size, /*pull=*/true, &out);
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_fabric_uid{1};
} // namespace

Fabric::Fabric(LinkModel default_link, std::uint64_t seed)
: m_default_link(default_link), m_rng(seed), m_epoch(std::chrono::steady_clock::now()),
  m_uid(g_fabric_uid.fetch_add(1, std::memory_order_relaxed)) {}

std::shared_ptr<Fabric> Fabric::create(LinkModel default_link, std::uint64_t seed) {
    return std::shared_ptr<Fabric>(new Fabric(default_link, seed));
}

Fabric::~Fabric() {
    // Lightweight instances were shut down before the fabric goes: their
    // runtimes unregistered from the executor and stopped their child
    // timers, so stopping the shared resources here is quiescent.
    m_lite_executor.reset();
    if (m_lite_timer) m_lite_timer->stop();
    m_timer.stop();
}

abt::Executor& Fabric::lite_executor() {
    std::call_once(m_lite_once, [this] {
        m_lite_executor = std::make_unique<abt::Executor>();
        m_lite_timer = std::make_unique<abt::Timer>();
    });
    return *m_lite_executor;
}

abt::Timer& Fabric::lite_timer() {
    (void)lite_executor(); // both are created together
    return *m_lite_timer;
}

double Fabric::now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - m_epoch)
        .count();
}

Expected<std::shared_ptr<Endpoint>> Fabric::attach(std::string address,
                                                   Endpoint::MessageHandler handler) {
    std::lock_guard lk{m_mutex};
    auto it = m_endpoints.find(address);
    if (it != m_endpoints.end() && !it->second.expired())
        return Error{Error::Code::AlreadyExists, "address already attached: " + address};
    auto ep = std::shared_ptr<Endpoint>(
        new Endpoint(shared_from_this(), address, std::move(handler)));
    m_endpoints[ep->address()] = ep;
    bump_epoch_locked();
    return ep;
}

void Fabric::do_detach(const std::string& addr) {
    std::lock_guard lk{m_mutex};
    m_endpoints.erase(addr);
    bump_epoch_locked();
}

void Fabric::cut(const std::string& a, const std::string& b) {
    std::lock_guard lk{m_mutex};
    m_cuts.insert({a, b});
    m_cuts.insert({b, a});
    bump_epoch_locked();
}

void Fabric::heal(const std::string& a, const std::string& b) {
    std::lock_guard lk{m_mutex};
    m_cuts.erase({a, b});
    m_cuts.erase({b, a});
    bump_epoch_locked();
}

void Fabric::heal_all() {
    std::lock_guard lk{m_mutex};
    m_cuts.clear();
    bump_epoch_locked();
}

void Fabric::set_link(const std::string& src, const std::string& dst, LinkModel model) {
    std::lock_guard lk{m_mutex};
    m_links[{src, dst}] = model;
    bump_epoch_locked();
}

void Fabric::set_default_link(LinkModel model) {
    std::lock_guard lk{m_mutex};
    m_default_link = model;
    bump_epoch_locked();
}

void Fabric::set_fast_path_enabled(bool enabled) {
    std::lock_guard lk{m_mutex};
    m_fast_path_enabled.store(enabled, std::memory_order_relaxed);
    bump_epoch_locked();
}

std::vector<std::string> Fabric::attached() const {
    std::lock_guard lk{m_mutex};
    std::vector<std::string> out;
    for (const auto& [addr, wp] : m_endpoints)
        if (!wp.expired()) out.push_back(addr);
    return out;
}

bool Fabric::is_attached(const std::string& addr) const {
    std::lock_guard lk{m_mutex};
    auto it = m_endpoints.find(addr);
    return it != m_endpoints.end() && !it->second.expired();
}

bool Fabric::link_blocked(const std::string& src, const std::string& dst) const {
    return m_cuts.count({src, dst}) > 0;
}

LinkModel Fabric::link_model(const std::string& src, const std::string& dst) const {
    auto it = m_links.find({src, dst});
    return it == m_links.end() ? m_default_link : it->second;
}

double Fabric::reserve_link_us(const std::string& src, const std::string& dst,
                               std::size_t bytes) {
    // Serialize transfers sharing a directional link: a transfer starts when
    // the link frees up and occupies it for size/bandwidth.
    LinkModel model = link_model(src, dst);
    double now = now_us();
    double transfer = model.transfer_us(bytes);
    double& busy_until = m_link_state[{src, dst}].busy_until_us;
    double start = std::max(now, busy_until);
    busy_until = start + transfer;
    double completion = start + transfer + model.latency_us;
    return completion - now;
}

void Fabric::schedule_delivery(LinkState& link, const std::shared_ptr<Endpoint>& target,
                               Message msg, double at_us) {
    auto deadline = m_epoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double, std::micro>(at_us));
    link.pending.fetch_add(1);
    // A weak reference: a queued message must not keep its endpoint (and,
    // through it, this fabric) alive, or the timer thread could end up
    // destroying the fabric that owns it.
    m_timer.schedule_at(deadline, [this, &link, wep = std::weak_ptr<Endpoint>(target),
                                   m = std::move(msg)]() mutable {
        if (auto ep = wep.lock()) deliver(*ep, std::move(m));
        link.pending.fetch_sub(1);
    });
}

void Fabric::deliver(Endpoint& target, Message msg) {
    std::shared_lock lk{target.m_deliver_mutex};
    if (!target.m_attached.load()) return; // crashed meanwhile
    m_delivered.fetch_add(1, std::memory_order_relaxed);
    target.m_handler(std::move(msg));
}

bool Fabric::validate_fast_entry(const std::string& src, const std::string& dst,
                                 FastSendCacheEntry& entry) {
    std::lock_guard lk{m_mutex};
    entry.fabric_uid = m_uid;
    entry.epoch = m_topology_epoch.load(std::memory_order_relaxed);
    entry.src = src;
    entry.dst = dst;
    entry.eligible = false;
    entry.target.reset();
    if (!m_fast_path_enabled.load(std::memory_order_relaxed)) return false;
    auto it = m_endpoints.find(dst);
    std::shared_ptr<Endpoint> target;
    if (it == m_endpoints.end() || !(target = it->second.lock())) return false;
    if (link_blocked(src, dst)) return false;
    // Eligible only when the model would have delivered inline anyway
    // (latency below the timer's 1 µs scheduling threshold, no bandwidth
    // serialization) and no fault knob needs the per-message RNG roll — so
    // the fast path changes the delivery mechanism, not the timing model.
    LinkModel model = link_model(src, dst);
    if (model.loss_probability > 0.0 || model.duplicate_probability > 0.0 ||
        model.jitter_us > 0.0 || model.bandwidth_bytes_per_us > 0.0 || model.latency_us >= 1.0)
        return false;
    entry.target = target;
    entry.eligible = true;
    return true;
}

bool Fabric::try_fast_send(const std::string& src, const std::string& dst, Message& msg) {
    // Per-thread cache of recent (fabric, src, dst) verdicts. Entries hold
    // weak_ptrs only, so a long-lived idle thread cannot pin endpoints.
    constexpr std::size_t k_cache_slots = 8;
    thread_local std::array<FastSendCacheEntry, k_cache_slots> tl_cache;
    thread_local std::size_t tl_evict = 0;

    FastSendCacheEntry* entry = nullptr;
    for (auto& e : tl_cache) {
        if (e.fabric_uid == m_uid && e.src == src && e.dst == dst) {
            entry = &e;
            break;
        }
    }
    if (entry == nullptr) {
        entry = &tl_cache[tl_evict];
        tl_evict = (tl_evict + 1) % k_cache_slots;
        validate_fast_entry(src, dst, *entry);
    } else if (entry->epoch != m_topology_epoch.load(std::memory_order_acquire)) {
        validate_fast_entry(src, dst, *entry);
    }
    if (!entry->eligible) return false;
    std::shared_ptr<Endpoint> target = entry->target.lock();
    if (!target) {
        entry->eligible = false;
        return false; // let the slow path produce Unreachable
    }
    // The delivery must hold m_deliver_mutex shared, exactly like the slow
    // path's deliver(): Endpoint::detach() quiesces by taking it
    // exclusively after clearing m_attached, and the receiving instance
    // only finalizes its runtime after detach() returns. Without the lock,
    // the handler could still be running into the receiver while that
    // runtime is being torn down.
    std::shared_lock deliver_lk{target->m_deliver_mutex};
    if (!target->m_attached.load(std::memory_order_acquire)) {
        entry->eligible = false;
        return false;
    }
    m_delivered.fetch_add(1, std::memory_order_relaxed);
    target->m_handler(std::move(msg));
    return true;
}

Status Fabric::send_from(const std::string& src, const std::string& dst, Message msg) {
    if (m_fast_path_enabled.load(std::memory_order_relaxed) &&
        try_fast_send(src, dst, msg))
        return {};
    std::shared_ptr<Endpoint> target;
    {
        std::lock_guard lk{m_mutex};
        auto it = m_endpoints.find(dst);
        if (it == m_endpoints.end() || !(target = it->second.lock()))
            return Error{Error::Code::Unreachable, "no endpoint at address " + dst};
        if (link_blocked(src, dst))
            return {}; // partition: silent drop (sender sees a timeout)
        LinkModel model = link_model(src, dst);
        std::uniform_real_distribution<double> dist{0.0, 1.0};
        if (model.loss_probability > 0.0 && dist(m_rng) < model.loss_probability) return {};
        LinkState& link = m_link_state[{src, dst}];
        double now = now_us();
        // Jitter (and mid-run model changes) must not reorder a link's
        // messages: each lands at or after the last one handed out.
        auto arrival_us = [&] {
            double at = now + reserve_link_us(src, dst, msg.payload.size());
            if (model.jitter_us > 0.0) at += dist(m_rng) * model.jitter_us;
            link.last_delivery_us = std::max(at, link.last_delivery_us);
            return link.last_delivery_us;
        };
        double at_us = arrival_us();
        // The duplicate occupies the link like a real retransmission and
        // gets its own jitter, so it arrives after the original (per-link
        // FIFO still holds; the redundant copy may land mid-handling).
        bool duplicate =
            model.duplicate_probability > 0.0 && dist(m_rng) < model.duplicate_probability;
        // Inline delivery (below the timer's 1 µs resolution) must not
        // overtake a message of this link still waiting in the timer.
        if (duplicate || at_us - now >= 1.0 || link.pending.load() != 0) {
            if (duplicate) {
                double dup_at_us = arrival_us();
                schedule_delivery(link, target, msg, at_us);
                schedule_delivery(link, target, std::move(msg), dup_at_us);
            } else {
                schedule_delivery(link, target, std::move(msg), at_us);
            }
            return {};
        }
    }
    deliver(*target, std::move(msg));
    return {};
}

Expected<double> Fabric::bulk_op(const std::string& src, const BulkHandle& remote,
                                 std::size_t remote_offset, char* local, std::size_t size,
                                 bool pull, std::string* resize) {
    std::shared_ptr<Endpoint> target;
    {
        std::lock_guard lk{m_mutex};
        auto it = m_endpoints.find(remote.address);
        if (it == m_endpoints.end() || !(target = it->second.lock()))
            return Error{Error::Code::Unreachable, "no endpoint at address " + remote.address};
        if (link_blocked(src, remote.address))
            return Error{Error::Code::Timeout, "bulk transfer timed out (link cut)"};
    }
    // Caller holds target->m_regions_mutex.
    auto checked_region = [&]() -> Expected<BulkRegion> {
        auto rit = target->m_regions.find(remote.id);
        if (rit == target->m_regions.end())
            return Error{Error::Code::NotFound, "bulk region not exposed"};
        const BulkRegion& region = rit->second;
        // Written so that no sum can wrap past 2^64.
        if (remote_offset > region.size || size > region.size - remote_offset)
            return Error{Error::Code::InvalidArgument, "bulk transfer out of bounds"};
        if (!pull && !region.writable)
            return Error{Error::Code::PermissionDenied, "bulk region is read-only"};
        return region;
    };
    if (resize != nullptr) {
        // Sized only once the owner has confirmed the region holds `size`
        // bytes, but outside the region lock, so a large buffer's page
        // faults do not stall other transfers; the copy below re-checks.
        {
            std::lock_guard rlk{target->m_regions_mutex};
            if (auto region = checked_region(); !region) return region.error();
        }
        resize->resize(size);
        local = resize->data();
    }
    {
        std::lock_guard rlk{target->m_regions_mutex};
        auto region = checked_region();
        if (!region) return region.error();
        if (pull)
            std::memcpy(local, region->data + remote_offset, size);
        else
            std::memcpy(region->data + remote_offset, local, size);
    }
    // RDMA flows data over the link in the data direction. Reserved only
    // once the transfer is in bounds, so a forged size cannot occupy the
    // link.
    std::lock_guard lk{m_mutex};
    return pull ? reserve_link_us(remote.address, src, size)
                : reserve_link_us(src, remote.address, size);
}

} // namespace mochi::mercury
