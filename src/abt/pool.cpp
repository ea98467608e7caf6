#include "abt/pool.hpp"
#include "abt/runtime.hpp"

#include <algorithm>

namespace mochi::abt {

Expected<PoolKind> pool_kind_from_string(std::string_view s) {
    if (s == "fifo") return PoolKind::Fifo;
    if (s == "fifo_wait") return PoolKind::FifoWait;
    if (s == "prio" || s == "prio_wait") return PoolKind::Prio;
    return Error{Error::Code::InvalidArgument, "unknown pool kind: " + std::string(s)};
}

const char* to_string(PoolKind k) noexcept {
    switch (k) {
    case PoolKind::Fifo: return "fifo";
    case PoolKind::FifoWait: return "fifo_wait";
    case PoolKind::Prio: return "prio";
    }
    return "?";
}

Expected<PoolAccess> pool_access_from_string(std::string_view s) {
    if (s == "mpmc") return PoolAccess::Mpmc;
    if (s == "mpsc") return PoolAccess::Mpsc;
    if (s == "spmc") return PoolAccess::Spmc;
    if (s == "spsc") return PoolAccess::Spsc;
    return Error{Error::Code::InvalidArgument, "unknown pool access: " + std::string(s)};
}

const char* to_string(PoolAccess a) noexcept {
    switch (a) {
    case PoolAccess::Mpmc: return "mpmc";
    case PoolAccess::Mpsc: return "mpsc";
    case PoolAccess::Spmc: return "spmc";
    case PoolAccess::Spsc: return "spsc";
    }
    return "?";
}

Pool::Pool(std::string name, PoolKind kind, PoolAccess access)
: m_name(std::move(name)), m_kind(kind), m_access(access) {}

void Pool::close() {
    std::lock_guard lk{m_mutex};
    m_closed = true;
}

UltPtr Pool::push(UltPtr ult, int priority) {
    {
        std::lock_guard lk{m_mutex};
        if (m_closed && ult->stack == nullptr) return ult;
        Item item{std::move(ult), priority, m_seq++};
        ++m_total_pushed;
        if (m_kind == PoolKind::Prio) {
            m_heap.push_back(std::move(item));
            std::push_heap(m_heap.begin(), m_heap.end(), [](const Item& a, const Item& b) {
                if (a.priority != b.priority) return a.priority < b.priority;
                return a.seq > b.seq; // FIFO among equal priorities
            });
        } else {
            m_queue.push_back(std::move(item));
        }
    }
    // Subscribers are notified outside the queue lock (an Xstream's notify
    // takes its own mutex and may issue a futex wake). The shared lock on
    // m_sub_mutex keeps every notified Xstream alive for the duration: see
    // the quiescence contract on m_sub_mutex in pool.hpp.
    std::shared_lock slk{m_sub_mutex};
    for (Xstream* es : m_subscribers) es->notify();
    return nullptr;
}

UltPtr Pool::pop() {
    std::lock_guard lk{m_mutex};
    if (m_kind == PoolKind::Prio) {
        if (m_heap.empty()) return nullptr;
        std::pop_heap(m_heap.begin(), m_heap.end(), [](const Item& a, const Item& b) {
            if (a.priority != b.priority) return a.priority < b.priority;
            return a.seq > b.seq;
        });
        UltPtr ult = std::move(m_heap.back().ult);
        m_heap.pop_back();
        return ult;
    }
    if (m_queue.empty()) return nullptr;
    UltPtr ult = std::move(m_queue.front().ult);
    m_queue.pop_front();
    return ult;
}

std::size_t Pool::size() const {
    std::lock_guard lk{m_mutex};
    return m_kind == PoolKind::Prio ? m_heap.size() : m_queue.size();
}

std::uint64_t Pool::total_pushed() const {
    std::lock_guard lk{m_mutex};
    return m_total_pushed;
}

void Pool::subscribe(Xstream* es) {
    std::lock_guard lk{m_sub_mutex};
    m_subscribers.push_back(es);
}

void Pool::unsubscribe(Xstream* es) {
    // Exclusive acquisition drains every pusher currently notifying under a
    // shared lock; afterwards the caller may safely destroy the Xstream.
    std::lock_guard lk{m_sub_mutex};
    std::erase(m_subscribers, es);
}

std::size_t Pool::subscriber_count() const {
    std::shared_lock lk{m_sub_mutex};
    return m_subscribers.size();
}

} // namespace mochi::abt
