// Serialization archives for RPC argument/response payloads, in the spirit
// of Mercury's proc functions (and the Boost/cereal operator& convention:
// one `serialize` function describes both directions).
//
// Wire format: little-endian fixed-width primitives, length-prefixed strings
// and containers. No versioning — both sides are always the same build, as
// in a Mochi service deployment.
#pragma once

#include "common/expected.hpp"

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace mochi::mercury {

class OutputArchive {
  public:
    static constexpr bool is_saving = true;

    OutputArchive() : m_out(&m_owned) {}

    /// Serialize into a caller-supplied buffer instead of an internal one.
    /// The buffer is cleared but keeps its capacity, so a reused buffer
    /// makes repeated serialization allocation-free once warm (the reply
    /// path of every provider relies on this). The archive holds a pointer
    /// to `external`: it must outlive the archive.
    explicit OutputArchive(std::string& external) : m_out(&external) { external.clear(); }

    [[nodiscard]] std::string& buffer() noexcept { return *m_out; }
    [[nodiscard]] std::string take() { return std::move(*m_out); }

    template <typename T>
    OutputArchive& operator&(const T& v) {
        save(v);
        return *this;
    }

  private:
    template <typename T>
    void save(const T& v) {
        if constexpr (std::is_enum_v<T>) {
            save(static_cast<std::underlying_type_t<T>>(v));
        } else if constexpr (std::is_arithmetic_v<T>) {
            const char* p = reinterpret_cast<const char*>(&v);
            m_out->append(p, sizeof v);
        } else {
            // User type: member serialize(Archive&). const_cast is safe: the
            // saving path only reads.
            const_cast<T&>(v).serialize(*this);
        }
    }
    void save(const std::string& s) {
        save(static_cast<std::uint64_t>(s.size()));
        m_out->append(s);
    }
    void save(std::string_view s) {
        save(static_cast<std::uint64_t>(s.size()));
        m_out->append(s);
    }
    void save(const char* s) { save(std::string_view{s}); }
    template <typename T>
    void save(const std::vector<T>& v) {
        save(static_cast<std::uint64_t>(v.size()));
        for (const auto& e : v) save(e);
    }
    template <typename K, typename V>
    void save(const std::map<K, V>& m) {
        save(static_cast<std::uint64_t>(m.size()));
        for (const auto& [k, v] : m) {
            save(k);
            save(v);
        }
    }
    template <typename A, typename B>
    void save(const std::pair<A, B>& p) {
        save(p.first);
        save(p.second);
    }
    template <typename T>
    void save(const std::optional<T>& o) {
        save(static_cast<std::uint8_t>(o.has_value() ? 1 : 0));
        if (o) save(*o);
    }

    std::string m_owned;
    std::string* m_out;
};

class InputArchive {
  public:
    static constexpr bool is_saving = false;

    explicit InputArchive(std::string_view data) : m_data(data) {}

    [[nodiscard]] bool failed() const noexcept { return m_failed; }
    [[nodiscard]] std::size_t remaining() const noexcept { return m_data.size() - m_pos; }

    template <typename T>
    InputArchive& operator&(T& v) {
        load(v);
        return *this;
    }

  private:
    bool take(void* dst, std::size_t n) {
        if (m_failed || m_data.size() - m_pos < n) {
            m_failed = true;
            return false;
        }
        std::memcpy(dst, m_data.data() + m_pos, n);
        m_pos += n;
        return true;
    }

    template <typename T>
    void load(T& v) {
        if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> u{};
            load(u);
            v = static_cast<T>(u);
        } else if constexpr (std::is_arithmetic_v<T>) {
            take(&v, sizeof v);
        } else {
            v.serialize(*this);
        }
    }
    void load(std::string& s) {
        std::uint64_t n = 0;
        if (!take(&n, sizeof n)) return;
        if (m_data.size() - m_pos < n) {
            m_failed = true;
            return;
        }
        s.assign(m_data.data() + m_pos, n);
        m_pos += n;
    }
    /// Zero-copy string decode: the view aliases the archive's underlying
    /// buffer, which must outlive it (a Request keeps its Message payload
    /// alive for the handler's duration, which is what makes this safe for
    /// provider argument structs). Fails closed: a corrupt length leaves
    /// the view empty and marks the archive failed, never reading out of
    /// bounds.
    void load(std::string_view& s) {
        std::uint64_t n = 0;
        s = {};
        if (!take(&n, sizeof n)) return;
        if (m_data.size() - m_pos < n) {
            m_failed = true;
            return;
        }
        s = m_data.substr(m_pos, static_cast<std::size_t>(n));
        m_pos += static_cast<std::size_t>(n);
    }
    template <typename T>
    void load(std::vector<T>& v) {
        std::uint64_t n = 0;
        if (!take(&n, sizeof n)) return;
        // Guard against corrupt lengths: each element needs at least one
        // byte, so n can never exceed the remaining payload. This also caps
        // the reserve below so a corrupt header cannot trigger a huge
        // allocation.
        if (n > m_data.size() - m_pos) {
            m_failed = true;
            return;
        }
        v.clear();
        v.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n && !m_failed; ++i) {
            v.emplace_back();
            load(v.back());
        }
    }
    template <typename K, typename V>
    void load(std::map<K, V>& m) {
        std::uint64_t n = 0;
        if (!take(&n, sizeof n)) return;
        m.clear();
        for (std::uint64_t i = 0; i < n && !m_failed; ++i) {
            K k{};
            V v{};
            load(k);
            load(v);
            m.emplace(std::move(k), std::move(v));
        }
    }
    template <typename A, typename B>
    void load(std::pair<A, B>& p) {
        load(p.first);
        load(p.second);
    }
    template <typename T>
    void load(std::optional<T>& o) {
        std::uint8_t has = 0;
        load(has);
        if (m_failed) return;
        if (has) {
            o.emplace();
            load(*o);
        } else {
            o.reset();
        }
    }

    std::string_view m_data;
    std::size_t m_pos = 0;
    bool m_failed = false;
};

/// Serialize a value pack into a payload string.
template <typename... Ts>
[[nodiscard]] std::string pack(const Ts&... values) {
    OutputArchive ar;
    (void)(ar & ... & values);
    return ar.take();
}

/// Serialize a value pack into a caller-owned buffer, reusing its capacity
/// (allocation-free once the buffer has grown to the working-set size).
template <typename... Ts>
void pack_into(std::string& out, const Ts&... values) {
    OutputArchive ar{out};
    (void)(ar & ... & values);
}

/// Deserialize a payload string into a value pack. Returns false on
/// malformed/truncated input. Targets may be std::string_view (directly or
/// inside a serialize() method): those decode as zero-copy slices of
/// `payload`, which must then outlive them.
template <typename... Ts>
[[nodiscard]] bool unpack(std::string_view payload, Ts&... values) {
    InputArchive ar{payload};
    (void)(ar & ... & values);
    return !ar.failed();
}

// ---------------------------------------------------------------------------
// Vectored payloads
// ---------------------------------------------------------------------------
//
// A batched RPC carries N independently-serialized per-op payloads in one
// buffer: a u64 segment count, then per segment a u64 length prefix and the
// raw bytes. The receiver addresses every segment as a zero-copy view into
// the buffer, so a vectored handler can hand sub-ranges to different ULTs
// without re-copying — the format behind yokan/warabi's *_multi bulk paths
// and the client-side auto-batcher.

/// Incrementally accumulates segments (the auto-batcher appends one per
/// queued op); take() finalizes the buffer and resets the builder.
class SegmentBuilder {
  public:
    void add(std::string_view segment) {
        std::uint64_t len = segment.size();
        m_body.append(reinterpret_cast<const char*>(&len), sizeof len);
        m_body.append(segment);
        ++m_count;
    }

    [[nodiscard]] std::size_t count() const noexcept { return m_count; }
    /// Size of the finalized buffer take() would currently produce.
    [[nodiscard]] std::size_t bytes() const noexcept {
        return sizeof(std::uint64_t) + m_body.size();
    }

    [[nodiscard]] std::string take() {
        std::uint64_t n = m_count;
        std::string out;
        out.reserve(sizeof n + m_body.size());
        out.append(reinterpret_cast<const char*>(&n), sizeof n);
        out.append(m_body);
        m_body.clear();
        m_count = 0;
        return out;
    }

  private:
    std::string m_body;
    std::size_t m_count = 0;
};

[[nodiscard]] inline std::string pack_segments(const std::vector<std::string>& segments) {
    SegmentBuilder b;
    for (const auto& s : segments) b.add(s);
    return b.take();
}

/// Zero-copy decode of a vectored payload: the returned views alias
/// `payload`, which must outlive them. Strict framing — truncated input,
/// corrupt counts, and trailing bytes all return false (a segment buffer
/// travels alone, so every byte must be accounted for).
[[nodiscard]] inline bool unpack_segments(std::string_view payload,
                                          std::vector<std::string_view>& out) {
    out.clear();
    std::size_t pos = 0;
    auto read_u64 = [&](std::uint64_t& v) {
        if (payload.size() - pos < sizeof v) return false;
        std::memcpy(&v, payload.data() + pos, sizeof v);
        pos += sizeof v;
        return true;
    };
    std::uint64_t count = 0;
    if (!read_u64(count)) return false;
    // Each segment needs at least its length prefix, so a count exceeding
    // remaining/8 is corrupt — this also caps the reserve below.
    if (count > (payload.size() - pos) / sizeof(std::uint64_t)) return false;
    out.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t len = 0;
        if (!read_u64(len)) return false;
        if (payload.size() - pos < len) return false;
        out.emplace_back(payload.data() + pos, static_cast<std::size_t>(len));
        pos += static_cast<std::size_t>(len);
    }
    return pos == payload.size();
}

} // namespace mochi::mercury
