// Shared driver for the per-component malformed-payload tables: every RPC
// that decodes arguments must answer an empty payload and a truncated one
// with InvalidArgument "bad payload", without running its body.
#pragma once

#include "margo/instance.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mochi::test {

/// One RPC and a well-formed payload for it. The table forwards the empty
/// payload and this payload minus its last byte; both must fail to decode.
struct MalformedCase {
    std::string rpc;
    std::string valid_payload;
};

inline void expect_bad_payload_rejected(margo::Instance& client, const std::string& address,
                                        std::uint16_t provider_id,
                                        const std::vector<MalformedCase>& cases) {
    margo::ForwardOptions opts;
    opts.provider_id = provider_id;
    for (const auto& c : cases) {
        ASSERT_FALSE(c.valid_payload.empty()) << c.rpc;
        const std::string truncated = c.valid_payload.substr(0, c.valid_payload.size() - 1);
        for (const std::string& payload : {std::string{}, truncated}) {
            auto r = client.forward(address, c.rpc, payload, opts);
            ASSERT_FALSE(r.has_value())
                << c.rpc << " accepted a " << payload.size() << "-byte payload";
            EXPECT_EQ(r.error().code, Error::Code::InvalidArgument) << c.rpc;
            EXPECT_EQ(r.error().message, "bad payload") << c.rpc;
        }
    }
}

} // namespace mochi::test
