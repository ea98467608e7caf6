// Focused tests for the fabric cost model: per-link transfer serialization,
// latency/bandwidth composition, and directionality — the properties E3's
// migration crossover and E8's elasticity results rest on.
#include "mercury/fabric.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

using namespace mochi;
using namespace std::chrono_literals;
using mercury::Message;
using Clock = std::chrono::steady_clock;

namespace {

struct TimedInbox {
    std::mutex m;
    std::condition_variable cv;
    std::vector<Clock::time_point> arrivals;

    void push() {
        // Notify while holding the lock: the waiter can only wake after the
        // unlock, so the cv cannot be destroyed mid-broadcast when the test
        // body returns right after wait_count() succeeds.
        std::lock_guard lk{m};
        arrivals.push_back(Clock::now());
        cv.notify_all();
    }
    bool wait_count(std::size_t n, std::chrono::milliseconds timeout = 5000ms) {
        std::unique_lock lk{m};
        return cv.wait_for(lk, timeout, [&] { return arrivals.size() >= n; });
    }
};

} // namespace

TEST(FabricModel, SameLinkTransfersSerialize) {
    // Two 10 ms transfers on the same directional link must take ~20 ms
    // total: the second waits for the link.
    mercury::LinkModel model;
    model.bandwidth_bytes_per_us = 100; // 1 MB -> 10 ms
    auto fabric = mercury::Fabric::create(model);
    TimedInbox inbox;
    auto a = fabric->attach("sim://a", [](Message) {});
    auto b = fabric->attach("sim://b", [&](Message) { inbox.push(); });
    auto t0 = Clock::now();
    Message big;
    big.payload.assign(1'000'000, 'x');
    ASSERT_TRUE((*a)->send("sim://b", big).ok());
    ASSERT_TRUE((*a)->send("sim://b", big).ok());
    ASSERT_TRUE(inbox.wait_count(2));
    double second_ms =
        std::chrono::duration<double, std::milli>(inbox.arrivals[1] - t0).count();
    EXPECT_GE(second_ms, 17.0); // ~2 x 10 ms minus scheduling slack
}

TEST(FabricModel, DistinctLinksTransferInParallel) {
    // The same two transfers on *different* links overlap: the later of the
    // two arrivals lands well before the serialized 20 ms.
    mercury::LinkModel model;
    model.bandwidth_bytes_per_us = 100;
    auto fabric = mercury::Fabric::create(model);
    TimedInbox inbox_b, inbox_c;
    auto a = fabric->attach("sim://a", [](Message) {});
    auto b = fabric->attach("sim://b", [&](Message) { inbox_b.push(); });
    auto c = fabric->attach("sim://c", [&](Message) { inbox_c.push(); });
    auto t0 = Clock::now();
    Message big;
    big.payload.assign(1'000'000, 'x');
    ASSERT_TRUE((*a)->send("sim://b", big).ok());
    ASSERT_TRUE((*a)->send("sim://c", big).ok());
    ASSERT_TRUE(inbox_b.wait_count(1));
    ASSERT_TRUE(inbox_c.wait_count(1));
    double later_ms = std::chrono::duration<double, std::milli>(
                          std::max(inbox_b.arrivals[0], inbox_c.arrivals[0]) - t0)
                          .count();
    EXPECT_LT(later_ms, 18.0);
}

TEST(FabricModel, LatencyAddsToTransferTime) {
    mercury::LinkModel model;
    model.latency_us = 15000;            // 15 ms
    model.bandwidth_bytes_per_us = 100;  // 1 MB -> 10 ms
    auto fabric = mercury::Fabric::create(model);
    TimedInbox inbox;
    auto a = fabric->attach("sim://a", [](Message) {});
    auto b = fabric->attach("sim://b", [&](Message) { inbox.push(); });
    auto t0 = Clock::now();
    Message big;
    big.payload.assign(1'000'000, 'x');
    ASSERT_TRUE((*a)->send("sim://b", big).ok());
    ASSERT_TRUE(inbox.wait_count(1));
    double ms = std::chrono::duration<double, std::milli>(inbox.arrivals[0] - t0).count();
    EXPECT_GE(ms, 22.0); // >= latency + transfer, minus timer slack
}

TEST(FabricModel, BulkDelayScalesWithSizeAndDirection) {
    mercury::LinkModel model;
    model.bandwidth_bytes_per_us = 1000;
    auto fabric = mercury::Fabric::create(model);
    auto a = fabric->attach("sim://a", [](Message) {});
    auto b = fabric->attach("sim://b", [](Message) {});
    std::vector<char> remote(1 << 20, 'r');
    auto handle = (*b)->expose(remote.data(), remote.size(), true);
    std::vector<char> local(1 << 20);
    // A small pull on the fresh b->a link is cheap...
    auto small_delay = (*a)->bulk_pull(handle, 0, local.data(), 1024);
    ASSERT_TRUE(small_delay.has_value());
    EXPECT_LT(*small_delay, 100.0);
    // ...a large pull costs ~ size/bw ~ 1048 us...
    auto pull_delay = (*a)->bulk_pull(handle, 0, local.data(), local.size());
    ASSERT_TRUE(pull_delay.has_value());
    EXPECT_NEAR(*pull_delay, 1048.0, 300.0);
    // ...and a small pull issued right after queues behind it on the same
    // link (per-link serialization).
    auto queued_delay = (*a)->bulk_pull(handle, 0, local.data(), 1024);
    ASSERT_TRUE(queued_delay.has_value());
    EXPECT_GT(*queued_delay, 500.0);
    // Push uses the a->b link, whose horizon is independent of b->a: the
    // first push is not queued behind the big pull.
    auto push_delay = (*a)->bulk_push(handle, 0, local.data(), 1024);
    ASSERT_TRUE(push_delay.has_value());
    EXPECT_LT(*push_delay, 100.0);
}

TEST(FabricModel, ZeroDelayDeliversInline) {
    // With no model, delivery happens on the sender's thread (fast path).
    auto fabric = mercury::Fabric::create();
    std::thread::id delivery_thread;
    auto a = fabric->attach("sim://a", [](Message) {});
    auto b = fabric->attach("sim://b",
                            [&](Message) { delivery_thread = std::this_thread::get_id(); });
    ASSERT_TRUE((*a)->send("sim://b", Message{}).ok());
    EXPECT_EQ(delivery_thread, std::this_thread::get_id());
}

TEST(FabricModel, MessagesDeliveredInOrderPerLink) {
    mercury::LinkModel model;
    model.latency_us = 500;
    model.bandwidth_bytes_per_us = 10000;
    auto fabric = mercury::Fabric::create(model);
    std::mutex m;
    std::vector<std::uint64_t> seqs;
    std::condition_variable cv;
    auto a = fabric->attach("sim://a", [](Message) {});
    auto b = fabric->attach("sim://b", [&](Message msg) {
        // Notify under the lock so the cv cannot be destroyed mid-broadcast
        // once the waiter sees the final count and the test returns.
        std::lock_guard lk{m};
        seqs.push_back(msg.seq);
        cv.notify_all();
    });
    for (std::uint64_t i = 0; i < 50; ++i) {
        Message msg;
        msg.seq = i;
        msg.payload.assign(1000, 'x');
        ASSERT_TRUE((*a)->send("sim://b", std::move(msg)).ok());
    }
    std::unique_lock lk{m};
    ASSERT_TRUE(cv.wait_for(lk, 5000ms, [&] { return seqs.size() == 50; }));
    for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(seqs[i], i);
}

TEST(FabricModel, SubMicrosecondDelayedLinkKeepsSendOrder) {
    // Delays straddle the timer's 1 µs inline threshold: some messages are
    // due at once, others wait in the timer. An inline delivery must not
    // overtake an earlier message still pending on the same link, and
    // deadlines must not be truncated or re-based after the fabric lock.
    mercury::LinkModel model;
    model.latency_us = 0.9;
    model.jitter_us = 0.2;
    auto fabric = mercury::Fabric::create(model);
    constexpr std::uint64_t k_n = 20000;
    std::mutex m;
    std::condition_variable cv;
    std::vector<std::uint64_t> seqs;
    seqs.reserve(k_n);
    auto a = fabric->attach("sim://a", [](Message) {});
    auto b = fabric->attach("sim://b", [&](Message msg) {
        std::lock_guard lk{m};
        seqs.push_back(msg.seq);
        cv.notify_all();
    });
    for (std::uint64_t i = 0; i < k_n; ++i) {
        Message msg;
        msg.seq = i;
        ASSERT_TRUE((*a)->send("sim://b", std::move(msg)).ok());
    }
    std::unique_lock lk{m};
    ASSERT_TRUE(cv.wait_for(lk, 10000ms, [&] { return seqs.size() == k_n; }));
    std::size_t out_of_order = 0;
    for (std::size_t i = 1; i < seqs.size(); ++i)
        if (seqs[i] < seqs[i - 1]) ++out_of_order;
    EXPECT_EQ(out_of_order, 0u);
}

TEST(FabricModel, DuplicateProbabilityDeliversTwice) {
    mercury::LinkModel model;
    model.latency_us = 100;
    model.duplicate_probability = 1.0; // every message gets a second copy
    auto fabric = mercury::Fabric::create(model);
    TimedInbox inbox;
    auto a = fabric->attach("sim://a", [](Message) {});
    auto b = fabric->attach("sim://b", [&](Message) { inbox.push(); });
    for (int i = 0; i < 5; ++i) ASSERT_TRUE((*a)->send("sim://b", Message{}).ok());
    EXPECT_TRUE(inbox.wait_count(10));
}

TEST(FabricModel, JitterDelaysWithinBound) {
    mercury::LinkModel model;
    model.latency_us = 1000;
    model.jitter_us = 20000; // up to 20 ms extra
    auto fabric = mercury::Fabric::create(model);
    TimedInbox inbox;
    auto a = fabric->attach("sim://a", [](Message) {});
    auto b = fabric->attach("sim://b", [&](Message) { inbox.push(); });
    auto t0 = Clock::now();
    for (int i = 0; i < 20; ++i) ASSERT_TRUE((*a)->send("sim://b", Message{}).ok());
    ASSERT_TRUE(inbox.wait_count(20));
    // All arrivals within latency + jitter (plus generous scheduling slack);
    // with 20 samples at least one should draw a nontrivial jitter, so the
    // spread between first and last arrival is nonzero.
    for (auto& t : inbox.arrivals) {
        double ms = std::chrono::duration<double, std::milli>(t - t0).count();
        EXPECT_LT(ms, 200.0);
    }
    double spread = std::chrono::duration<double, std::milli>(
                        inbox.arrivals.back() - inbox.arrivals.front())
                        .count();
    EXPECT_GT(spread, 0.5);
}
