// Unit tests for abt::Timer: ordering, cancellation semantics (including
// the cancel-blocks-until-callback-finishes guarantee the synchronization
// primitives rely on), child timers sharing a host's queue, and stress.
#include "abt/timer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

using namespace mochi;
using namespace std::chrono_literals;

TEST(Timer, FiresAfterDelay) {
    abt::Timer timer;
    std::atomic<bool> fired{false};
    auto t0 = std::chrono::steady_clock::now();
    std::atomic<double> fired_ms{0};
    timer.schedule(30ms, [&] {
        fired_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        fired = true;
    });
    for (int i = 0; i < 500 && !fired; ++i) std::this_thread::sleep_for(1ms);
    ASSERT_TRUE(fired.load());
    EXPECT_GE(fired_ms.load(), 25.0);
}

TEST(Timer, FiresInDeadlineOrder) {
    abt::Timer timer;
    std::mutex m;
    std::vector<int> order;
    std::atomic<int> count{0};
    auto record = [&](int id) {
        std::lock_guard lk{m};
        order.push_back(id);
        ++count;
    };
    timer.schedule(60ms, [&] { record(3); });
    timer.schedule(20ms, [&] { record(1); });
    timer.schedule(40ms, [&] { record(2); });
    for (int i = 0; i < 1000 && count < 3; ++i) std::this_thread::sleep_for(1ms);
    ASSERT_EQ(count.load(), 3);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Timer, CancelPreventsExecution) {
    abt::Timer timer;
    std::atomic<bool> fired{false};
    auto id = timer.schedule(50ms, [&] { fired = true; });
    EXPECT_TRUE(timer.cancel(id));
    std::this_thread::sleep_for(80ms);
    EXPECT_FALSE(fired.load());
}

TEST(Timer, CancelAfterFireReturnsFalse) {
    abt::Timer timer;
    std::atomic<bool> fired{false};
    auto id = timer.schedule(5ms, [&] { fired = true; });
    for (int i = 0; i < 500 && !fired; ++i) std::this_thread::sleep_for(1ms);
    ASSERT_TRUE(fired.load());
    EXPECT_FALSE(timer.cancel(id));
}

TEST(Timer, CancelWaitsForRunningCallback) {
    // The guarantee Eventual::wait_for depends on: after cancel() returns,
    // the callback is not (and will never be) touching captured state.
    abt::Timer timer;
    std::atomic<bool> in_callback{false};
    std::atomic<bool> callback_done{false};
    auto id = timer.schedule(5ms, [&] {
        in_callback = true;
        std::this_thread::sleep_for(100ms);
        callback_done = true;
    });
    while (!in_callback) std::this_thread::sleep_for(1ms);
    EXPECT_FALSE(timer.cancel(id)); // already running: cancel must block...
    EXPECT_TRUE(callback_done.load()); // ...until the callback completed
}

TEST(Timer, ManyTimersStress) {
    abt::Timer timer;
    constexpr int k_n = 500;
    std::atomic<int> fired{0};
    for (int i = 0; i < k_n; ++i)
        timer.schedule(std::chrono::microseconds(100 + (i % 50) * 100), [&] { ++fired; });
    for (int i = 0; i < 2000 && fired < k_n; ++i) std::this_thread::sleep_for(1ms);
    EXPECT_EQ(fired.load(), k_n);
}

TEST(Timer, StopDropsPending) {
    abt::Timer timer;
    std::atomic<int> fired{0};
    for (int i = 0; i < 10; ++i) timer.schedule(10s, [&] { ++fired; });
    timer.stop();
    EXPECT_EQ(fired.load(), 0);
    // Scheduling after stop is harmless (entry is never executed).
    timer.schedule(1ms, [&] { ++fired; });
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(fired.load(), 0);
}

TEST(Timer, CancelUnknownIdReturnsFalseQuickly) {
    abt::Timer timer;
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(timer.cancel(999999));
    double elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(elapsed_ms, 50.0);
}

// -- child timers: entries in the host's queue, tagged with their owner -----

namespace {
bool wait_until(const std::function<bool()>& done, std::chrono::milliseconds limit = 5000ms) {
    auto deadline = std::chrono::steady_clock::now() + limit;
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(1ms);
    }
    return true;
}
} // namespace

TEST(Timer, ChildStopDropsOnlyItsOwnEntries) {
    abt::Timer host;
    abt::Timer a{host};
    abt::Timer b{host};
    std::atomic<int> fired_a{0}, fired_b{0}, fired_host{0};
    for (int i = 0; i < 5; ++i) {
        EXPECT_NE(a.schedule(30ms, [&] { ++fired_a; }), 0u);
        EXPECT_NE(b.schedule(30ms, [&] { ++fired_b; }), 0u);
        EXPECT_NE(host.schedule(30ms, [&] { ++fired_host; }), 0u);
    }
    a.stop();
    ASSERT_TRUE(wait_until([&] { return fired_b == 5 && fired_host == 5; }));
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(fired_a.load(), 0);
}

TEST(Timer, ChildStopWaitsForRunningCallback) {
    // The finalize-safety contract: after a child's stop() returns, none of
    // its callbacks is running, so a runtime may free what they capture.
    abt::Timer host;
    abt::Timer child{host};
    std::atomic<bool> in_callback{false};
    std::atomic<bool> callback_done{false};
    child.schedule(1ms, [&] {
        in_callback = true;
        std::this_thread::sleep_for(100ms);
        callback_done = true;
    });
    ASSERT_TRUE(wait_until([&] { return in_callback.load(); }));
    child.stop();
    EXPECT_TRUE(callback_done.load());
}

TEST(Timer, ScheduleOnStoppedChildReturnsZero) {
    abt::Timer host;
    abt::Timer child{host};
    child.stop();
    std::atomic<int> fired{0};
    EXPECT_EQ(child.schedule(1ms, [&] { ++fired; }), 0u);
    EXPECT_FALSE(child.cancel(0));
    // The host and a fresh sibling are unaffected.
    abt::Timer sibling{host};
    EXPECT_NE(sibling.schedule(1ms, [&] { ++fired; }), 0u);
    ASSERT_TRUE(wait_until([&] { return fired == 1; }));
    std::this_thread::sleep_for(10ms);
    EXPECT_EQ(fired.load(), 1);
}

TEST(Timer, ChildCancelsOnlyItsOwnEntries) {
    abt::Timer host;
    abt::Timer a{host};
    abt::Timer b{host};
    std::atomic<int> fired{0};
    auto id = a.schedule(30ms, [&] { ++fired; });
    EXPECT_FALSE(b.cancel(id)); // not b's entry: left pending
    EXPECT_TRUE(a.cancel(id));
    EXPECT_FALSE(a.cancel(id));
    std::this_thread::sleep_for(60ms);
    EXPECT_EQ(fired.load(), 0);
}

TEST(Timer, ExpireWakeupsRunsOnlyOwnWakeupsNow) {
    abt::Timer host;
    abt::Timer a{host};
    abt::Timer b{host};
    std::atomic<int> woke_a{0}, woke_b{0}, plain_a{0};
    for (int i = 0; i < 3; ++i) {
        a.schedule_wakeup(10s, [&] { ++woke_a; });
        b.schedule_wakeup(10s, [&] { ++woke_b; });
    }
    a.schedule(10s, [&] { ++plain_a; });
    EXPECT_EQ(a.expire_wakeups(), 3u);
    EXPECT_EQ(woke_a.load(), 3); // ran on this thread, before returning
    EXPECT_EQ(a.expire_wakeups(), 0u);
    EXPECT_EQ(woke_b.load(), 0);
    EXPECT_EQ(plain_a.load(), 0);
}

TEST(Timer, ScheduleAtKeepsOrderOfEqualDeadlines) {
    abt::Timer timer;
    std::mutex m;
    std::vector<int> order;
    auto deadline = std::chrono::steady_clock::now() + 20ms;
    for (int i = 0; i < 100; ++i)
        timer.schedule_at(deadline, [&, i] {
            std::lock_guard lk{m};
            order.push_back(i);
        });
    ASSERT_TRUE(wait_until([&] {
        std::lock_guard lk{m};
        return order.size() == 100;
    }));
    for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}
