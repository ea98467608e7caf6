// F2/E1 substrate benchmark: RPC round-trip latency and throughput of the
// Margo runtime over the simulated fabric, vs. payload size, handler-pool
// concurrency, and bulk (RDMA) transfer size. Establishes the baseline the
// other experiments build on.
//
// `--json FILE` switches to the hot-path metrics mode consumed by the
// bench-regression gate (tools/bench_gate.py): small-message ops/s, p99
// latency, and the speedup of the per-thread send cache (fast path) over
// the mutex-guarded delivery path, which takes the fabric mutex and does
// its map lookups per message (Fabric::set_fast_path_enabled(false)). Both
// paths deliver into the same request inbox.
#include "margo/instance.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>

using namespace mochi;

namespace {

struct RpcWorld {
    std::shared_ptr<mercury::Fabric> fabric;
    margo::InstancePtr server;
    margo::InstancePtr client;

    explicit RpcWorld(int server_es = 1) {
        fabric = mercury::Fabric::create();
        auto cfg = json::Value::object();
        auto& abt = cfg["argobots"];
        auto pool = json::Value::object();
        pool["name"] = "p";
        pool["type"] = "fifo_wait";
        abt["pools"].push_back(pool);
        for (int i = 0; i < server_es; ++i) {
            auto es = json::Value::object();
            es["name"] = "x" + std::to_string(i);
            es["scheduler"]["pools"].push_back("p");
            abt["xstreams"].push_back(es);
        }
        server = margo::Instance::create(fabric, "sim://server", cfg).value();
        client = margo::Instance::create(fabric, "sim://client").value();
        (void)server->register_rpc("echo", margo::k_default_provider_id,
                                   [](const margo::Request& req) {
                                       req.respond(req.payload());
                                   });
    }
    ~RpcWorld() {
        client->shutdown();
        server->shutdown();
    }
};

void BM_EchoRoundTrip(benchmark::State& state) {
    RpcWorld world;
    std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
    for (auto _ : state) {
        auto r = world.client->forward("sim://server", "echo", payload);
        if (!r) state.SkipWithError("forward failed");
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EchoRoundTrip)->Arg(8)->Arg(256)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_EchoConcurrent(benchmark::State& state) {
    // Throughput with N concurrent client ULTs; server handler ES count is
    // the ablation knob (DESIGN.md decision 2: ULT-aware blocking keeps a
    // single ES usable under concurrency).
    int server_es = static_cast<int>(state.range(0));
    int concurrency = static_cast<int>(state.range(1));
    RpcWorld world{server_es};
    std::string payload(64, 'x');
    for (auto _ : state) {
        auto rt = world.client->runtime();
        std::vector<abt::ThreadHandle> handles;
        constexpr int k_ops_per_ult = 50;
        for (int u = 0; u < concurrency; ++u) {
            handles.push_back(rt->post_thread(rt->primary_pool(), [&] {
                for (int i = 0; i < k_ops_per_ult; ++i)
                    (void)world.client->forward("sim://server", "echo", payload);
            }));
        }
        for (auto& h : handles) h.join();
        state.SetIterationTime(0); // default timing
    }
    state.counters["rpcs_per_iter"] = static_cast<double>(concurrency) * 50;
}
BENCHMARK(BM_EchoConcurrent)
    ->Args({1, 1})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({1, 32})
    ->Args({2, 32});

void BM_BulkPull(benchmark::State& state) {
    RpcWorld world;
    std::size_t size = static_cast<std::size_t>(state.range(0));
    std::vector<char> remote(size, 'R');
    auto handle = world.server->expose(remote.data(), remote.size(), false);
    std::vector<char> local(size);
    for (auto _ : state) {
        auto st = world.client->bulk_pull(handle, 0, local.data(), size);
        if (!st.ok()) state.SkipWithError("bulk failed");
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(size));
}
BENCHMARK(BM_BulkPull)->Arg(4096)->Arg(65536)->Arg(1 << 20)->Arg(16 << 20);

void BM_RegisteredRpcLookup(benchmark::State& state) {
    // Registration-table scaling: dispatch cost with many registered RPCs.
    RpcWorld world;
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i)
        (void)world.server->register_rpc("filler/" + std::to_string(i), 7,
                                         [](const margo::Request& req) { req.respond(""); });
    std::string payload(8, 'x');
    for (auto _ : state)
        (void)world.client->forward("sim://server", "echo", payload);
}
BENCHMARK(BM_RegisteredRpcLookup)->Arg(1)->Arg(100)->Arg(1000);

// ---------------------------------------------------------------------------
// Hot-path metrics mode (--json FILE), gated by tools/bench_gate.py.
// ---------------------------------------------------------------------------

struct HotPathStats {
    double ops_s = 0;
    double p50_us = 0;
    double p99_us = 0;
};

HotPathStats measure_small_echo(bool fast_path) {
    using Clock = std::chrono::steady_clock;
    RpcWorld world;
    world.fabric->set_fast_path_enabled(fast_path);
    std::string payload(8, 'x');
    constexpr int k_warmup = 200;
    constexpr int k_ops = 3000;
    for (int i = 0; i < k_warmup; ++i)
        (void)world.client->forward("sim://server", "echo", payload);
    std::vector<double> lat_us;
    lat_us.reserve(k_ops);
    auto t0 = Clock::now();
    for (int i = 0; i < k_ops; ++i) {
        auto s = Clock::now();
        (void)world.client->forward("sim://server", "echo", payload);
        lat_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - s).count());
    }
    double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    std::sort(lat_us.begin(), lat_us.end());
    HotPathStats st;
    st.ops_s = static_cast<double>(k_ops) / secs;
    st.p50_us = lat_us[lat_us.size() / 2];
    st.p99_us = lat_us[lat_us.size() * 99 / 100];
    return st;
}

int run_hotpath_metrics(const char* json_path) {
    std::printf("# small-message (8 B) echo round-trip, 1 client ULT\n");
    auto fast = measure_small_echo(/*fast_path=*/true);
    auto slow = measure_small_echo(/*fast_path=*/false);
    double speedup = fast.ops_s / slow.ops_s;
    std::printf("%-28s %12.0f ops/s  p50 %7.1f us  p99 %7.1f us\n", "fast path (default)",
                fast.ops_s, fast.p50_us, fast.p99_us);
    std::printf("%-28s %12.0f ops/s  p50 %7.1f us  p99 %7.1f us\n", "generic path (disabled)",
                slow.ops_s, slow.p50_us, slow.p99_us);
    std::printf("%-28s %12.2fx\n", "fast-path speedup", speedup);
    std::ofstream out{json_path};
    out << "{\n  \"metrics\": {\n"
        << "    \"small_echo_ops_s\": " << fast.ops_s << ",\n"
        << "    \"small_echo_p50_us\": " << fast.p50_us << ",\n"
        << "    \"small_echo_p99_us\": " << fast.p99_us << ",\n"
        << "    \"generic_path_ops_s\": " << slow.ops_s << ",\n"
        << "    \"fast_path_speedup\": " << speedup << "\n  }\n}\n";
    return out ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc - 1; ++i)
        if (std::strcmp(argv[i], "--json") == 0) return run_hotpath_metrics(argv[i + 1]);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
