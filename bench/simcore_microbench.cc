/**
 * @file
 * Host-performance microbenchmarks (google-benchmark) of the simulation
 * core: raw event-queue throughput and end-to-end simulated-events/sec
 * for a representative coherence workload. These measure the simulator
 * itself, not the simulated machine.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "cpu/system.hh"
#include "stats/bench_report.hh"
#include "sync/lockfree_counter.hh"

using namespace dsm;

namespace {

void
BM_EventQueueSchedule(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(static_cast<Tick>(i % 64), [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueSchedule);

Config
benchConfig(int procs)
{
    Config cfg;
    cfg.machine.num_procs = procs;
    cfg.machine.mesh_x = procs == 64 ? 8 : 4;
    cfg.machine.mesh_y = procs == 64 ? 8 : procs / 4;
    return cfg;
}

void
BM_ContendedFetchAdd(benchmark::State &state)
{
    int procs = static_cast<int>(state.range(0));
    std::uint64_t events = 0;
    for (auto _ : state) {
        System sys(benchConfig(procs));
        LockFreeCounter counter(sys, Primitive::FAP);
        for (NodeId n = 0; n < procs; ++n) {
            sys.spawn([](Proc &p, LockFreeCounter &c) -> Task {
                for (int i = 0; i < 20; ++i)
                    co_await c.fetchInc(p);
            }(sys.proc(n), counter));
        }
        RunResult r = sys.run();
        events += r.events;
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("simulated events/sec");
}
BENCHMARK(BM_ContendedFetchAdd)->Arg(16)->Arg(64);

void
BM_MeshMessageThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        MachineConfig mc;
        Mesh mesh(eq, mc);
        std::uint64_t delivered = 0;
        for (NodeId n = 0; n < mc.num_procs; ++n)
            mesh.setHandler(n, [&delivered](const Msg &) {
                ++delivered;
            });
        for (int i = 0; i < 2048; ++i) {
            Msg m;
            m.type = MsgType::GET_S;
            m.src = i % 64;
            m.dst = (i * 7) % 64;
            mesh.send(m);
        }
        eq.run();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_MeshMessageThroughput);

} // namespace

// Like BENCHMARK_MAIN(), but defaults the JSON side-output to
// BENCH_simcore_microbench.json (in $DSM_BENCH_DIR if set) so this
// binary matches the machine-readable-output convention of the
// simulated-machine benches. Explicit --benchmark_out flags win.
// Accepts and ignores the sweep binaries' --jobs/-j and --seed flags so
// run_all.sh can pass one job count and seed to every bench uniformly
// (host-performance numbers have no simulated seed to plumb).
int
main(int argc, char **argv)
{
    bool has_out = false;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 ||
            std::strcmp(argv[i], "-j") == 0 ||
            std::strcmp(argv[i], "--seed") == 0) {
            i += i + 1 < argc; // skip the value too
            continue;
        }
        if (std::strncmp(argv[i], "--jobs=", 7) == 0 ||
            std::strncmp(argv[i], "--seed=", 7) == 0)
            continue;
        has_out |= std::strncmp(argv[i], "--benchmark_out=", 16) == 0;
        args.push_back(argv[i]);
    }

    std::string out_flag = "--benchmark_out=" +
                           benchOutputPath("BENCH_simcore_microbench.json");
    std::string fmt_flag = "--benchmark_out_format=json";

    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int args_argc = static_cast<int>(args.size());
    benchmark::Initialize(&args_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
