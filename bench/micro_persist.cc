/**
 * @file
 * Google-benchmark microbenchmarks of the group-commit persist path
 * (DESIGN.md section 13): the CommitEpoch close policy itself, and the
 * fence amortization it buys on a real PmHeap.
 *
 * Two numbers matter:
 *  - wall time per staged op (the epoch engine must stay allocation-
 *    free and O(1) on the device hot path), and
 *  - fences_per_op on the PmHeap benchmarks: 1.0 under per-op fencing,
 *    1/epoch under group commit — the quantity the device amortizes.
 */

#include <benchmark/benchmark.h>

#include "pm/commit_epoch.h"
#include "pm/pm_heap.h"

namespace {

using namespace pmnet;

/** Stage-and-close throughput of the epoch close policy alone. */
void
BM_CommitEpochStage(benchmark::State &state)
{
    pm::CommitEpochConfig config;
    config.maxOps = static_cast<std::uint32_t>(state.range(0));
    config.maxBytes = 1u << 30;
    std::uint64_t acked = 0;
    pm::CommitEpoch epoch(config);
    Tick now = 0;
    for (auto _ : state) {
        if (epoch.stage(64, now++).shouldClose)
            acked += epoch.close(pm::EpochCloseReason::Ops, now, now);
    }
    acked += epoch.close(pm::EpochCloseReason::Drain, now, now);
    state.counters["acked"] = static_cast<double>(acked);
    state.counters["epochs"] =
        static_cast<double>(epoch.stats().epochsClosed);
}
BENCHMARK(BM_CommitEpochStage)->Arg(1)->Arg(8)->Arg(32);

/** Per-op fencing on a real PmHeap: write, flush, fence, every op. */
void
BM_HeapPerOpFence(benchmark::State &state)
{
    pm::PmHeap heap(64ull << 20);
    pm::PmOffset off = heap.alloc(4096);
    char block[256] = {};
    std::uint64_t fences = 0;
    heap.setPersistBoundaryHook([&fences](pm::PersistBoundary b) {
        if (b == pm::PersistBoundary::Fence)
            fences++;
    });
    std::uint64_t ops = 0;
    for (auto _ : state) {
        heap.write(off + (ops % 16) * 256, block, sizeof(block));
        heap.flush(off + (ops % 16) * 256, sizeof(block));
        heap.fence();
        ops++;
    }
    heap.setPersistBoundaryHook(nullptr);
    state.counters["fences_per_op"] =
        static_cast<double>(fences) / static_cast<double>(ops ? ops : 1);
}
BENCHMARK(BM_HeapPerOpFence);

/** Group commit on a real PmHeap: stage writes into an epoch, one
 *  fence per close — fences_per_op must drop to 1/epoch. */
void
BM_HeapGroupCommit(benchmark::State &state)
{
    pm::PmHeap heap(64ull << 20);
    pm::PmOffset off = heap.alloc(4096);
    char block[256] = {};
    std::uint64_t fences = 0;
    heap.setPersistBoundaryHook([&fences](pm::PersistBoundary b) {
        if (b == pm::PersistBoundary::Fence)
            fences++;
    });

    pm::CommitEpochConfig config;
    config.maxOps = static_cast<std::uint32_t>(state.range(0));
    config.maxBytes = 1u << 30;
    pm::CommitEpoch epoch(config);

    std::uint64_t ops = 0;
    Tick now = 0;
    for (auto _ : state) {
        heap.write(off + (ops % 16) * 256, block, sizeof(block));
        heap.flush(off + (ops % 16) * 256, sizeof(block));
        if (epoch.stage(sizeof(block), now).shouldClose) {
            epoch.close(pm::EpochCloseReason::Ops, now, now);
            heap.fence();
        }
        now++;
        ops++;
    }
    if (epoch.close(pm::EpochCloseReason::Drain, now, now) > 0)
        heap.fence();
    heap.setPersistBoundaryHook(nullptr);
    state.counters["fences_per_op"] =
        static_cast<double>(fences) / static_cast<double>(ops ? ops : 1);
}
BENCHMARK(BM_HeapGroupCommit)->Arg(4)->Arg(8)->Arg(32);

} // namespace

BENCHMARK_MAIN();
