/**
 * @file
 * Observability-layer microbenchmark and allocation guard.
 *
 * Measures the three hot-path costs the obs redesign promises to keep
 * negligible (DESIGN.md section 11) and *asserts* the allocation-free
 * contract by counting global operator new calls around each loop:
 *
 *   counter      obs::Counter increment through a registry-attached
 *                handle (the DeviceStats/ClientStats adapter path)
 *   disabled     the per-packet guard when no recorder is wired
 *                (`recorder_ == nullptr`) — one predictable branch
 *   trace        a full begin / 5x stampAt / complete trace lifecycle
 *                against a live FlightRecorder in steady state
 *
 * Exits non-zero if any measured loop allocates, so CI can gate on
 * "tracing costs no allocations" directly (the same way the crash
 * matrix gates on invariants).
 *
 * Modes:
 *   --smoke        small iteration counts for the tier-1 CTest run
 *   --json <path>  machine-readable results (BENCH_micro_obs.json)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_util.h"
#include "obs/flight_recorder.h"
#include "obs/metric_registry.h"

using namespace pmnet;

namespace {

/** Global operator-new call count (see the replacement operators). */
std::uint64_t g_news = 0;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

struct LoopResult
{
    double nsPerOp = 0;
    std::uint64_t allocs = 0;
};

/** Run @p fn over @p iters, timing it and counting allocations. */
template <typename Fn>
LoopResult
measure(std::uint64_t iters, Fn &&fn)
{
    std::uint64_t before = g_news;
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; i++)
        fn(i);
    double elapsed = secondsSince(t0);
    return {elapsed * 1e9 / static_cast<double>(iters),
            g_news - before};
}

} // namespace

// Counting replacements for the global allocator. Counting only —
// layout and behavior match the default operators, so linking them in
// changes nothing but the g_news bookkeeping.
void *
operator new(std::size_t size)
{
    g_news++;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

int
main(int argc, char **argv)
{
    benchutil::BenchJson json("micro_obs", argc, argv);
    const std::uint64_t iters = json.smoke() ? 200000 : 5000000;

    benchutil::printHeader(
        "micro_obs: observability hot-path cost + allocation guard",
        "DESIGN.md section 11 (zero-cost-when-disabled contract)",
        "all three paths allocation-free; disabled guard ~1 ns");

    bool ok = true;
    auto report = [&](const char *name, const LoopResult &result,
                      std::uint64_t per_op_events) {
        bool clean = result.allocs == 0;
        ok = ok && clean;
        std::printf("%-10s %8.2f ns/op   allocs %6llu  %s\n", name,
                    result.nsPerOp,
                    static_cast<unsigned long long>(result.allocs),
                    clean ? "clean" : "ALLOCATES");
        json.beginRow();
        json.field("case", std::string(name));
        json.field("ns_per_op", result.nsPerOp /
                                static_cast<double>(per_op_events));
        json.field("allocs", result.allocs);
    };

    // Counter increments through registry-attached adapter handles.
    {
        obs::MetricRegistry registry;
        obs::Counter hits;
        registry.attach("bench.hits", hits);
        LoopResult r = measure(iters, [&](std::uint64_t) { hits++; });
        if (static_cast<std::uint64_t>(hits) != iters)
            ok = false;
        report("counter", r, 1);
    }

    // The disabled-tracing guard every packet pays when observability
    // is off: a null-recorder test. volatile keeps the branch honest.
    {
        obs::FlightRecorder *volatile recorder = nullptr;
        std::uint64_t taken = 0;
        LoopResult r = measure(iters, [&](std::uint64_t i) {
            if (recorder != nullptr)
                taken++;
            (void)i;
        });
        if (taken != 0)
            ok = false;
        report("disabled", r, 1);
    }

    // Steady-state trace lifecycle: begin + 5 stamps + complete per
    // op against a live recorder. The slab and index are sized at
    // construction; the loop itself must never touch the heap.
    {
        obs::FlightRecorder recorder(4096);
        recorder.setAccumulating(true);
        LoopResult r = measure(iters / 8 + 1, [&](std::uint64_t i) {
            std::uint64_t id = i + 1;
            Tick t = static_cast<Tick>(i * 100);
            recorder.begin(id, 0, static_cast<std::uint32_t>(i), true,
                           t);
            recorder.stampAt(id, obs::Stamp::ClientTx, t + 10);
            recorder.stampAt(id, obs::Stamp::SwitchIngress, t + 20);
            recorder.stampAt(id, obs::Stamp::DeviceIngress, t + 30);
            recorder.stampAt(id, obs::Stamp::PersistDone, t + 40);
            recorder.stampAt(id, obs::Stamp::AckRx, t + 50);
            recorder.complete(id, t + 60, true);
        });
        if (recorder.accum().count != iters / 8 + 1)
            ok = false;
        report("trace", r, 7);
    }

    if (!ok)
        std::fprintf(stderr, "micro_obs: allocation-free contract "
                             "VIOLATED\n");
    return ok ? 0 : 1;
}
