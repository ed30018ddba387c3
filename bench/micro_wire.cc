/**
 * @file
 * Google-benchmark microbenchmarks of the per-packet wire primitives
 * introduced by the data-plane fast path: slice-by-8 CRC-32, the
 * allocation-free header codec, and the streaming latency histogram
 * that records every latency sample. EXPERIMENTS.md records the
 * before/after table these benches were introduced with.
 */

#include <benchmark/benchmark.h>

#include "common/crc32.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "net/packet.h"

namespace {

using namespace pmnet;

net::Packet
updatePacket(std::size_t payload_size)
{
    net::Packet pkt;
    pkt.src = 1;
    pkt.dst = 2;
    net::PmnetHeader header;
    header.type = net::PacketType::UpdateReq;
    header.sessionId = 3;
    header.seqNum = 42;
    header.hashVal = net::PmnetHeader::computeHash(
        header.type, header.sessionId, header.seqNum, pkt.src, pkt.dst);
    pkt.pmnet = header;
    pkt.payload = Bytes(payload_size, 0xA5);
    return pkt;
}

// ------------------------------------------------------------------
// CRC-32 throughput: slice-by-8 vs the bitwise test oracle.

void
BM_Crc32SliceBy8(benchmark::State &state)
{
    Bytes data(static_cast<std::size_t>(state.range(0)), 0x5C);
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(data.data(), data.size()));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32SliceBy8)->Arg(15)->Arg(64)->Arg(256)->Arg(1500)->Arg(65536);

void
BM_Crc32BitwiseReference(benchmark::State &state)
{
    Bytes data(static_cast<std::size_t>(state.range(0)), 0x5C);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            crc32Reference(0, data.data(), data.size()));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32BitwiseReference)->Arg(64)->Arg(1500);

// ------------------------------------------------------------------
// Header codec: encode + hash + parse + verify round-trip.

void
BM_HeaderEncode(benchmark::State &state)
{
    net::Packet pkt = updatePacket(0);
    for (auto _ : state) {
        net::PmnetHeader::WireBytes wire = pkt.pmnet->encode();
        benchmark::DoNotOptimize(wire);
    }
}
BENCHMARK(BM_HeaderEncode);

void
BM_HeaderRoundTrip(benchmark::State &state)
{
    net::Packet pkt = updatePacket(static_cast<std::size_t>(state.range(0)));
    Bytes wire;     // reused across iterations: zero-allocation path
    net::Packet rebuilt;
    rebuilt.src = pkt.src;
    rebuilt.dst = pkt.dst;
    for (auto _ : state) {
        pkt.pmnet->hashVal = net::PmnetHeader::computeHash(
            pkt.pmnet->type, pkt.pmnet->sessionId, pkt.pmnet->seqNum,
            pkt.src, pkt.dst);
        pkt.serializePayloadInto(wire);
        benchmark::DoNotOptimize(rebuilt.parsePayload(wire));
        benchmark::DoNotOptimize(rebuilt.verifyHash());
    }
}
BENCHMARK(BM_HeaderRoundTrip)->Arg(0)->Arg(100)->Arg(1000);

// ------------------------------------------------------------------
// Streaming latency histogram: per-sample add and percentile queries.

void
BM_HistogramAdd(benchmark::State &state)
{
    Histogram hist;
    Rng rng(7);
    std::uint64_t v = 0;
    for (auto _ : state) {
        hist.add(static_cast<std::int64_t>(v));
        v = rng.nextUInt(50'000'000); // latencies up to 50 ms
    }
    benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramAdd);

/** p50+p99+p999 query cost after range(0) samples. */
void
BM_HistogramPercentile(benchmark::State &state)
{
    Histogram hist;
    Rng rng(7);
    for (std::int64_t i = 0; i < state.range(0); i++)
        hist.add(static_cast<std::int64_t>(rng.nextUInt(50'000'000)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(hist.percentile(50));
        benchmark::DoNotOptimize(hist.percentile(99));
        benchmark::DoNotOptimize(hist.percentile(99.9));
    }
}
BENCHMARK(BM_HistogramPercentile)->Arg(100'000)->Arg(1'000'000);

} // namespace

BENCHMARK_MAIN();
