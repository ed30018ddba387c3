#include "obs/flight_recorder.h"

#include "common/logging.h"

namespace pmnet::obs {

namespace {

/** splitmix64: strong enough to spread the (clientId<<40|n) ids. */
inline std::uint64_t
mixId(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Bucket charged with the interval *ending* at each checkpoint. */
enum class Bucket : std::uint8_t {
    None,
    ClientStack,
    Wire,
    Queueing,
    DevicePersist,
    Server,
};

constexpr std::array<Bucket, kStampCount> kBucketOf = {
    Bucket::None,          // ClientSend (interval origin)
    Bucket::ClientStack,   // ClientTx
    Bucket::Wire,          // SwitchIngress
    Bucket::Wire,          // DeviceIngress
    Bucket::Queueing,      // PersistStart
    Bucket::DevicePersist, // PersistStage
    Bucket::DevicePersist, // PersistDone
    Bucket::Wire,          // ServerRx
    Bucket::Queueing,      // ServerStart
    Bucket::Server,        // ServerEnd
    Bucket::Wire,          // AckRx
    Bucket::ClientStack,   // Complete
};

/** First-wins (entry) vs last-wins (repeatable) stamp policy. */
constexpr std::array<bool, kStampCount> kLastWins = {
    false, // ClientSend
    false, // ClientTx
    false, // SwitchIngress
    false, // DeviceIngress
    false, // PersistStart
    true,  // PersistStage (the completing replica's write)
    true,  // PersistDone (the completing replica's fence retire)
    true,  // ServerRx (last fragment / resend arrival)
    false, // ServerStart
    false, // ServerEnd
    true,  // AckRx (the completing ack)
    false, // Complete
};

} // namespace

TickDelta
RequestTrace::endToEnd() const
{
    return tick(Stamp::Complete) - tick(Stamp::ClientSend);
}

Breakdown
RequestTrace::breakdown() const
{
    Breakdown out;
    if (!completed || !has(Stamp::ClientSend) || !has(Stamp::Complete))
        return out;

    Tick prev = tick(Stamp::ClientSend);
    for (std::size_t i = 1; i < kStampCount; i++) {
        if (at[i] == kUnset)
            continue;
        // Server-side checkpoints describe a parallel path when the
        // request completed via PMNet ACKs alone; they did not gate
        // completion, so they carry no latency.
        auto stamp = static_cast<Stamp>(i);
        if (completedByPmnetAck &&
            (stamp == Stamp::ServerRx || stamp == Stamp::ServerStart ||
             stamp == Stamp::ServerEnd))
            continue;
        // Parallel-path races can leave a checkpoint behind the
        // running clock; skipping it keeps every interval
        // non-negative and the partition exact.
        if (at[i] < prev)
            continue;
        TickDelta interval = at[i] - prev;
        switch (kBucketOf[i]) {
          case Bucket::ClientStack:   out.clientStack += interval; break;
          case Bucket::Wire:          out.wire += interval; break;
          case Bucket::Queueing:      out.queueing += interval; break;
          case Bucket::DevicePersist:
            out.devicePersist += interval;
            // Stage vs fence-wait sub-attribution: the interval
            // ending at PersistStage is the PM write; the one ending
            // at PersistDone is the epoch-close fence wait.
            if (stamp == Stamp::PersistStage)
                out.devicePersistStage += interval;
            else
                out.devicePersistFence += interval;
            break;
          case Bucket::Server:        out.server += interval; break;
          case Bucket::None:          break;
        }
        prev = at[i];
    }
    return out;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
{
    if (capacity == 0)
        capacity = 1;
    slots_.resize(capacity);
    // Index sized >= 2x slots, power of two for mask probing.
    std::size_t table_size = 2;
    while (table_size < 2 * capacity)
        table_size *= 2;
    table_.assign(table_size, -1);
    tableMask_ = table_size - 1;
}

std::size_t
FlightRecorder::probeFor(std::uint64_t request_id) const
{
    std::size_t i = mixId(request_id) & tableMask_;
    while (table_[i] >= 0 &&
           slots_[static_cast<std::size_t>(table_[i])].requestId !=
               request_id)
        i = (i + 1) & tableMask_;
    return i;
}

void
FlightRecorder::indexInsert(std::uint64_t request_id, std::int32_t slot)
{
    table_[probeFor(request_id)] = slot;
}

void
FlightRecorder::indexErase(std::uint64_t request_id)
{
    std::size_t i = probeFor(request_id);
    if (table_[i] < 0)
        return;
    // Backward-shift deletion keeps the probe chains intact without
    // tombstones (same technique as common/key.h's FlatKeyTable).
    std::size_t j = i;
    for (;;) {
        table_[i] = -1;
        for (;;) {
            j = (j + 1) & tableMask_;
            if (table_[j] < 0)
                return;
            std::uint64_t key =
                slots_[static_cast<std::size_t>(table_[j])].requestId;
            std::size_t home = mixId(key) & tableMask_;
            // Move table_[j] into the hole at i only if its home
            // position does not lie cyclically inside (i, j].
            if (((j - home) & tableMask_) >= ((j - i) & tableMask_)) {
                table_[i] = table_[j];
                i = j;
                break;
            }
        }
    }
}

RequestTrace *
FlightRecorder::lookup(std::uint64_t request_id)
{
    std::size_t i = probeFor(request_id);
    if (table_[i] < 0)
        return nullptr;
    return &slots_[static_cast<std::size_t>(table_[i])];
}

void
FlightRecorder::begin(std::uint64_t request_id, std::uint16_t session,
                      std::uint32_t first_seq, bool is_update, Tick now,
                      std::uint16_t shard)
{
    if (request_id == 0)
        return;

    RequestTrace *trace = lookup(request_id);
    if (!trace) {
        // Claim the next slab slot round-robin, evicting its current
        // occupant (the oldest begin) on wrap-around.
        std::size_t slot = nextSlot_;
        nextSlot_ = (nextSlot_ + 1) % slots_.size();
        trace = &slots_[slot];
        if (trace->requestId != 0) {
            indexErase(trace->requestId);
            evictions_++;
        }
        *trace = RequestTrace{};
        trace->requestId = request_id;
        indexInsert(request_id, static_cast<std::int32_t>(slot));
    } else {
        *trace = RequestTrace{};
        trace->requestId = request_id;
    }

    trace->session = session;
    trace->shard = shard;
    trace->firstSeq = first_seq;
    trace->isUpdate = is_update;
    trace->at.fill(RequestTrace::kUnset);
    trace->at[static_cast<std::size_t>(Stamp::ClientSend)] = now;
    begins_++;
}

void
FlightRecorder::stampAt(std::uint64_t request_id, Stamp stamp, Tick now)
{
    if (request_id == 0)
        return;
    RequestTrace *trace = lookup(request_id);
    if (!trace || trace->completed)
        return;
    std::size_t i = static_cast<std::size_t>(stamp);
    if (trace->at[i] == RequestTrace::kUnset || kLastWins[i])
        trace->at[i] = now;
}

void
FlightRecorder::complete(std::uint64_t request_id, Tick now,
                         bool by_pmnet_ack)
{
    if (request_id == 0)
        return;
    RequestTrace *trace = lookup(request_id);
    if (!trace || trace->completed)
        return;
    trace->at[static_cast<std::size_t>(Stamp::Complete)] = now;
    trace->completed = true;
    trace->completedByPmnetAck = by_pmnet_ack;
    completes_++;

    if (accumulating_) {
        accum_.count++;
        accum_.sums += trace->breakdown();
        accum_.totalLatency += trace->endToEnd();
    }
}

const RequestTrace *
FlightRecorder::find(std::uint64_t request_id) const
{
    std::size_t i = probeFor(request_id);
    if (table_[i] < 0)
        return nullptr;
    return &slots_[static_cast<std::size_t>(table_[i])];
}

Json
FlightRecorder::Accum::toJson() const
{
    Json out = Json::object();
    out.set("count", count);
    double n = count ? static_cast<double>(count) : 1.0;
    auto mean = [&](TickDelta sum) {
        return static_cast<double>(sum) / n;
    };
    out.set("client_stack_ns", mean(sums.clientStack));
    out.set("wire_ns", mean(sums.wire));
    out.set("queueing_ns", mean(sums.queueing));
    out.set("device_persist_ns", mean(sums.devicePersist));
    out.set("device_persist_stage_ns", mean(sums.devicePersistStage));
    out.set("device_persist_fence_ns", mean(sums.devicePersistFence));
    out.set("server_ns", mean(sums.server));
    out.set("total_ns", mean(totalLatency));
    return out;
}

Json
FlightRecorder::accumJson() const
{
    return accum_.toJson();
}

} // namespace pmnet::obs
