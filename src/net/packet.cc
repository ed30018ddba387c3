#include "net/packet.h"

#include <vector>

#include "common/crc32.h"
#include "common/logging.h"

namespace pmnet::net {

/**
 * Backing store of the pool, shared between the thread-local PacketPool
 * front and every outstanding packet's deleter, so released packets
 * always have a live free-list to return to (or, after the pool front
 * is gone, are deleted on the Impl's destruction path).
 *
 * Lifetime is tracked manually instead of with shared_ptr: every
 * acquisition and release happens on the pool's own thread (the
 * PacketPool contract), so a plain counter of outstanding control
 * blocks avoids two-to-six atomic refcount operations per packet —
 * which would otherwise cost more than the allocation being saved.
 * The control-block deallocation is the last pool touch in a packet's
 * destruction sequence, so `outstandingCtrl` counts control blocks:
 * when the pool front is gone and the count reaches zero, the Impl
 * frees itself.
 */
struct PacketPool::Impl
{
    /** Free-list growth beyond this point just deletes (bounds memory
     *  after a burst); generously above any steady-state in-flight
     *  count seen in the testbed. */
    static constexpr std::size_t kMaxParked = 8192;

    /** Payload capacity worth keeping warm; jumbo one-off buffers are
     *  dropped on release rather than parked. */
    static constexpr std::size_t kMaxKeptPayload = 16 * 1024;

    std::vector<Packet *> free;
    Stats stats;
    bool open = true; ///< false once the PacketPool front is destroyed

    /**
     * Recycled shared_ptr control blocks. Every pooled packet's
     * control block has the same size (deleter + allocator layout is
     * fixed), so a single size class covers the steady state and the
     * shared_ptr constructor stops hitting operator new entirely.
     */
    std::vector<void *> ctrlFree;
    std::size_t ctrlBlockSize = 0;
    std::uint64_t outstandingCtrl = 0;

    ~Impl()
    {
        for (Packet *p : free)
            delete p;
        for (void *block : ctrlFree)
            ::operator delete(block);
    }

    void *
    ctrlAlloc(std::size_t bytes)
    {
        outstandingCtrl++;
        if (ctrlBlockSize == 0)
            ctrlBlockSize = bytes;
        if (bytes == ctrlBlockSize && !ctrlFree.empty()) {
            void *block = ctrlFree.back();
            ctrlFree.pop_back();
            return block;
        }
        return ::operator new(bytes);
    }

    void
    ctrlRelease(void *block, std::size_t bytes)
    {
        outstandingCtrl--;
        if (open && bytes == ctrlBlockSize &&
            ctrlFree.size() < kMaxParked) {
            ctrlFree.push_back(block);
            return;
        }
        ::operator delete(block);
        // Last straggler packet gone after the pool front closed.
        if (!open && outstandingCtrl == 0)
            delete this;
    }

    void
    release(Packet *pkt)
    {
        stats.released++;
        if (!open || free.size() >= kMaxParked ||
            pkt->payload.capacity() > kMaxKeptPayload) {
            delete pkt;
            return;
        }
        // Scrub to the default-constructed state so no header or
        // payload bytes leak into the next acquisition.
        pkt->src = kInvalidNode;
        pkt->dst = kInvalidNode;
        pkt->srcPort = 0;
        pkt->dstPort = 0;
        pkt->pmnet.reset();
        pkt->payload.clear(); // keeps capacity warm
        pkt->requestId = 0;
        pkt->fragment = 0;
        pkt->fragmentCount = 1;
        free.push_back(pkt);
    }
};

namespace {

/** Refcount-zero hook returning the packet to its pool. */
struct PoolDeleter
{
    PacketPool::Impl *impl;

    void
    operator()(Packet *pkt) const
    {
        impl->release(pkt);
    }
};

/**
 * Allocator handed to the shared_ptr constructor so control blocks
 * come from (and return to) the pool's arena. Holds a raw Impl
 * pointer: the Impl stays alive while any control block it allocated
 * is outstanding (see Impl's lifetime comment), and the standard's
 * deallocation path invokes deallocate as the final act, which is
 * exactly when the Impl may self-destruct.
 */
template <typename T>
struct CtrlArenaAlloc
{
    using value_type = T;

    PacketPool::Impl *impl;

    explicit CtrlArenaAlloc(PacketPool::Impl *i) : impl(i) {}

    template <typename U>
    CtrlArenaAlloc(const CtrlArenaAlloc<U> &other) : impl(other.impl)
    {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(impl->ctrlAlloc(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        impl->ctrlRelease(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const CtrlArenaAlloc<U> &other) const
    {
        return impl == other.impl;
    }
};

} // namespace

PacketPool::PacketPool() : impl_(new Impl) {}

PacketPool::~PacketPool()
{
    impl_->open = false;
    // Packets still in flight: the Impl lingers (closed) and deletes
    // itself when the last control block is returned.
    if (impl_->outstandingCtrl == 0)
        delete impl_;
}

PacketPool &
PacketPool::local()
{
    static thread_local PacketPool pool;
    return pool;
}

MutPacketPtr
PacketPool::acquire()
{
    Packet *pkt;
    if (!impl_->free.empty()) {
        pkt = impl_->free.back();
        impl_->free.pop_back();
        impl_->stats.reused++;
    } else {
        pkt = new Packet;
        impl_->stats.allocated++;
    }
    return MutPacketPtr(pkt, PoolDeleter{impl_},
                        CtrlArenaAlloc<Packet>(impl_));
}

void
PacketPool::registerMetrics(obs::MetricRegistry &registry,
                            std::string_view prefix)
{
    std::string base(prefix);
    registry.attach(base + ".allocated", impl_->stats.allocated);
    registry.attach(base + ".reused", impl_->stats.reused);
    registry.attach(base + ".released", impl_->stats.released);
    registry.probe(base + ".parked", [this]() {
        return obs::Json(static_cast<std::uint64_t>(freeCount()));
    });
}

std::size_t
PacketPool::freeCount() const
{
    return impl_->free.size();
}

void
PacketPool::trim()
{
    for (Packet *p : impl_->free)
        delete p;
    impl_->free.clear();
}

MutPacketPtr
makePacket()
{
    return PacketPool::local().acquire();
}

const char *
packetTypeName(PacketType type)
{
    switch (type) {
      case PacketType::UpdateReq: return "update-req";
      case PacketType::BypassReq: return "bypass-req";
      case PacketType::PmnetAck: return "pmnet-ack";
      case PacketType::ServerAck: return "server-ack";
      case PacketType::Retrans: return "retrans";
      case PacketType::Response: return "response";
      case PacketType::RecoveryPoll: return "recovery-poll";
      case PacketType::Heartbeat: return "heartbeat";
      case PacketType::HeartbeatAck: return "heartbeat-ack";
      case PacketType::ResilverPush: return "resilver-push";
    }
    return "unknown";
}

namespace {

inline void
storeLe16(std::uint8_t *out, std::uint16_t v)
{
    out[0] = static_cast<std::uint8_t>(v);
    out[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void
storeLe32(std::uint8_t *out, std::uint32_t v)
{
    out[0] = static_cast<std::uint8_t>(v);
    out[1] = static_cast<std::uint8_t>(v >> 8);
    out[2] = static_cast<std::uint8_t>(v >> 16);
    out[3] = static_cast<std::uint8_t>(v >> 24);
}

} // namespace

PmnetHeader::WireBytes
PmnetHeader::encode() const
{
    WireBytes out;
    out[0] = static_cast<std::uint8_t>(type);
    storeLe16(&out[1], sessionId);
    storeLe32(&out[3], seqNum);
    storeLe32(&out[7], hashVal);
    return out;
}

void
PmnetHeader::serialize(Bytes &out) const
{
    WireBytes wire = encode();
    out.insert(out.end(), wire.begin(), wire.end());
}

namespace {

inline std::uint16_t
loadLe16(const std::uint8_t *in)
{
    return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

inline std::uint32_t
loadLe32(const std::uint8_t *in)
{
    return static_cast<std::uint32_t>(in[0]) |
           (static_cast<std::uint32_t>(in[1]) << 8) |
           (static_cast<std::uint32_t>(in[2]) << 16) |
           (static_cast<std::uint32_t>(in[3]) << 24);
}

} // namespace

bool
PmnetHeader::parse(const std::uint8_t *data, std::size_t len,
                   PmnetHeader &out)
{
    if (len < kWireSize)
        return false;
    std::uint8_t raw_type = data[0];
    if (raw_type < 1 || raw_type == 10 ||
        raw_type > static_cast<std::uint8_t>(PacketType::ResilverPush)) {
        return false;
    }
    out.type = static_cast<PacketType>(raw_type);
    out.sessionId = loadLe16(data + 1);
    out.seqNum = loadLe32(data + 3);
    out.hashVal = loadLe32(data + 7);
    return true;
}

std::optional<PmnetHeader>
PmnetHeader::parse(ByteReader &reader)
{
    PmnetHeader header;
    if (!parse(reader.peek(), reader.remaining(), header))
        return std::nullopt;
    reader.skip(kWireSize);
    return header;
}

std::uint32_t
PmnetHeader::computeHash(PacketType type, std::uint16_t session_id,
                         std::uint32_t seq_num, NodeId src, NodeId dst)
{
    // Explicit little-endian stores, so the HashVal — which doubles as
    // the device's log-store index — is identical on any host
    // endianness or compiler (a packed host-order struct would flip
    // the hashed bytes on big-endian). Golden values are pinned in
    // tests/test_net.cc.
    std::array<std::uint8_t, 15> fields;
    fields[0] = static_cast<std::uint8_t>(type);
    storeLe16(&fields[1], session_id);
    storeLe32(&fields[3], seq_num);
    storeLe32(&fields[7], src);
    storeLe32(&fields[11], dst);
    return crc32(fields.data(), fields.size());
}

std::size_t
Packet::wireSize() const
{
    std::size_t size = kEnvelopeBytes + payload.size();
    if (pmnet)
        size += PmnetHeader::kWireSize;
    return size;
}

std::size_t
Packet::payloadWireSize() const
{
    return (pmnet ? PmnetHeader::kWireSize : 0) + payload.size();
}

Bytes
Packet::serializePayload() const
{
    Bytes out;
    serializePayloadInto(out);
    return out;
}

void
Packet::serializePayloadInto(Bytes &out) const
{
    out.clear();
    out.reserve(payloadWireSize());
    if (pmnet)
        pmnet->serialize(out);
    out.insert(out.end(), payload.begin(), payload.end());
}

bool
Packet::parsePayload(const Bytes &wire)
{
    PmnetHeader header;
    if (!PmnetHeader::parse(wire.data(), wire.size(), header))
        return false;
    pmnet = header;
    // assign() reuses the (possibly pooled) payload buffer's capacity.
    payload.assign(wire.begin() + PmnetHeader::kWireSize, wire.end());
    return true;
}

bool
Packet::verifyHash() const
{
    if (!pmnet)
        return false;
    std::uint32_t expected = PmnetHeader::computeHash(
        pmnet->type, pmnet->sessionId, pmnet->seqNum, src, dst);
    return expected == pmnet->hashVal;
}

MutPacketPtr
makePmnetPacketMut(NodeId src, NodeId dst, PacketType type,
                   std::uint16_t session_id, std::uint32_t seq_num,
                   Bytes payload, std::uint64_t request_id)
{
    MutPacketPtr pkt = PacketPool::local().acquire();
    pkt->src = src;
    pkt->dst = dst;
    pkt->srcPort = kPmnetPortLow;
    pkt->dstPort = kPmnetPortLow;
    PmnetHeader header;
    header.type = type;
    header.sessionId = session_id;
    header.seqNum = seq_num;
    header.hashVal =
        PmnetHeader::computeHash(type, session_id, seq_num, src, dst);
    pkt->pmnet = header;
    pkt->payload = std::move(payload);
    pkt->requestId = request_id;
    return pkt;
}

PacketPtr
makePmnetPacket(NodeId src, NodeId dst, PacketType type,
                std::uint16_t session_id, std::uint32_t seq_num,
                Bytes payload, std::uint64_t request_id)
{
    return makePmnetPacketMut(src, dst, type, session_id, seq_num,
                              std::move(payload), request_id);
}

MutPacketPtr
makeRefPacketMut(NodeId src, NodeId dst, PacketType type,
                 std::uint16_t session_id, std::uint32_t seq_num,
                 std::uint32_t referenced_hash, std::uint64_t request_id)
{
    MutPacketPtr pkt = PacketPool::local().acquire();
    pkt->src = src;
    pkt->dst = dst;
    pkt->srcPort = kPmnetPortLow;
    pkt->dstPort = kPmnetPortLow;
    PmnetHeader header;
    header.type = type;
    header.sessionId = session_id;
    header.seqNum = seq_num;
    header.hashVal = referenced_hash;
    pkt->pmnet = header;
    pkt->requestId = request_id;
    return pkt;
}

PacketPtr
makeRefPacket(NodeId src, NodeId dst, PacketType type,
              std::uint16_t session_id, std::uint32_t seq_num,
              std::uint32_t referenced_hash, std::uint64_t request_id)
{
    return makeRefPacketMut(src, dst, type, session_id, seq_num,
                            referenced_hash, request_id);
}

PacketPtr
makePlainPacket(NodeId src, NodeId dst, Bytes payload,
                std::uint64_t request_id)
{
    MutPacketPtr pkt = PacketPool::local().acquire();
    pkt->src = src;
    pkt->dst = dst;
    pkt->srcPort = 40000;
    pkt->dstPort = 40000;
    pkt->payload = std::move(payload);
    pkt->requestId = request_id;
    return pkt;
}

std::string
describe(const Packet &pkt)
{
    if (!pkt.pmnet) {
        return formatMessage("plain %u->%u %zuB", pkt.src, pkt.dst,
                             pkt.payload.size());
    }
    return formatMessage("%s s%u q%u %u->%u %zuB",
                         packetTypeName(pkt.pmnet->type),
                         pkt.pmnet->sessionId, pkt.pmnet->seqNum, pkt.src,
                         pkt.dst, pkt.payload.size());
}

} // namespace pmnet::net
