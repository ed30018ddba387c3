#include "stack/client_lib.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/flight_recorder.h"

namespace pmnet::stack {

using net::PacketPtr;
using net::PacketType;

ClientLib::ClientLib(Host &host, ClientConfig config)
    : host_(host), config_(config)
{
    if (config_.server == net::kInvalidNode)
        fatal("ClientLib(%s): no server configured", host.name().c_str());
    if (config_.replicationDegree == 0)
        fatal("ClientLib(%s): replicationDegree must be >= 1",
              host.name().c_str());
    host_.setAppReceive([this](PacketPtr pkt) { onReceive(pkt); });
}

void
ClientLib::setShardMap(const pmnet::ShardMap *map,
                       std::vector<net::NodeId> shard_servers)
{
    shardMap_ = map;
    shardServers_ = std::move(shard_servers);
    if (!map) {
        shardSeqs_.assign(1, ShardSeq{});
        return;
    }
    if (shardServers_.size() != map->shardCount())
        fatal("ClientLib(%s): %zu shard servers for %u shards",
              host_.name().c_str(), shardServers_.size(),
              map->shardCount());
    if (map->shardCount() > 256)
        fatal("ClientLib(%s): request ids carry an 8-bit shard "
              "component (%u shards requested)",
              host_.name().c_str(), map->shardCount());
    shardSeqs_.assign(map->shardCount(), ShardSeq{});
}

void
ClientLib::startSession()
{
    sessionOpen_ = true;
}

void
ClientLib::endSession()
{
    sessionOpen_ = false;
    for (auto &[id, req] : requests_)
        req.timer.cancel();
    requests_.clear();
    hashToRequest_.clear();
}

std::uint64_t
ClientLib::newRequestId(unsigned shard)
{
    // Bits [40,64): host. Bits [32,40): shard — two shards issuing
    // the same local counter value still key distinct FlightRecorder
    // traces. Bits [0,32): per-client counter. Without a shard map
    // the shard bits are zero, so ids match the single-shard layout.
    return (static_cast<std::uint64_t>(host_.id()) << 40) |
           (static_cast<std::uint64_t>(shard) << 32) | nextRequest_++;
}

void
ClientLib::sendUpdate(Bytes payload, std::uint64_t key_hash,
                      UpdateDone done)
{
    if (!sessionOpen_)
        fatal("ClientLib(%s): sendUpdate before startSession",
              host_.name().c_str());
    stats_.updatesSent++;

    unsigned shard = shardFor(key_hash);
    net::NodeId server = serverFor(shard);
    ShardSeq &seqs = shardSeqs_[shard];

    std::uint64_t request_id = newRequestId(shard);
    if (recorder_)
        recorder_->begin(request_id, config_.sessionId, seqs.nextUpdate,
                         true, host_.simulator().now(), shard);
    Request req;
    req.id = request_id;
    req.isUpdate = true;
    req.shard = shard;
    req.requireServerAck =
        shardMap_ &&
        shardMap_->health(shard) != pmnet::ShardMap::Health::Healthy;
    req.updateDone = std::move(done);
    req.firstSeq = seqs.nextUpdate;

    // Fragment into MTU-sized packets, one SeqNum each (Sec IV-A3).
    std::size_t total = payload.size();
    std::size_t frag_count =
        total == 0 ? 1 : (total + config_.mtuPayload - 1) /
                             config_.mtuPayload;
    std::vector<PacketPtr> burst;
    for (std::size_t i = 0; i < frag_count; i++) {
        std::size_t begin = i * config_.mtuPayload;
        std::size_t end = std::min(total, begin + config_.mtuPayload);
        Bytes chunk(payload.begin() + static_cast<long>(begin),
                    payload.begin() + static_cast<long>(end));
        std::uint32_t seq = seqs.nextUpdate++;
        net::MutPacketPtr pkt_mut = net::makePmnetPacketMut(
            host_.id(), server, PacketType::UpdateReq,
            config_.sessionId, seq, std::move(chunk), request_id);
        pkt_mut->fragment = static_cast<std::uint32_t>(i);
        pkt_mut->fragmentCount = static_cast<std::uint32_t>(frag_count);
        PacketPtr pkt = pkt_mut;
        req.fragments.push_back(Fragment{pkt, {}, false});
        hashToRequest_[req.fragments.back().packet->pmnet->hashVal] =
            request_id;
        burst.push_back(std::move(pkt));
    }

    auto [it, inserted] = requests_.emplace(request_id, std::move(req));
    (void)inserted;
    armTimer(it->second);
    if (shardDark(shard)) {
        // The chain is severed: transmitting now feeds a black hole.
        // Park the request; the retry timer flushes it once repair
        // begins (the seq is already assigned, so order is kept).
        stats_.shardParked++;
        return;
    }
    host_.appSend(std::move(burst));
}

void
ClientLib::bypass(Bytes payload, std::uint64_t key_hash, BypassDone done)
{
    if (!sessionOpen_)
        fatal("ClientLib(%s): bypass before startSession",
              host_.name().c_str());
    if (payload.size() > config_.mtuPayload)
        fatal("ClientLib(%s): bypass payload %zu exceeds MTU payload %zu",
              host_.name().c_str(), payload.size(), config_.mtuPayload);
    stats_.bypassSent++;

    unsigned shard = shardFor(key_hash);
    ShardSeq &seqs = shardSeqs_[shard];

    std::uint64_t request_id = newRequestId(shard);
    std::uint32_t seq = seqs.nextBypass++;
    if (recorder_)
        recorder_->begin(request_id, config_.sessionId, seq, false,
                         host_.simulator().now(), shard);
    PacketPtr pkt = net::makePmnetPacket(host_.id(), serverFor(shard),
                                         PacketType::BypassReq,
                                         config_.sessionId, seq,
                                         std::move(payload), request_id);

    Request req;
    req.id = request_id;
    req.isUpdate = false;
    req.shard = shard;
    req.bypassDone = std::move(done);
    req.firstSeq = seq;
    req.fragments.push_back(Fragment{pkt, {}, false});
    hashToRequest_[pkt->pmnet->hashVal] = request_id;

    auto [it, inserted] = requests_.emplace(request_id, std::move(req));
    (void)inserted;
    armTimer(it->second);
    if (shardDark(shard)) {
        stats_.shardParked++;
        return;
    }
    host_.appSend({pkt});
}

ClientLib::Request *
ClientLib::requestForHash(std::uint32_t hash, std::uint32_t seq,
                          std::size_t *index_out)
{
    auto hash_it = hashToRequest_.find(hash);
    if (hash_it == hashToRequest_.end())
        return nullptr;
    auto req_it = requests_.find(hash_it->second);
    if (req_it == requests_.end())
        return nullptr;
    Request &req = req_it->second;
    if (seq < req.firstSeq ||
        seq - req.firstSeq >= req.fragments.size())
        return nullptr; // stale/corrupt reference
    std::size_t index = seq - req.firstSeq;
    // Guard against (astronomically rare) CRC collisions across
    // outstanding requests.
    if (req.fragments[index].packet->pmnet->hashVal != hash)
        return nullptr;
    if (index_out)
        *index_out = index;
    return &req;
}

bool
ClientLib::fragmentComplete(const Request &req, const Fragment &frag) const
{
    if (frag.serverAcked)
        return true;
    // Fail-over to tail: while the shard's chain is being repaired
    // the replica count is not trustworthy, so only the tail (the
    // shard server itself) can complete the fragment.
    if (req.requireServerAck)
        return false;
    return req.isUpdate &&
           frag.pmnetAckers.size() >= config_.replicationDegree;
}

void
ClientLib::onReceive(const PacketPtr &pkt)
{
    if (!pkt->isPmnet())
        return;
    switch (pkt->pmnet->type) {
      case PacketType::PmnetAck:
        handlePmnetAck(*pkt);
        break;
      case PacketType::ServerAck:
        handleServerAck(*pkt);
        break;
      case PacketType::Response:
        handleResponse(*pkt);
        break;
      case PacketType::Retrans:
        handleRetrans(*pkt);
        break;
      default:
        debug("%s: unexpected %s at client", host_.name().c_str(),
              net::describe(*pkt).c_str());
        break;
    }
}

void
ClientLib::handlePmnetAck(const net::Packet &pkt)
{
    if (pkt.pmnet->sessionId != config_.sessionId)
        return;
    std::size_t index = 0;
    Request *req =
        requestForHash(pkt.pmnet->hashVal, pkt.pmnet->seqNum, &index);
    if (!req || !req->isUpdate)
        return;
    req->fragments[index].pmnetAckers.insert(pkt.src);
    maybeComplete(req->id);
}

void
ClientLib::handleServerAck(const net::Packet &pkt)
{
    if (pkt.pmnet->sessionId != config_.sessionId)
        return;
    std::size_t index = 0;
    Request *req =
        requestForHash(pkt.pmnet->hashVal, pkt.pmnet->seqNum, &index);
    if (!req)
        return;
    req->fragments[index].serverAcked = true;
    maybeComplete(req->id);
}

void
ClientLib::handleResponse(const net::Packet &pkt)
{
    if (pkt.pmnet->sessionId != config_.sessionId)
        return;
    // The response references the request's first fragment's hash,
    // which is unique across the update and bypass sequence spaces.
    Request *req =
        requestForHash(pkt.pmnet->hashVal, pkt.pmnet->seqNum, nullptr);
    if (!req)
        return;
    req->responseReceived = true;
    req->response = pkt.payload;
    if (!req->isUpdate) {
        // A Response also implies the server processed the request.
        for (Fragment &frag : req->fragments)
            frag.serverAcked = true;
    }
    maybeComplete(req->id);
}

void
ClientLib::handleRetrans(const net::Packet &pkt)
{
    // No device on the path had the packet logged; resend it ourselves.
    if (pkt.pmnet->sessionId != config_.sessionId)
        return;
    std::size_t index = 0;
    Request *req =
        requestForHash(pkt.pmnet->hashVal, pkt.pmnet->seqNum, &index);
    if (!req)
        return; // already completed and garbage collected
    stats_.retransAnswered++;
    stats_.packetsResent++;
    host_.appSend({req->fragments[index].packet});
}

void
ClientLib::maybeComplete(std::uint64_t request_id)
{
    auto it = requests_.find(request_id);
    if (it == requests_.end())
        return;
    Request &req = it->second;

    bool by_pmnet_ack = false;
    if (req.isUpdate) {
        bool all_pmnet = true;
        for (const Fragment &frag : req.fragments) {
            if (!fragmentComplete(req, frag))
                return;
            all_pmnet &= !frag.serverAcked;
        }
        stats_.updatesCompleted++;
        by_pmnet_ack = all_pmnet;
        if (all_pmnet)
            stats_.completedByPmnetAck++;
        else
            stats_.completedByServerAck++;
    } else {
        if (!req.responseReceived)
            return;
        stats_.bypassCompleted++;
    }

    if (recorder_)
        recorder_->complete(request_id, host_.simulator().now(),
                            by_pmnet_ack);

    req.timer.cancel();
    for (const Fragment &frag : req.fragments)
        hashToRequest_.erase(frag.packet->pmnet->hashVal);

    // Detach before invoking: the callback usually issues the next
    // request immediately.
    UpdateDone update_done = std::move(req.updateDone);
    BypassDone bypass_done = std::move(req.bypassDone);
    Bytes response = std::move(req.response);
    bool is_update = req.isUpdate;
    requests_.erase(it);

    if (!is_update) {
        if (bypass_done)
            bypass_done(response);
    } else {
        if (update_done)
            update_done();
    }
}

void
ClientLib::registerMetrics(obs::MetricRegistry &registry,
                           std::string_view prefix)
{
    std::string base(prefix);
    registry.attach(base + ".updatesSent", stats_.updatesSent);
    registry.attach(base + ".bypassSent", stats_.bypassSent);
    registry.attach(base + ".updatesCompleted", stats_.updatesCompleted);
    registry.attach(base + ".bypassCompleted", stats_.bypassCompleted);
    registry.attach(base + ".completedByPmnetAck",
                    stats_.completedByPmnetAck);
    registry.attach(base + ".completedByServerAck",
                    stats_.completedByServerAck);
    registry.attach(base + ".timeouts", stats_.timeouts);
    registry.attach(base + ".packetsResent", stats_.packetsResent);
    registry.attach(base + ".retransAnswered", stats_.retransAnswered);
    registry.attach(base + ".shardParked", stats_.shardParked);
    registry.attach(base + ".shardHeld", stats_.shardHeld);
}

void
ClientLib::armTimer(Request &req)
{
    std::uint64_t request_id = req.id;
    req.timer = host_.simulator().schedule(
        config_.retryTimeout,
        [this, request_id]() { onTimeout(request_id); });
}

void
ClientLib::onTimeout(std::uint64_t request_id)
{
    auto it = requests_.find(request_id);
    if (it == requests_.end())
        return;
    Request &req = it->second;
    if (shardDark(req.shard)) {
        // Still a black hole: hold the request instead of feeding
        // retries into a severed chain. The next timer fire after the
        // repair begins transmits the pending fragments.
        stats_.shardHeld++;
        armTimer(req);
        return;
    }
    stats_.timeouts++;

    std::vector<PacketPtr> resend;
    for (const Fragment &frag : req.fragments) {
        if (!fragmentComplete(req, frag))
            resend.push_back(frag.packet);
    }
    if (!req.isUpdate && !req.responseReceived && resend.empty())
        resend.push_back(req.fragments.front().packet);

    if (!resend.empty()) {
        stats_.packetsResent += resend.size();
        req.resends++;
        host_.appSend(std::move(resend));
    }
    armTimer(req);
}

} // namespace pmnet::stack
