#include "pmnet/device.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/flight_recorder.h"

namespace pmnet::pmnetdev {

using net::PacketPtr;
using net::PacketType;

PmnetDevice::PmnetDevice(sim::Simulator &simulator,
                         std::string object_name, net::NodeId node_id,
                         DeviceConfig config)
    : ForwardingNode(simulator, std::move(object_name), node_id),
      config_(config), store_(config.pm),
      writeQueue_(config.logQueueBytes, config.pm),
      readQueue_(config.logQueueBytes, config.pm),
      commitEpoch_(pm::CommitEpochConfig{config.epochBytes,
                                         config.epochOps,
                                         config.epochMaxHold}),
      cache_(config.cacheCapacity)
{
    // Bounded by the SRAM-queued writes plus the unretired epochs;
    // reserved once so the persist hot path does not allocate.
    pending_.reserve(64);
}

void
PmnetDevice::enableCache(const CacheCodec *codec)
{
    codec_ = codec;
}

void
PmnetDevice::traceEvent(const char *what, const net::Packet &pkt)
{
    if (trace_)
        trace_->record(now(), formatMessage("%s %s", what,
                                            net::describe(pkt).c_str()));
}

void
PmnetDevice::receive(PacketPtr pkt, int in_port)
{
    (void)in_port;
    scheduleGuarded(config_.pipelineLatency,
                    [this, pkt = std::move(pkt)]() { process(pkt); });
}

void
PmnetDevice::process(PacketPtr pkt)
{
    // Ingress stage: non-PMNet traffic is plain-forwarded.
    if (!pkt->isPmnet() || !net::isPmnetPort(pkt->dstPort)) {
        stats_.nonPmnetForwarded++;
        forward(std::move(pkt));
        return;
    }

    if (recorder_ &&
        (pkt->pmnet->type == PacketType::UpdateReq ||
         pkt->pmnet->type == PacketType::NearDataReq ||
         pkt->pmnet->type == PacketType::BypassReq))
        recorder_->stampAt(pkt->requestId, obs::Stamp::DeviceIngress,
                           now());

    switch (pkt->pmnet->type) {
      case PacketType::UpdateReq:
        handleUpdateReq(pkt);
        break;
      case PacketType::NearDataReq:
        handleNearData(pkt);
        break;
      case PacketType::BypassReq:
        handleBypassReq(pkt);
        break;
      case PacketType::PmnetAck:
        // ACK from another PMNet: forward along its path.
        forward(std::move(pkt));
        break;
      case PacketType::ServerAck:
        handleServerAck(pkt);
        break;
      case PacketType::Retrans:
        handleRetrans(pkt);
        break;
      case PacketType::Response:
        handleResponse(pkt);
        break;
      case PacketType::RecoveryPoll:
        handleRecoveryPoll(pkt);
        break;
      case PacketType::ResilverPush:
        handleResilverPush(pkt);
        break;
      case PacketType::Heartbeat:
        // Another device's probe passing through.
        forward(std::move(pkt));
        break;
      case PacketType::HeartbeatAck:
        handleHeartbeatAck(pkt);
        break;
    }
}

void
PmnetDevice::enableHeartbeat(net::NodeId server)
{
    heartbeatEnabled_ = true;
    heartbeatServer_ = server;
    heartbeatMisses_ = 0;
    heartbeatAckSeen_ = true; // grace for the first interval
    heartbeatTick();
}

void
PmnetDevice::heartbeatTick()
{
    if (!heartbeatEnabled_ || !isUp())
        return;

    // Evaluate the previous interval.
    if (heartbeatAckSeen_) {
        heartbeatMisses_ = 0;
    } else if (++heartbeatMisses_ >= kHeartbeatMissThreshold &&
               !serverDown_) {
        serverDown_ = true;
        stats_.serverDownEvents++;
        debug("%s: server %u declared down after %u missed heartbeats",
              name().c_str(), heartbeatServer_, heartbeatMisses_);
    }
    heartbeatAckSeen_ = false;

    stats_.heartbeatsSent++;
    forward(net::makeRefPacket(id(), heartbeatServer_,
                               PacketType::Heartbeat, 0,
                               static_cast<std::uint32_t>(
                                   stats_.heartbeatsSent),
                               0));
    scheduleGuarded(kHeartbeatInterval, [this]() { heartbeatTick(); });
}

void
PmnetDevice::handleHeartbeatAck(const net::PacketPtr &pkt)
{
    if (pkt->dst != id()) {
        forward(pkt);
        return;
    }
    stats_.heartbeatAcks++;
    heartbeatAckSeen_ = true;
    if (serverDown_) {
        // The server is back: replay our log for it (Fig 3, steps
        // 6-7) without waiting for a RecoveryPoll.
        serverDown_ = false;
        heartbeatMisses_ = 0;
        stats_.serverUpEvents++;
        streamLog(StreamKind::Replay, replayOrder(heartbeatServer_), 0,
                  heartbeatServer_);
    }
}

std::optional<ParsedUpdate>
PmnetDevice::parsedKeyOf(const net::Packet &pkt) const
{
    if (!codec_)
        return std::nullopt;
    return codec_->parseUpdate(pkt.payload);
}

void
PmnetDevice::trackUnlogged(std::uint32_t hash_val, const KeyRef &key)
{
    // Bounded side table: under sustained collisions, losing an old
    // mapping only costs a cache entry staying Stale until eviction —
    // never correctness.
    if (unloggedKeys_.size() >= 4 * config_.cacheCapacity)
        unloggedKeys_.clear();
    unloggedKeys_[hash_val] =
        UnloggedKey{std::string(key.view()), key.hash()};
}

void
PmnetDevice::handleUpdateReq(const PacketPtr &pkt)
{
    stats_.updatesSeen++;

    // The HashVal doubles as an integrity check (Section IV-A1); a
    // corrupt header is dropped outright — never logged, never
    // delivered — and the client's retry timer resends the request.
    if (!pkt->verifyHash()) {
        stats_.bypassBadHash++;
        traceEvent("bad-hash drop", *pkt);
        return;
    }

    // Egress: the request is always forwarded to the server right
    // away — logging happens in parallel, off the forwarding path.
    forward(pkt);

    LogAttempt attempt = tryLogAndAck(pkt);
    if (attempt == LogAttempt::Duplicate) {
        // Resend or replay (client retry, recovery resend, stale-log
        // re-forward) of a packet the log already covers. Its value
        // can be *behind* the key's latest committed value — a
        // replayed old SET arriving after a newer one committed must
        // not regress a Persisted entry, so duplicates never touch
        // the cache; the first pass already drove the state machine.
        return;
    }
    bool logged = attempt == LogAttempt::Logged;

    // Read-cache maintenance (T1/T3/T4/T5 and the bypassed case).
    if (auto parsed = parsedKeyOf(*pkt)) {
        cache_.onUpdate(parsed->key, parsed->value, logged);
        if (!logged)
            trackUnlogged(pkt->pmnet->hashVal, parsed->key);
    }
}

PmnetDevice::LogAttempt
PmnetDevice::tryLogAndAck(const PacketPtr &pkt)
{
    const net::PmnetHeader &header = *pkt->pmnet;
    if (findPending(header.hashVal) != pending_.end()) {
        // Resend racing the original's pending write (queued in SRAM,
        // or logged but its fence not retired): not durable yet, and
        // the original's first ACK answers it. Admitting this copy
        // would log (and ack) the same packet twice.
        return LogAttempt::Duplicate;
    }
    if (store_.lookup(header.hashVal)) {
        // Duplicate of a durably logged packet (client resend after a
        // lost ACK): re-ACK.
        stats_.updatesReAcked++;
        if (recorder_)
            recorder_->stampAt(pkt->requestId, obs::Stamp::PersistStage,
                               now());
        sendPmnetAck(pkt);
        return LogAttempt::Duplicate;
    }
    if (pkt->wireSize() > config_.pm.slotBytes) {
        stats_.bypassTooLarge++;
        return LogAttempt::Bypassed;
    }
    if (store_.full()) {
        stats_.bypassQueueFull++;
        return LogAttempt::Bypassed;
    }
    if (!store_.slotFree(header.hashVal)) {
        stats_.bypassCollision++;
        return LogAttempt::Bypassed;
    }
    if (auto done = writeQueue_.admitWrite(pkt->wireSize(), now())) {
        if (recorder_)
            recorder_->stampAt(pkt->requestId, obs::Stamp::PersistStart,
                               now());
        pending_.push_back(PendingWrite{pkt});
        scheduleGuarded(*done - now(),
                        [this, pkt]() { finishLoggedWrite(pkt); });
        return LogAttempt::Logged;
    }
    stats_.bypassQueueFull++;
    return LogAttempt::Bypassed;
}

void
PmnetDevice::sendPmnetAck(const PacketPtr &pkt)
{
    const net::PmnetHeader &h = *pkt->pmnet;
    stats_.acksSent++;
    if (recorder_)
        recorder_->stampAt(pkt->requestId, obs::Stamp::PersistDone,
                           now());
    forward(net::makeRefPacket(id(), pkt->src, PacketType::PmnetAck,
                               h.sessionId, h.seqNum, h.hashVal,
                               pkt->requestId));
}

void
PmnetDevice::respondForServer(const net::Packet &req, Bytes payload)
{
    net::MutPacketPtr resp = net::makePacket();
    resp->src = req.dst; // answer on the server's behalf
    resp->dst = req.src;
    resp->srcPort = net::kPmnetPortLow;
    resp->dstPort = net::kPmnetPortLow;
    net::PmnetHeader h;
    h.type = PacketType::Response;
    h.sessionId = req.pmnet->sessionId;
    h.seqNum = req.pmnet->seqNum;
    h.hashVal = req.pmnet->hashVal;
    resp->pmnet = h;
    resp->payload = std::move(payload);
    resp->requestId = req.requestId;
    forward(std::move(resp));
}

void
PmnetDevice::finishLoggedWrite(const PacketPtr &pkt)
{
    const std::uint32_t hash_val = pkt->pmnet->hashVal;
    auto write = findPending(hash_val);
    auto result = store_.insert(hash_val, pkt, now());
    if (result != pm::LogInsertResult::Ok &&
        result != pm::LogInsertResult::Duplicate) {
        // Lost a race for the slot while queued; the client will fall
        // back to the server ACK.
        pending_.erase(write);
        stats_.bypassStoreRace++;
        traceEvent("slot-race bypass", *pkt);
        return;
    }
    stats_.updatesLogged++;
    if (recorder_)
        recorder_->stampAt(pkt->requestId, obs::Stamp::PersistStage,
                           now());
    write->phase = WritePhase::Staged;
    auto staged = commitEpoch_.stage(pkt->wireSize(), now());
    if (staged.shouldClose) {
        closeCommitEpoch(commitEpoch_.openBytes() >=
                                 commitEpoch_.config().maxBytes
                             ? pm::EpochCloseReason::Bytes
                             : pm::EpochCloseReason::Ops);
    } else if (staged.opened) {
        // Doorbell: bound the ACK hold time even if the epoch never
        // fills. A threshold close in the meantime makes it stale.
        scheduleGuarded(config_.epochMaxHold,
                        [this, seq = staged.epochSeq]() {
                            if (commitEpoch_.stillOpen(seq))
                                closeCommitEpoch(
                                    pm::EpochCloseReason::Doorbell);
                        });
    }
    scheduleReforwardScan();
}

void
PmnetDevice::closeCommitEpoch(pm::EpochCloseReason reason)
{
    // One stall on the write queue per epoch — that is the whole
    // point of the batching. The staged writes only become durable
    // when that fence *retires*: until then they stay fencing, a
    // power failure rolls them back, and duplicates keep waiting for
    // the first ACK instead of being re-ACKed early.
    const Tick retire_at =
        config_.fenceLatency > 0
            ? writeQueue_.stall(config_.fenceLatency, now())
            : now();
    commitEpoch_.close(reason, now(), retire_at);
    for (PendingWrite &write : pending_) {
        if (write.phase == WritePhase::Staged) {
            write.phase = WritePhase::Fencing;
            write.retireAt = retire_at;
        }
    }
    if (retire_at > now())
        scheduleGuarded(retire_at - now(),
                        [this]() { releaseRetiredAcks(); });
    else
        releaseRetiredAcks();
}

void
PmnetDevice::releaseRetiredAcks()
{
    // Epochs close and retire in admission order, so the retired
    // writes are a prefix of pending_; their ACKs leave in stage
    // order.
    auto retired = pending_.begin();
    while (retired != pending_.end() &&
           retired->phase == WritePhase::Fencing &&
           retired->retireAt <= now()) {
        traceEvent("logged+ack", *retired->pkt);
        sendPmnetAck(retired->pkt);
        ++retired;
    }
    pending_.erase(pending_.begin(), retired);
}

std::vector<PmnetDevice::PendingWrite>::iterator
PmnetDevice::findPending(std::uint32_t hash_val)
{
    return std::find_if(pending_.begin(), pending_.end(),
                        [hash_val](const PendingWrite &write) {
                            return write.pkt->pmnet->hashVal == hash_val;
                        });
}

void
PmnetDevice::handleNearData(const PacketPtr &pkt)
{
    stats_.nearDataSeen++;

    // Same integrity discipline as updates: drop on hash mismatch.
    if (!pkt->verifyHash()) {
        stats_.bypassBadHash++;
        traceEvent("bad-hash drop", *pkt);
        return;
    }

    // The server stays authoritative: the request always travels on
    // and is applied there in session order. The device's log entry
    // covers retransmission/recovery and its early ACK covers
    // durability; when the read cache holds the key in a serving-safe
    // state the device additionally computes the RMW result and
    // answers on the server's behalf — the read-modify-write
    // completes in the network, no server round trip.
    forward(pkt);

    LogAttempt attempt = tryLogAndAck(pkt);
    if (attempt == LogAttempt::Duplicate) {
        // Resend of an RMW the device already processed: the first
        // arrival applied it to the cache and (when serving-safe)
        // answered. Applying INCR/APPEND again would double-apply —
        // the device would answer v+2 while the server's reply cache
        // replays v+1, and the cached value would diverge for good.
        // tryLogAndAck re-ACKed durability if appropriate; the value
        // comes from the server's session reply cache.
        traceEvent("near-data dup", *pkt);
        return;
    }
    bool logged = attempt == LogAttempt::Logged;

    if (!codec_)
        return;
    auto key = codec_->parseNearData(pkt->payload);
    if (!key)
        return;
    if (const Bytes *cached = cache_.lookup(*key)) {
        if (auto applied = codec_->applyNearData(pkt->payload, *cached)) {
            stats_.nearDataServed++;
            traceEvent("near-data served", *pkt);
            if (applied->wrote)
                cache_.onUpdate(
                    *key,
                    std::string_view(reinterpret_cast<const char *>(
                                         applied->newValue.data()),
                                     applied->newValue.size()),
                    logged);
            respondForServer(*pkt, std::move(applied->response));
            if (applied->wrote && !logged)
                trackUnlogged(pkt->pmnet->hashVal, *key);
            return;
        }
    }
    // The RMW will change the key's value at the server but the
    // device cannot compute it here: drop whatever is cached so a
    // later read cannot be served stale.
    cache_.invalidate(*key);
}

void
PmnetDevice::handleBypassReq(const PacketPtr &pkt)
{
    if (codec_) {
        if (auto key = codec_->parseRead(pkt->payload)) {
            if (const Bytes *value = cache_.lookup(*key)) {
                // Cache hit: answer directly with a Response that
                // looks exactly like the server's (Fig 10, step 3).
                stats_.cacheResponses++;
                respondForServer(
                    *pkt, codec_->makeReadResponse(key->view(), *value));
                return;
            }
        }
    }
    forward(pkt);
}

void
PmnetDevice::handleServerAck(const PacketPtr &pkt)
{
    stats_.serverAcks++;
    const net::PmnetHeader &header = *pkt->pmnet;

    if (const pm::LogEntry *entry = store_.lookup(header.hashVal)) {
        // Drive the cache transition before the entry disappears.
        if (auto parsed = parsedKeyOf(*entry->packet))
            cache_.onServerAck(parsed->key);
        else if (codec_)
            if (auto key = codec_->parseNearData(entry->packet->payload))
                cache_.onServerAck(*key);
        store_.erase(header.hashVal);
        stats_.invalidations++;
        traceEvent("invalidate", *pkt);
    } else if (codec_) {
        auto it = unloggedKeys_.find(header.hashVal);
        if (it != unloggedKeys_.end()) {
            cache_.onServerAck(KeyRef(std::string_view(it->second.key),
                                      it->second.hash));
            unloggedKeys_.erase(it);
        }
    }
    // The ACK continues toward the client (the next PMNet on the path
    // may hold its own copy of the log entry).
    forward(pkt);
}

void
PmnetDevice::handleRetrans(const PacketPtr &pkt)
{
    stats_.retransSeen++;
    const net::PmnetHeader &header = *pkt->pmnet;
    const pm::LogEntry *entry = store_.lookup(header.hashVal);
    if (entry) {
        if (auto done = readQueue_.admitRead(entry->packet->wireSize(),
                                             now())) {
            stats_.retransServed++;
            traceEvent("retrans-served", *pkt);
            net::PacketPtr logged = entry->packet;
            scheduleGuarded(*done - now(), [this, logged]() {
                forward(logged);
            });
            return; // drop the Retrans; it is satisfied from the log
        }
    }
    stats_.retransForwarded++;
    forward(pkt);
}

void
PmnetDevice::handleResponse(const PacketPtr &pkt)
{
    if (codec_) {
        if (auto parsed = codec_->parseReadResponse(pkt->payload))
            cache_.onReadResponse(parsed->key, parsed->value);
    }
    forward(pkt);
}

void
PmnetDevice::handleRecoveryPoll(const PacketPtr &pkt)
{
    if (pkt->dst != id()) {
        forward(pkt);
        return;
    }
    stats_.recoveryPolls++;
    streamLog(StreamKind::Replay, replayOrder(pkt->src), 0, pkt->src);
}

std::vector<std::uint32_t>
PmnetDevice::replayOrder(net::NodeId server) const
{
    // Sort key: (sessionId << 32 | seqNum, hashVal).
    std::vector<std::pair<std::uint64_t, std::uint32_t>> keys;
    keys.reserve(store_.size());
    store_.forEach([&](const pm::LogEntry &entry) {
        if (entry.packet->dst != server)
            return;
        const net::PmnetHeader &header = *entry.packet->pmnet;
        keys.emplace_back(std::uint64_t{header.sessionId} << 32 |
                              header.seqNum,
                          entry.hashVal);
    });
    std::sort(keys.begin(), keys.end());
    std::vector<std::uint32_t> hashes;
    hashes.reserve(keys.size());
    for (const auto &key : keys)
        hashes.push_back(key.second);
    return hashes;
}

void
PmnetDevice::streamLog(StreamKind kind, std::vector<std::uint32_t> hashes,
                       std::size_t index, net::NodeId to)
{
    // Skip entries invalidated (server-ACKed) since the scan.
    while (index < hashes.size() && !store_.lookup(hashes[index]))
        index++;
    if (index >= hashes.size()) {
        if (kind == StreamKind::Resilver)
            resilverActive_ = false;
        return;
    }

    const pm::LogEntry *entry = store_.lookup(hashes[index]);
    auto done = readQueue_.admitRead(entry->packet->wireSize(), now());
    if (!done) {
        // The vector is moved through the continuation, not shared.
        scheduleGuarded(kRecoveryRetryGap,
                        [this, kind, hashes = std::move(hashes), index,
                         to]() mutable {
                            streamLog(kind, std::move(hashes), index, to);
                        });
        return;
    }
    scheduleGuarded(*done - now(), [this, kind, hashes = std::move(hashes),
                                    index, to,
                                    logged = entry->packet]() mutable {
        switch (kind) {
          case StreamKind::Replay:
            stats_.recoveryResent++;
            traceEvent("replay", *logged);
            forward(logged);
            break;
          case StreamKind::Reforward:
            stats_.reforwarded++;
            traceEvent("reforward", *logged);
            forward(logged);
            break;
          case StreamKind::Resilver:
            stats_.resilverPushesSent++;
            traceEvent("resilver-push", *logged);
            forward(resilverPush(*logged, to));
            break;
        }
        streamLog(kind, std::move(hashes), index + 1, to);
    });
}

void
PmnetDevice::scheduleReforwardScan()
{
    if (config_.reforwardAge <= 0 || reforwardScanPending_ ||
        store_.size() == 0)
        return;
    reforwardScanPending_ = true;
    scheduleGuarded(config_.reforwardInterval, [this]() {
        reforwardScanPending_ = false;
        reforwardScan();
    });
}

void
PmnetDevice::reforwardScan()
{
    // Entries older than reforwardAge are still valid (never
    // server-ACKed): either the forwarded update or its ACK died on
    // the wire. Re-send them; the server drops duplicates and
    // re-ACKs, which invalidates the entry and drains the log.
    std::vector<std::uint32_t> hashes;
    store_.forEach([&](const pm::LogEntry &entry) {
        if (now() - entry.loggedAt >= config_.reforwardAge)
            hashes.push_back(entry.hashVal);
    });
    streamLog(StreamKind::Reforward, std::move(hashes), 0,
              net::kInvalidNode);
    scheduleReforwardScan();
}

void
PmnetDevice::resilverTo(net::NodeId peer)
{
    std::vector<std::uint32_t> hashes;
    hashes.reserve(store_.size());
    store_.forEach([&](const pm::LogEntry &entry) {
        hashes.push_back(entry.hashVal);
    });
    resilverActive_ = true;
    streamLog(StreamKind::Resilver, std::move(hashes), 0, peer);
}

net::PacketPtr
PmnetDevice::resilverPush(const net::Packet &logged, net::NodeId peer) const
{
    // The push travels device-to-device and is self-hashed, so a
    // corrupting link cannot smuggle a damaged entry into the
    // replacement's log.
    Bytes wrapped;
    ByteWriter writer(wrapped);
    writer.writeU32(logged.src);
    writer.writeU32(logged.dst);
    writer.writeU16(logged.srcPort);
    writer.writeU16(logged.dstPort);
    writer.writeU64(logged.requestId);
    writer.writeU32(logged.fragment);
    writer.writeU32(logged.fragmentCount);
    Bytes inner = logged.serializePayload();
    writer.writeU32(static_cast<std::uint32_t>(inner.size()));
    writer.writeBytes(inner.data(), inner.size());
    return net::makePmnetPacket(id(), peer, PacketType::ResilverPush,
                                logged.pmnet->sessionId,
                                logged.pmnet->seqNum, std::move(wrapped));
}

void
PmnetDevice::handleResilverPush(const PacketPtr &pkt)
{
    if (pkt->dst != id()) {
        forward(pkt);
        return;
    }
    stats_.resilverReceived++;
    if (!pkt->verifyHash()) {
        stats_.resilverSkipped++;
        return;
    }

    ByteReader reader(pkt->payload);
    auto rebuilt = net::makePacket();
    rebuilt->src = reader.readU32();
    rebuilt->dst = reader.readU32();
    rebuilt->srcPort = reader.readU16();
    rebuilt->dstPort = reader.readU16();
    rebuilt->requestId = reader.readU64();
    rebuilt->fragment = reader.readU32();
    rebuilt->fragmentCount = reader.readU32();
    std::uint32_t inner_len = reader.readU32();
    if (!reader.ok() || reader.remaining() != inner_len) {
        stats_.resilverSkipped++;
        return;
    }
    Bytes inner = reader.readBytes(inner_len);
    if (!rebuilt->parsePayload(inner) || !rebuilt->verifyHash()) {
        stats_.resilverSkipped++;
        return;
    }

    if (rebuilt->wireSize() > config_.pm.slotBytes || store_.full() ||
        !store_.slotFree(rebuilt->pmnet->hashVal)) {
        // Same degradations as the live logging path (an entry already
        // held fills its slot); the entry stays recoverable from the
        // surviving replica.
        stats_.resilverSkipped++;
        return;
    }

    resilverAdmit(std::move(rebuilt));
}

void
PmnetDevice::resilverAdmit(net::PacketPtr restored)
{
    const std::uint32_t hash_val = restored->pmnet->hashVal;
    if (store_.lookup(hash_val) || findPending(hash_val) != pending_.end()) {
        // Already held or landing: re-silvering is idempotent.
        stats_.resilverSkipped++;
        return;
    }
    auto done = writeQueue_.admitWrite(restored->wireSize(), now());
    if (!done) {
        // SRAM write queue momentarily full: retry this push after
        // the recovery gap rather than dropping it — the source has
        // already moved on, and a hole would force another full pass.
        scheduleGuarded(kRecoveryRetryGap,
                        [this, restored = std::move(restored)]() mutable {
                            resilverAdmit(std::move(restored));
                        });
        return;
    }
    pending_.push_back(PendingWrite{restored});
    scheduleGuarded(*done - now(), [this, restored]() {
        const std::uint32_t h = restored->pmnet->hashVal;
        pending_.erase(findPending(h));
        auto result = store_.insert(h, restored, now());
        if (result == pm::LogInsertResult::Ok) {
            stats_.resilverLogged++;
            traceEvent("resilver-logged", *restored);
            scheduleReforwardScan();
        } else {
            stats_.resilverSkipped++;
        }
        // No client ACK and no epoch staging: the original update's
        // durability was acknowledged long ago; this write only
        // restores the replica count.
    });
}

bool
PmnetDevice::restoreLogEntry(net::PacketPtr pkt)
{
    if (!pkt->pmnet || !pkt->verifyHash())
        return false;
    const std::uint32_t hash_val = pkt->pmnet->hashVal;
    if (store_.lookup(hash_val))
        return true;
    if (pkt->wireSize() > config_.pm.slotBytes ||
        !store_.slotFree(hash_val))
        return false;
    if (store_.insert(hash_val, std::move(pkt), now()) !=
        pm::LogInsertResult::Ok)
        return false;
    scheduleReforwardScan();
    return true;
}

void
PmnetDevice::registerMetrics(obs::MetricRegistry &registry,
                             std::string_view prefix)
{
    std::string base(prefix);
    registry.attach(base + ".updatesSeen", stats_.updatesSeen);
    registry.attach(base + ".updatesLogged", stats_.updatesLogged);
    registry.attach(base + ".updatesReAcked", stats_.updatesReAcked);
    registry.attach(base + ".bypassCollision", stats_.bypassCollision);
    registry.attach(base + ".bypassQueueFull", stats_.bypassQueueFull);
    registry.attach(base + ".bypassStoreRace", stats_.bypassStoreRace);
    registry.attach(base + ".bypassTooLarge", stats_.bypassTooLarge);
    registry.attach(base + ".bypassBadHash", stats_.bypassBadHash);
    registry.attach(base + ".acksSent", stats_.acksSent);
    registry.attach(base + ".serverAcks", stats_.serverAcks);
    registry.attach(base + ".invalidations", stats_.invalidations);
    registry.attach(base + ".retransSeen", stats_.retransSeen);
    registry.attach(base + ".retransServed", stats_.retransServed);
    registry.attach(base + ".retransForwarded", stats_.retransForwarded);
    registry.attach(base + ".cacheResponses", stats_.cacheResponses);
    registry.attach(base + ".nearDataSeen", stats_.nearDataSeen);
    registry.attach(base + ".nearDataServed", stats_.nearDataServed);
    registry.attach(base + ".recoveryPolls", stats_.recoveryPolls);
    registry.attach(base + ".recoveryResent", stats_.recoveryResent);
    registry.attach(base + ".reforwarded", stats_.reforwarded);
    registry.attach(base + ".resilverPushesSent", stats_.resilverPushesSent);
    registry.attach(base + ".resilverReceived", stats_.resilverReceived);
    registry.attach(base + ".resilverLogged", stats_.resilverLogged);
    registry.attach(base + ".resilverSkipped", stats_.resilverSkipped);
    registry.attach(base + ".nonPmnetForwarded", stats_.nonPmnetForwarded);
    registry.attach(base + ".heartbeatsSent", stats_.heartbeatsSent);
    registry.attach(base + ".heartbeatAcks", stats_.heartbeatAcks);
    registry.attach(base + ".serverDownEvents", stats_.serverDownEvents);
    registry.attach(base + ".serverUpEvents", stats_.serverUpEvents);
    registry.probe(base + ".log.size", [this]() {
        return obs::Json(store_.size());
    });
    registry.probe(base + ".log.highWater", [this]() {
        return obs::Json(store_.highWater);
    });
    registry.probe(base + ".log.occupancy", [this]() {
        return obs::Json(store_.occupancy());
    });
    registry.probe(base + ".cache.hits", [this]() {
        return obs::Json(cache_.hits);
    });
    registry.probe(base + ".cache.misses", [this]() {
        return obs::Json(cache_.misses);
    });
    registry.probe(base + ".cache.evictions", [this]() {
        return obs::Json(cache_.evictions);
    });
    // Commit-epoch engine (DESIGN.md section 13): one epoch per logged
    // write at the default epochOps = 1.
    registry.probe(base + ".persist.epoch.open", [this]() {
        return obs::Json(std::uint64_t(commitEpoch_.open() ? 1 : 0));
    });
    registry.probe(base + ".persist.epoch.openOps", [this]() {
        return obs::Json(std::uint64_t(commitEpoch_.openOps()));
    });
    registry.probe(base + ".persist.epoch.openBytes", [this]() {
        return obs::Json(std::uint64_t(commitEpoch_.openBytes()));
    });
    registry.probe(base + ".persist.epoch.closed", [this]() {
        return obs::Json(commitEpoch_.stats().epochsClosed);
    });
    registry.probe(base + ".persist.epoch.closedByBytes", [this]() {
        return obs::Json(commitEpoch_.stats().closedByBytes);
    });
    registry.probe(base + ".persist.epoch.closedByOps", [this]() {
        return obs::Json(commitEpoch_.stats().closedByOps);
    });
    registry.probe(base + ".persist.epoch.closedByDoorbell", [this]() {
        return obs::Json(commitEpoch_.stats().closedByDoorbell);
    });
    registry.probe(base + ".persist.epoch.opsCommitted", [this]() {
        return obs::Json(commitEpoch_.stats().opsCommitted);
    });
    registry.probe(base + ".persist.epoch.bytesCommitted", [this]() {
        return obs::Json(commitEpoch_.stats().bytesCommitted);
    });
    registry.probe(base + ".persist.epoch.acksDeferred", [this]() {
        return obs::Json(commitEpoch_.stats().acksDeferred);
    });
    registry.probe(base + ".persist.epoch.opsAbandoned", [this]() {
        return obs::Json(commitEpoch_.stats().opsAbandoned);
    });
    registry.probe(base + ".persist.epoch.maxBatchOps", [this]() {
        return obs::Json(commitEpoch_.stats().maxBatchOps);
    });
    registry.probe(base + ".persist.epoch.maxBatchBytes", [this]() {
        return obs::Json(commitEpoch_.stats().maxBatchBytes);
    });
    registry.probe(base + ".persist.epoch.holdTicksTotal", [this]() {
        return obs::Json(commitEpoch_.stats().holdTicksTotal);
    });
    registry.probe(base + ".persist.epoch.maxHoldTicks", [this]() {
        return obs::Json(commitEpoch_.stats().maxHoldTicks);
    });
}

void
PmnetDevice::replaceUnit()
{
    if (isUp())
        powerFail();
    store_.clear();
    powerRestore();
}

void
PmnetDevice::onPowerFail()
{
    // SRAM queues, the cache and all in-flight pipeline work are
    // volatile; the committed log slots in PM survive. Staged and
    // fencing writes were never covered by a retired fence and their
    // first ACK never left, so they roll back: P1 acked-durability
    // holds by construction.
    epoch_++;
    for (const PendingWrite &write : pending_)
        if (write.phase != WritePhase::Queued)
            store_.erase(write.pkt->pmnet->hashVal);
    pending_.clear();
    resilverActive_ = false;
    reforwardScanPending_ = false;
    commitEpoch_.abandon();
    writeQueue_.clear();
    readQueue_.clear();
    cache_.clear();
    unloggedKeys_.clear();
}

void
PmnetDevice::onPowerRestore()
{
    // The log is intact in PM and the pipeline restarts empty.
    // Recovery resends are driven by the server's RecoveryPoll or by
    // the heartbeat monitor, which resumes probing now.
    if (heartbeatEnabled_) {
        heartbeatMisses_ = 0;
        heartbeatAckSeen_ = true;
        serverDown_ = false;
        heartbeatTick();
    }
    // Committed entries survived the outage; re-arm the stale-log
    // watcher for them (the pending flag died with the old epoch).
    scheduleReforwardScan();
}

} // namespace pmnet::pmnetdev
