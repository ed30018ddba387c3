#include "stack/server_lib.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/flight_recorder.h"

namespace pmnet::stack {

using net::PacketPtr;
using net::PacketType;

ServerLib::ServerLib(Host &host, pm::PmHeap &heap, ServerConfig config)
    : host_(host), heap_(heap), config_(config)
{
    if (config_.workers <= 0)
        fatal("ServerLib(%s): worker count must be positive",
              host.name().c_str());
    host_.setAppReceive([this](PacketPtr pkt) { onReceive(pkt); });
    host_.setPowerHooks([this]() { onPowerFailApp(); },
                        [this]() { onPowerRestoreApp(); });
    initSuperblock();
}

void
ServerLib::setDevices(std::vector<net::NodeId> devices)
{
    devices_ = std::move(devices);
}

void
ServerLib::setRecoveryHook(std::function<void()> hook)
{
    recoveryHook_ = std::move(hook);
}

void
ServerLib::initSuperblock()
{
    if (heap_.root() != pm::kNullOffset) {
        // Pre-existing pool (e.g. after a simulated reboot).
        superOff_ = heap_.root();
        Superblock sb = heap_.readObj<Superblock>(superOff_);
        if (sb.magic != kSuperMagic)
            fatal("ServerLib(%s): pool root is not a PMNet superblock",
                  host_.name().c_str());
        tableOff_ = sb.tableOff;
        config_.maxSessions = sb.maxSessions;
        return;
    }
    superOff_ = heap_.alloc(sizeof(Superblock));
    tableOff_ = heap_.alloc(sizeof(std::uint32_t) * config_.maxSessions);
    for (std::uint32_t i = 0; i < config_.maxSessions; i++)
        heap_.writeObj<std::uint32_t>(tableOff_ + 4ull * i, 0);
    heap_.flush(tableOff_, sizeof(std::uint32_t) * config_.maxSessions);
    Superblock sb{kSuperMagic, tableOff_, config_.maxSessions, 0,
                  pm::kNullOffset};
    heap_.persistObj(superOff_, sb);
    heap_.setRoot(superOff_);
    heap_.drainCost(); // setup is not charged to any request
}

void
ServerLib::setAppRoot(pm::PmOffset root)
{
    Superblock sb = heap_.readObj<Superblock>(superOff_);
    sb.appRoot = root;
    heap_.persistObj(superOff_, sb);
}

pm::PmOffset
ServerLib::appRoot() const
{
    return heap_.readObj<Superblock>(superOff_).appRoot;
}

std::uint32_t
ServerLib::appliedSeq(std::uint16_t session) const
{
    if (session >= config_.maxSessions)
        panic("ServerLib: session %u exceeds table size %u", session,
              config_.maxSessions);
    return heap_.readObj<std::uint32_t>(tableOff_ + 4ull * session);
}

std::size_t
ServerLib::backlog() const
{
    std::size_t total = 0;
    for (const auto &session : sessions_)
        if (session)
            total += session->ready.size();
    return total;
}

void
ServerLib::registerMetrics(obs::MetricRegistry &registry,
                           std::string_view prefix)
{
    std::string base(prefix);
    registry.attach(base + ".updatesApplied", stats_.updatesApplied);
    registry.attach(base + ".bypassApplied", stats_.bypassApplied);
    registry.attach(base + ".duplicatesDropped", stats_.duplicatesDropped);
    registry.attach(base + ".hashRejected", stats_.hashRejected);
    registry.attach(base + ".makeupAcks", stats_.makeupAcks);
    registry.attach(base + ".replayedReplies", stats_.replayedReplies);
    registry.attach(base + ".retransRequested", stats_.retransRequested);
    registry.attach(base + ".acksSent", stats_.acksSent);
    registry.attach(base + ".responsesSent", stats_.responsesSent);
    registry.attach(base + ".recoveries", stats_.recoveries);
    registry.probe(base + ".backlog", [this]() {
        return obs::Json(static_cast<std::uint64_t>(backlog()));
    });
}

ServerLib::Session &
ServerLib::sessionSlot(std::uint16_t sid)
{
    if (sessions_.size() <= sid)
        sessions_.resize(static_cast<std::size_t>(sid) + 1);
    if (!sessions_[sid])
        sessions_[sid] = std::make_unique<Session>();
    return *sessions_[sid];
}

ServerLib::Session &
ServerLib::sessionFor(std::uint16_t sid)
{
    if (sid < sessions_.size() && sessions_[sid])
        return *sessions_[sid];
    Session &session = sessionSlot(sid);
    session.applied = appliedSeq(sid);
    heap_.drainCost(); // watermark lookup is bookkeeping, not service
    session.nextExpected = session.applied + 1;
    return session;
}

void
ServerLib::onReceive(const PacketPtr &pkt)
{
    if (!pkt->isPmnet())
        return;
    const net::PmnetHeader &header = *pkt->pmnet;
    if (header.type == PacketType::Heartbeat) {
        // Liveness probe from a PMNet device (Fig 3): answer
        // immediately, bypassing the worker pool entirely.
        host_.appSend({net::makeRefPacket(host_.id(), pkt->src,
                                          PacketType::HeartbeatAck, 0,
                                          header.seqNum, 0)});
        return;
    }
    if (header.type != PacketType::UpdateReq &&
        header.type != PacketType::BypassReq) {
        debug("%s: unexpected %s at server", host_.name().c_str(),
              net::describe(*pkt).c_str());
        return;
    }
    // Request packets are self-hashed; a CRC mismatch means the
    // packet was corrupted in flight. Drop it — the client's retry
    // timer re-sends a clean copy (Section IV-A2).
    if (!pkt->verifyHash()) {
        stats_.hashRejected++;
        debug("%s: CRC mismatch on %s; dropped", host_.name().c_str(),
              net::describe(*pkt).c_str());
        return;
    }

    Session &session = sessionFor(header.sessionId);
    session.client = pkt->src;

    // Bypass requests live in their own sequence space: they may be
    // answered by an in-switch cache and never arrive here, so they
    // must not participate in the update stream's reorder buffer.
    if (header.type == PacketType::BypassReq) {
        handleBypassArrival(header.sessionId, session, pkt);
        return;
    }

    if (header.seqNum <= session.applied) {
        handleDuplicate(*pkt);
        return;
    }
    if (header.seqNum < session.nextExpected) {
        // Already assembled and queued; the original will be applied.
        stats_.duplicatesDropped++;
        return;
    }
    bool was_new = session.pending.emplace(header.seqNum, pkt).second;

    // Server-side-logging design: persist the raw packet locally and
    // acknowledge before any processing (Fig 17b).
    if (config_.ackOnArrival && was_new &&
        header.type != PacketType::BypassReq) {
        std::uint64_t epoch = epoch_;
        auto ack = net::makeRefPacket(host_.id(), pkt->src,
                                      PacketType::ServerAck,
                                      header.sessionId, header.seqNum,
                                      header.hashVal, pkt->requestId);
        host_.simulator().schedule(
            kArrivalLogDelay + config_.arrivalAckExtraDelay,
            [this, epoch, ack]() {
                if (epoch != epoch_ || !host_.isUp())
                    return;
                stats_.acksSent++;
                host_.appSend({ack});
            });
    }

    tryAssemble(header.sessionId, session);
    if (!session.pending.empty())
        scheduleGapCheck(header.sessionId);
    pump();
}

void
ServerLib::handleDuplicate(const net::Packet &pkt)
{
    stats_.duplicatesDropped++;
    const net::PmnetHeader &header = *pkt.pmnet;

    // Make-up server-ACK (Section IV-E1): the request was already
    // committed, so re-acknowledge to invalidate stray log entries
    // and unblock the client.
    stats_.makeupAcks++;
    stats_.acksSent++;
    host_.appSend({net::makeRefPacket(host_.id(), pkt.src,
                                      PacketType::ServerAck,
                                      header.sessionId, header.seqNum,
                                      header.hashVal, pkt.requestId)});
}

void
ServerLib::handleBypassArrival(std::uint16_t sid, Session &session,
                               const net::PacketPtr &pkt)
{
    const net::PmnetHeader &header = *pkt->pmnet;

    // Already answered: replay the cached reply (lost-response retry).
    auto cached = session.replyCache.find(header.seqNum);
    if (cached != session.replyCache.end()) {
        stats_.duplicatesDropped++;
        stats_.replayedReplies++;
        stats_.responsesSent++;
        net::MutPacketPtr resp = net::makeRefPacketMut(
            host_.id(), pkt->src, PacketType::Response, header.sessionId,
            header.seqNum, header.hashVal, pkt->requestId);
        resp->payload = cached->second;
        host_.appSend({resp});
        return;
    }
    // Queued or in service: drop the retransmit.
    if (!session.bypassInFlight.insert(header.seqNum).second) {
        stats_.duplicatesDropped++;
        return;
    }
    // If the reply cache evicted an old seq and a very late duplicate
    // arrives, it is re-executed; reads are idempotent and the lock
    // primitives are owner-idempotent at the application level.

    ReadyRequest req;
    req.session = sid;
    req.isUpdate = false;
    req.firstSeq = header.seqNum;
    req.lastSeq = header.seqNum;
    req.fragHashes.push_back(header.hashVal);
    req.payload = pkt->payload;
    req.requestId = pkt->requestId;
    req.client = pkt->src;
    session.ready.push_back(std::move(req));
    enqueueRunnable(sid);
    pump();
}

void
ServerLib::tryAssemble(std::uint16_t sid, Session &session)
{
    for (;;) {
        auto first_it = session.pending.find(session.nextExpected);
        if (first_it == session.pending.end())
            return;
        const net::Packet &first = *first_it->second;
        if (first.fragment != 0) {
            warn("%s: session %u seq %u is a mid-request fragment; "
                 "dropping",
                 host_.name().c_str(), sid, session.nextExpected);
            session.pending.erase(first_it);
            continue;
        }
        std::uint32_t count = first.fragmentCount;
        std::uint32_t first_seq = session.nextExpected;
        // All fragments present?
        bool complete = true;
        for (std::uint32_t i = 1; i < count; i++) {
            if (!session.pending.count(first_seq + i)) {
                complete = false;
                break;
            }
        }
        if (!complete)
            return;

        ReadyRequest req;
        req.session = sid;
        req.isUpdate =
            first.pmnet->type != PacketType::BypassReq;
        req.firstSeq = first_seq;
        req.lastSeq = first_seq + count - 1;
        req.requestId = first.requestId;
        req.client = first.src;
        for (std::uint32_t i = 0; i < count; i++) {
            auto it = session.pending.find(first_seq + i);
            const net::Packet &frag = *it->second;
            req.fragHashes.push_back(frag.pmnet->hashVal);
            req.payload.insert(req.payload.end(), frag.payload.begin(),
                               frag.payload.end());
            session.pending.erase(it);
        }
        session.nextExpected = req.lastSeq + 1;
        session.ready.push_back(std::move(req));
        enqueueRunnable(sid);
    }
}

void
ServerLib::scheduleGapCheck(std::uint16_t sid)
{
    Session &session = sessionSlot(sid);
    if (session.gapTimer.pending())
        return;
    std::uint64_t epoch = epoch_;
    session.gapTimer = host_.simulator().schedule(
        config_.reorderWindow, [this, sid, epoch]() {
            if (epoch == epoch_ && host_.isUp())
                gapCheck(sid);
        });
}

void
ServerLib::gapCheck(std::uint16_t sid)
{
    Session &session = sessionSlot(sid);
    if (session.pending.empty())
        return;

    // Prune bookkeeping for seqs that have since been assembled.
    session.retransAskedAt.erase(
        session.retransAskedAt.begin(),
        session.retransAskedAt.lower_bound(session.nextExpected));

    // The scan must cover trailing lost fragments too: any buffered
    // fragment implies its whole request's seq range
    // [seq - fragment, seq - fragment + fragmentCount - 1], even if
    // the tail never arrived (Section IV-A3).
    std::uint32_t max_pending = session.pending.rbegin()->first;
    for (const auto &[seq, pending_pkt] : session.pending) {
        std::uint32_t request_last =
            seq - pending_pkt->fragment + pending_pkt->fragmentCount - 1;
        max_pending = std::max(max_pending, request_last);
    }
    Tick now = host_.simulator().now();

    std::vector<PacketPtr> asks;
    for (std::uint32_t seq = session.nextExpected; seq <= max_pending;
         seq++) {
        if (session.pending.count(seq))
            continue;
        auto asked = session.retransAskedAt.find(seq);
        if (asked != session.retransAskedAt.end() &&
            now - asked->second < config_.retransInterval)
            continue;
        session.retransAskedAt[seq] = now;
        stats_.retransRequested++;
        // The hash references the missing update packet so a PMNet
        // device can serve it straight from its log (Fig 7b).
        std::uint32_t hash = net::PmnetHeader::computeHash(
            PacketType::UpdateReq, sid, seq, session.client, host_.id());
        asks.push_back(net::makeRefPacket(host_.id(), session.client,
                                          PacketType::Retrans, sid, seq,
                                          hash));
    }
    if (!asks.empty())
        host_.appSend(std::move(asks));
    scheduleGapCheck(sid);
}

void
ServerLib::enqueueRunnable(std::uint16_t sid)
{
    Session &session = sessionSlot(sid);
    if (session.busy || session.queued || session.ready.empty())
        return;
    session.queued = true;
    runnable_.push_back(sid);
}

void
ServerLib::pump()
{
    while (busyWorkers_ < config_.workers && !runnable_.empty()) {
        std::uint16_t sid = runnable_.front();
        runnable_.pop_front();
        Session &session = sessionSlot(sid);
        session.queued = false;
        if (session.busy || session.ready.empty())
            continue;

        session.busy = true;
        busyWorkers_++;
        ReadyRequest req = std::move(session.ready.front());
        session.ready.pop_front();
        if (recorder_)
            recorder_->stampAt(req.requestId, obs::Stamp::ServerStart,
                               host_.simulator().now());

        // The real application work happens here, now; its simulated
        // duration is charged before the results become visible on
        // the network.
        heap_.drainCost();
        HandlerResult result;
        if (handler_)
            result = handler_(req.session, req.isUpdate, req.payload);
        result.cost += heap_.drainCost();

        // Commit point for updates: the watermark is persisted in the
        // same fenced step as the handler's own mutations, before the
        // ACK can leave. (Bypass requests have no watermark; their
        // exactly-once story is the reply cache.)
        if (req.isUpdate) {
            persistApplied(req.session, req.lastSeq);
            result.cost += heap_.drainCost();
        }

        TickDelta busy_for = config_.dispatchLatency + result.cost;
        std::uint64_t epoch = epoch_;
        host_.simulator().schedule(
            busy_for, [this, sid, epoch, req = std::move(req),
                       result = std::move(result)]() {
                if (epoch != epoch_ || !host_.isUp())
                    return;
                finishRequest(sid, req, result);
            });
    }
}

void
ServerLib::persistApplied(std::uint16_t sid, std::uint32_t seq)
{
    if (sid >= config_.maxSessions)
        panic("ServerLib: session %u exceeds table size %u", sid,
              config_.maxSessions);
    heap_.writeObj<std::uint32_t>(tableOff_ + 4ull * sid, seq);
    heap_.flush(tableOff_ + 4ull * sid, 4);
    heap_.fence();
    Session &session = sessionSlot(sid);
    session.applied = seq;
}

void
ServerLib::finishRequest(std::uint16_t sid, const ReadyRequest &req,
                         HandlerResult result)
{
    Session &session = sessionSlot(sid);
    session.busy = false;
    busyWorkers_--;
    if (recorder_)
        recorder_->stampAt(req.requestId, obs::Stamp::ServerEnd,
                           host_.simulator().now());

    std::vector<PacketPtr> out;
    if (req.isUpdate) {
        stats_.updatesApplied++;
        for (std::uint32_t i = 0;
             !config_.ackOnArrival && i < req.fragHashes.size(); i++) {
            stats_.acksSent++;
            out.push_back(net::makeRefPacket(
                host_.id(), req.client, PacketType::ServerAck, sid,
                req.firstSeq + i, req.fragHashes[i], req.requestId));
        }
    } else {
        stats_.bypassApplied++;
    }

    if (result.response || !req.isUpdate) {
        Bytes body = result.response.value_or(Bytes{});
        stats_.responsesSent++;
        net::MutPacketPtr resp = net::makeRefPacketMut(
            host_.id(), req.client, PacketType::Response, sid,
            req.firstSeq, req.fragHashes.front(), req.requestId);
        resp->payload = body;
        out.push_back(resp);
        if (!req.isUpdate) {
            session.replyCache[req.firstSeq] = std::move(body);
            while (session.replyCache.size() > kReplyCachePerSession)
                session.replyCache.erase(session.replyCache.begin());
        }
    }
    if (!req.isUpdate)
        session.bypassInFlight.erase(req.firstSeq);

    host_.appSend(std::move(out));
    enqueueRunnable(sid);
    pump();
}

void
ServerLib::onPowerFailApp()
{
    epoch_++;
    sessions_.clear();
    runnable_.clear();
    busyWorkers_ = 0;
    heap_.crash();
}

void
ServerLib::onPowerRestoreApp()
{
    stats_.recoveries++;
    // Re-open the pool: the superblock and watermark table survived.
    superOff_ = heap_.root();
    Superblock sb = heap_.readObj<Superblock>(superOff_);
    if (sb.magic != kSuperMagic)
        panic("ServerLib(%s): superblock lost across power failure",
              host_.name().c_str());
    tableOff_ = sb.tableOff;
    heap_.drainCost();

    if (recoveryHook_)
        recoveryHook_();

    // Ask every PMNet device to replay its log (Fig 3, recovery).
    std::vector<PacketPtr> polls;
    for (net::NodeId device : devices_) {
        polls.push_back(net::makeRefPacket(host_.id(), device,
                                           PacketType::RecoveryPoll, 0, 0,
                                           0));
    }
    if (!polls.empty())
        host_.appSend(std::move(polls));
}

} // namespace pmnet::stack
