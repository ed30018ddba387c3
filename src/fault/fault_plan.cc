#include "fault/fault_plan.h"

#include <set>

#include "common/key.h"
#include "common/logging.h"

namespace pmnet::fault {

namespace {

/**
 * Workload stub for the fault runner: the testbed requires a factory,
 * but the runner scripts its own open-loop updates and starts no
 * drivers, and the store must begin empty so the final content is a
 * pure function of the scripted updates.
 */
class EmptyWorkload : public apps::Workload
{
  public:
    std::vector<apps::Command>
    nextTransaction(Rng &) override
    {
        return {};
    }

    void populate(apps::CommandStore &, Rng &) override {}

    std::string name() const override { return "fault-empty"; }
};

std::string
keyName(int session, int key_index)
{
    return "f" + std::to_string(session) + ":k" +
           std::to_string(key_index);
}

std::string
valueName(int session, int op_index)
{
    return "s" + std::to_string(session) + ":" +
           std::to_string(op_index);
}

/** Parse a valueName back into (session, op index); false if foreign. */
bool
parseValue(const std::string &value, int *session_out, int *op_out)
{
    if (value.size() < 4 || value[0] != 's')
        return false;
    std::size_t colon = value.find(':');
    if (colon == std::string::npos || colon == 1 ||
        colon + 1 >= value.size())
        return false;
    for (std::size_t i = 1; i < value.size(); i++) {
        if (i == colon)
            continue;
        if (value[i] < '0' || value[i] > '9')
            return false;
    }
    *session_out = std::stoi(value.substr(1, colon - 1));
    *op_out = std::stoi(value.substr(colon + 1));
    return true;
}

} // namespace

/** Per-session ground truth accumulated while the plan runs. */
struct FaultRunner::SessionTrack
{
    /** Op indices whose sendUpdate completion fired (client-acked). */
    std::set<int> acked;
    /**
     * Op indices in the order each shard's server applied them (via
     * the tap; the shard is re-derived from the command's key hash).
     * One entry with shards == 1 — the historical global order.
     */
    std::vector<std::vector<int>> appliedByShard;

    std::size_t
    appliedTotal() const
    {
        std::size_t total = 0;
        for (const auto &ops : appliedByShard)
            total += ops.size();
        return total;
    }
};

FaultRunner::FaultRunner(FaultRunConfig config) : config_(std::move(config))
{
    config_.testbed.serverKind = testbed::ServerKind::CommandStore;
    config_.testbed.workload = [](std::uint16_t) {
        return std::make_unique<EmptyWorkload>();
    };
    testbed_ = std::make_unique<testbed::Testbed>(config_.testbed);
    repairCoord_ = std::make_unique<ChainRepairCoordinator>(*testbed_);
}

FaultRunner::~FaultRunner() = default;

net::Link &
FaultRunner::resolveLink(const FaultAction &action)
{
    switch (action.where) {
      case FaultAction::Where::ServerLink:
        return *testbed_->serverHost().linkAt(0);
      case FaultAction::Where::ClientLink:
        return *testbed_
                    ->clientHost(static_cast<std::size_t>(action.index))
                    .linkAt(0);
      case FaultAction::Where::DeviceClientSide: {
        auto &dev = testbed_->device(static_cast<std::size_t>(action.index));
        net::Node *server_side =
            static_cast<std::size_t>(action.index) + 1 <
                    testbed_->deviceCount()
                ? static_cast<net::Node *>(&testbed_->device(
                      static_cast<std::size_t>(action.index) + 1))
                : static_cast<net::Node *>(&testbed_->serverHost());
        for (int p = 0; p < dev.portCount(); p++) {
            net::Link *link = dev.linkAt(p);
            if (&link->peerOf(dev) != server_side)
                return *link;
        }
        fatal("FaultRunner: device %d has no client-side link",
              action.index);
      }
    }
    fatal("FaultRunner: unknown link selector");
}

net::Node &
FaultRunner::transmitEndpoint(const FaultAction &action, net::Link &link,
                              bool toward_server)
{
    // Link state belongs to the *transmitting* end: server-bound
    // traffic leaves the end farther from the server, and vice versa.
    switch (action.where) {
      case FaultAction::Where::ServerLink:
        return toward_server
                   ? link.peerOf(testbed_->serverHost())
                   : static_cast<net::Node &>(testbed_->serverHost());
      case FaultAction::Where::ClientLink: {
        auto &host =
            testbed_->clientHost(static_cast<std::size_t>(action.index));
        return toward_server ? static_cast<net::Node &>(host)
                             : link.peerOf(host);
      }
      case FaultAction::Where::DeviceClientSide: {
        auto &dev =
            testbed_->device(static_cast<std::size_t>(action.index));
        return toward_server ? link.peerOf(dev)
                             : static_cast<net::Node &>(dev);
      }
    }
    fatal("FaultRunner: unknown link selector");
}

void
FaultRunner::scheduleAction(const FaultAction &action)
{
    sim::Simulator &sim = testbed_->simulator();
    Tick base_tick = testbed_->now();
    switch (action.kind) {
      case FaultAction::Kind::DropNext: {
        net::Link *link = &resolveLink(action);
        net::Node *from =
            &transmitEndpoint(action, *link, action.towardServer);
        int count = action.count;
        sim.scheduleAt(base_tick + action.at, [link, from, count] {
            link->dropNext(*from, count);
        });
        break;
      }
      case FaultAction::Kind::Impair: {
        net::Link *link = &resolveLink(action);
        auto arm = [&](bool toward_server) {
            net::Node *from =
                &transmitEndpoint(action, *link, toward_server);
            sim.scheduleAt(base_tick + action.at,
                           [link, from, imp = action.impair] {
                               link->setImpairment(*from, imp);
                           });
            if (action.duration > 0)
                sim.scheduleAt(
                    base_tick + action.at + action.duration,
                    [link, from] {
                        link->setImpairment(*from, net::Impairment{});
                    });
        };
        if (action.dir != FaultAction::Dir::TowardClient)
            arm(/*toward_server=*/true);
        if (action.dir != FaultAction::Dir::TowardServer)
            arm(/*toward_server=*/false);
        break;
      }
      case FaultAction::Kind::ServerPowerCut: {
        sim.scheduleAt(base_tick + action.at,
                       [this] { testbed_->serverHost().powerFail(); });
        sim.scheduleAt(base_tick + action.at + action.duration, [this] {
            testbed_->serverHost().powerRestore();
        });
        break;
      }
      case FaultAction::Kind::DevicePowerCut: {
        std::size_t idx = static_cast<std::size_t>(action.index);
        sim.scheduleAt(base_tick + action.at, [this, idx] {
            testbed_->device(idx).powerFail();
        });
        sim.scheduleAt(base_tick + action.at + action.duration,
                       [this, idx] {
                           testbed_->device(idx).powerRestore();
                       });
        break;
      }
      case FaultAction::Kind::DeviceReplace: {
        std::size_t idx = static_cast<std::size_t>(action.index);
        sim.scheduleAt(base_tick + action.at, [this, idx] {
            testbed_->device(idx).replaceUnit();
        });
        break;
      }
      case FaultAction::Kind::ChainRepair: {
        if (testbed_->shardMap() == nullptr)
            fatal("FaultRunner: ChainRepair requires shards > 1");
        std::size_t idx = static_cast<std::size_t>(action.index);
        // Flat device index -> (shard, index within the chain).
        unsigned shard = 0;
        std::size_t local = idx;
        while (local >= testbed_->shardDeviceCount(shard)) {
            local -= testbed_->shardDeviceCount(shard);
            shard++;
        }
        bool replace = action.replace;
        sim.scheduleAt(base_tick + action.at, [this, idx, shard] {
            testbed_->device(idx).powerFail();
            testbed_->shardMap()->setHealth(
                shard, pmnet::ShardMap::Health::Failed);
        });
        sim.scheduleAt(base_tick + action.at + action.duration,
                       [this, idx, shard, local, replace] {
                           if (replace)
                               testbed_->device(idx).replaceUnit();
                           else
                               testbed_->device(idx).powerRestore();
                           testbed_->shardMap()->setHealth(
                               shard,
                               pmnet::ShardMap::Health::Resilvering);
                           repairCoord_->beginRepair(shard, local);
                       });
        break;
      }
    }
}

void
FaultRunner::issueUpdates()
{
    sim::Simulator &sim = testbed_->simulator();
    Tick base_tick = testbed_->now();
    for (std::size_t c = 0; c < testbed_->clientCount(); c++) {
        // Small per-client stagger so clients never tick in lockstep.
        TickDelta stagger = microseconds(1) * static_cast<TickDelta>(c);
        for (int i = 0; i < config_.updatesPerClient; i++) {
            Tick at = base_tick +
                      config_.issueGap * static_cast<TickDelta>(i + 1) +
                      stagger;
            sim.scheduleAt(at, [this, c, i] {
                int session = static_cast<int>(c) + 1;
                std::string key =
                    keyName(session, i % config_.keysPerSession);
                std::uint64_t key_hash = hashKey(key);
                apps::Command cmd{
                    {"SET", std::move(key), valueName(session, i)}};
                testbed_->clientLib(c).sendUpdate(
                    apps::encodeCommand(cmd), key_hash,
                    [this, c, i] { sessions_[c].acked.insert(i); });
            });
        }
    }
}

std::size_t
FaultRunner::outstandingTotal() const
{
    std::size_t total = 0;
    for (std::size_t c = 0; c < testbed_->clientCount(); c++)
        total += testbed_->clientLib(c).outstanding();
    return total;
}

void
FaultRunner::drain(const char *phase)
{
    int rounds = 0;
    // Windows advance along an absolute cursor, not from now(): the
    // simulator clock parks on the last executed event, so now()-based
    // windows stall forever when the next pending event (a client
    // retry timer, say) lies beyond one window.
    Tick target = testbed_->now();
    while (rounds < config_.maxDrainRounds &&
           (outstandingTotal() > 0 || !repairCoord_->idle())) {
        target += config_.drainWindow;
        testbed_->runUntil(target);
        repairCoord_->poll();
        rounds++;
    }
    // One settle window: lets trailing server-ACKs pass the devices so
    // log invalidations and cache transitions finish.
    testbed_->runUntil(target + config_.drainWindow);
    if (!repairCoord_->idle())
        report_.addViolation(
            "liveness", std::string(phase) +
                            ": chain repair never completed within " +
                            std::to_string(config_.maxDrainRounds) +
                            " drain rounds");
    if (outstandingTotal() > 0)
        report_.addViolation(
            "liveness", std::string(phase) + ": " +
                            std::to_string(outstandingTotal()) +
                            " request(s) never completed within " +
                            std::to_string(config_.maxDrainRounds) +
                            " drain rounds");
}

unsigned
FaultRunner::shardOfKey(const std::string &key) const
{
    const pmnet::ShardMap *map = testbed_->shardMap();
    return map ? map->ownerOf(hashKey(key)) : 0;
}

void
FaultRunner::checkDurabilityAndOrder()
{
    unsigned shard_count = testbed_->shardCount();
    for (std::size_t c = 0; c < testbed_->clientCount(); c++) {
        const SessionTrack &track = sessions_[c];
        int session = static_cast<int>(c) + 1;
        std::set<int> applied;
        for (const auto &ops : track.appliedByShard)
            applied.insert(ops.begin(), ops.end());

        // The issue-order op stream, split by owning shard — the
        // ground truth both P1b and P2 compare against. An op's seq
        // number is its 1-based position within its shard's stream
        // (ClientLib numbers each shard's updates independently).
        std::vector<std::vector<int>> expected(shard_count);
        for (int i = 0; i < config_.updatesPerClient; i++) {
            unsigned shard = shardOfKey(
                keyName(session, i % config_.keysPerSession));
            expected[shard].push_back(i);
        }

        // P1a: every client-acked update was applied by its server.
        for (int i : track.acked) {
            if (applied.count(i) == 0)
                report_.addViolation(
                    "P1-durability",
                    "session " + std::to_string(session) + ": acked op " +
                        std::to_string(i) + " never applied");
        }

        for (unsigned s = 0; s < shard_count; s++) {
            const std::vector<int> &issue_order = expected[s];
            const std::vector<int> &applied_here =
                track.appliedByShard[s];

            // P1b: shard s's persisted watermark covers every acked
            // op it owns (op at position p carries SeqNum p+1 —
            // single-fragment updates in per-shard sequence spaces).
            std::uint32_t max_acked_seq = 0;
            for (std::size_t pos = 0; pos < issue_order.size(); pos++) {
                if (track.acked.count(issue_order[pos]))
                    max_acked_seq = static_cast<std::uint32_t>(pos + 1);
            }
            std::uint32_t watermark = testbed_->serverLib(s).appliedSeq(
                static_cast<std::uint16_t>(session));
            if (watermark < max_acked_seq)
                report_.addViolation(
                    "P1-durability",
                    "session " + std::to_string(session) + " shard " +
                        std::to_string(s) + ": persisted watermark " +
                        std::to_string(watermark) +
                        " below max acked seq " +
                        std::to_string(max_acked_seq));

            // P2: shard s applied its slice of the session's stream
            // exactly once, in issue order, gap-free.
            for (std::size_t pos = 0; pos < applied_here.size(); pos++) {
                if (pos >= issue_order.size() ||
                    applied_here[pos] != issue_order[pos]) {
                    report_.addViolation(
                        "P2-order",
                        "session " + std::to_string(session) + " shard " +
                            std::to_string(s) + ": applied op " +
                            std::to_string(applied_here[pos]) +
                            " at position " + std::to_string(pos));
                    break;
                }
            }
            if (applied_here.size() != issue_order.size())
                report_.addViolation(
                    "P2-order",
                    "session " + std::to_string(session) + " shard " +
                        std::to_string(s) + ": applied " +
                        std::to_string(applied_here.size()) + " of " +
                        std::to_string(issue_order.size()) + " ops");
        }
    }
}

void
FaultRunner::auditStore()
{
    int window = config_.keysPerSession < config_.updatesPerClient
                     ? config_.keysPerSession
                     : config_.updatesPerClient;
    for (std::size_t c = 0; c < testbed_->clientCount(); c++) {
        int session = static_cast<int>(c) + 1;
        for (int j = 0; j < window; j++) {
            // Last op index landing on key j.
            int last = j + config_.keysPerSession *
                               ((config_.updatesPerClient - 1 - j) /
                                config_.keysPerSession);
            std::string key = keyName(session, j);
            std::string expected = valueName(session, last);
            // The key's owning shard is the one server that must hold
            // its committed value.
            apps::CommandStore *store =
                testbed_->commandStore(shardOfKey(key));
            if (store == nullptr) {
                report_.addViolation("P1-durability",
                                     "command store missing");
                return;
            }
            apps::Command cmd{{"GET", key}};
            apps::CommandStore::Result res = store->execute(cmd, 0);
            if (res.status != apps::RespStatus::Ok ||
                res.value != expected)
                report_.addViolation(
                    "P1-durability",
                    "store key " + key + ": expected \"" +
                        expected + "\", found \"" + res.value +
                        "\" (status " +
                        std::to_string(static_cast<int>(res.status)) +
                        ")");
        }
    }
    // The audit reads are host-side bookkeeping, not simulated work.
    for (unsigned s = 0; s < testbed_->shardCount(); s++)
        testbed_->serverHeap(s).drainCost();
}

void
FaultRunner::auditCache()
{
    if (!config_.testbed.cacheEnabled || testbed_->deviceCount() == 0)
        return;
    std::uint64_t persisted = 0, pending = 0, stale = 0;
    for (unsigned s = 0; s < testbed_->shardCount(); s++)
        auditCacheOf(s, &persisted, &pending, &stale);
    report_.setCounter("cache-persisted", persisted);
    report_.setCounter("cache-pending", pending);
    report_.setCounter("cache-stale", stale);
}

void
FaultRunner::auditCacheOf(unsigned shard, std::uint64_t *persisted,
                          std::uint64_t *pending, std::uint64_t *stale)
{
    // Each shard's caching device is the tail of its own chain.
    auto &cache =
        testbed_->shardDevice(shard,
                              testbed_->shardDeviceCount(shard) - 1)
            .cache();
    for (const auto &entry : cache.dump()) {
        switch (entry.state) {
          case pmnetdev::CacheState::Pending: (*pending)++; break;
          case pmnetdev::CacheState::Stale: (*stale)++; break;
          case pmnetdev::CacheState::Invalid: break;
          case pmnetdev::CacheState::Persisted: {
            (*persisted)++;
            // A Persisted entry claims to hold the server-committed
            // value; anything older served from here is P3's stale
            // read. Foreign keys (none expected) are skipped.
            int session = 0, key_index = 0;
            if (entry.key.size() > 3 && entry.key[0] == 'f') {
                std::size_t colon = entry.key.find(":k");
                if (colon != std::string::npos) {
                    session = std::stoi(entry.key.substr(1, colon - 1));
                    key_index = std::stoi(entry.key.substr(colon + 2));
                } else {
                    break;
                }
            } else {
                break;
            }
            int last = key_index +
                       config_.keysPerSession *
                           ((config_.updatesPerClient - 1 - key_index) /
                            config_.keysPerSession);
            std::string expected = valueName(session, last);
            std::string got(entry.value.begin(), entry.value.end());
            if (got != expected)
                report_.addViolation(
                    "P3-staleness",
                    "cache entry " + entry.key +
                        " Persisted with \"" + got + "\", committed is \"" +
                        expected + "\"");
            break;
          }
        }
    }
}

void
FaultRunner::auditReadsEndToEnd()
{
    Tick base_tick = testbed_->now();
    int window = config_.keysPerSession < config_.updatesPerClient
                     ? config_.keysPerSession
                     : config_.updatesPerClient;
    std::size_t pending = 0;
    std::size_t completed = 0;
    auto *done = &completed;
    for (std::size_t c = 0; c < testbed_->clientCount(); c++) {
        int session = static_cast<int>(c) + 1;
        for (int j = 0; j < window; j++) {
            int last = j + config_.keysPerSession *
                               ((config_.updatesPerClient - 1 - j) /
                                config_.keysPerSession);
            std::string key = keyName(session, j);
            std::string expected = valueName(session, last);
            Tick at = base_tick + microseconds(10) *
                                      static_cast<TickDelta>(pending + 1);
            pending++;
            testbed_->simulator().scheduleAt(
                at, [this, c, key, expected, done] {
                    apps::Command cmd{{"GET", key}};
                    testbed_->clientLib(c).bypass(
                        apps::encodeCommand(cmd), hashKey(key),
                        [this, key, expected, done](const Bytes &wire) {
                            (*done)++;
                            auto resp = apps::decodeResponse(wire);
                            if (!resp ||
                                resp->status != apps::RespStatus::Ok ||
                                resp->value != expected) {
                                report_.addViolation(
                                    "P3-staleness",
                                    "read of " + key + " returned \"" +
                                        (resp
                                             ? resp->value
                                             : std::string("<garbled>")) +
                                        "\", committed is \"" + expected +
                                        "\"");
                            }
                        });
                });
        }
    }
    int rounds = 0;
    Tick target = testbed_->now();
    while (rounds < config_.maxDrainRounds &&
           (completed < pending || outstandingTotal() > 0)) {
        target += config_.drainWindow;
        testbed_->runUntil(target);
        rounds++;
    }
    if (completed < pending)
        report_.addViolation("P3-staleness",
                             "read audit: " +
                                 std::to_string(pending - completed) +
                                 " read(s) never completed");
    report_.setCounter("reads-audited", completed);
}

void
FaultRunner::collectCounters()
{
    // Every link is reachable from an endpoint we know (the switch in
    // the middle only connects to clients, devices and the server).
    std::set<net::Link *> links;
    std::uint64_t losses = 0, drops = 0;
    std::uint64_t corruptions = 0, duplicates = 0, reorders = 0;
    auto add = [&](net::Node &node) {
        for (int p = 0; p < node.portCount(); p++) {
            net::Link *link = node.linkAt(p);
            if (link != nullptr && links.insert(link).second) {
                losses += link->losses();
                drops += link->drops();
                corruptions += link->corruptions();
                duplicates += link->duplicates();
                reorders += link->reorders();
            }
        }
    };
    for (unsigned s = 0; s < testbed_->shardCount(); s++)
        add(testbed_->serverHost(s));
    for (std::size_t i = 0; i < testbed_->deviceCount(); i++)
        add(testbed_->device(i));
    for (std::size_t c = 0; c < testbed_->clientCount(); c++)
        add(testbed_->clientHost(c));
    report_.setCounter("link-losses", losses);
    report_.setCounter("link-drops", drops);
    report_.setCounter("link-corruptions", corruptions);
    report_.setCounter("link-duplicates", duplicates);
    report_.setCounter("link-reorders", reorders);

    std::uint64_t acked = 0, applied = 0;
    std::uint64_t timeouts = 0, resent = 0, by_pmnet = 0, by_server = 0;
    const obs::MetricRegistry &metrics = testbed_->metrics();
    for (std::size_t c = 0; c < testbed_->clientCount(); c++) {
        acked += sessions_[c].acked.size();
        applied += sessions_[c].appliedTotal();
        std::string cp = testbed_->clientPrefix(c);
        timeouts += metrics.value(cp + ".timeouts");
        resent += metrics.value(cp + ".packetsResent");
        by_pmnet += metrics.value(cp + ".completedByPmnetAck");
        by_server += metrics.value(cp + ".completedByServerAck");
    }
    report_.setCounter("acked-total", acked);
    report_.setCounter("applied-total", applied);
    report_.setCounter("client-timeouts", timeouts);
    report_.setCounter("client-resends", resent);
    report_.setCounter("client-completed-pmnet", by_pmnet);
    report_.setCounter("client-completed-server", by_server);

    std::uint64_t logged = 0, reacked = 0, retrans = 0, replayed = 0;
    std::uint64_t reforwarded = 0;
    std::uint64_t resilver_sent = 0, resilver_logged = 0;
    for (std::size_t i = 0; i < testbed_->deviceCount(); i++) {
        std::string dp = testbed_->devicePrefix(i);
        logged += metrics.value(dp + ".updatesLogged");
        reacked += metrics.value(dp + ".updatesReAcked");
        retrans += metrics.value(dp + ".retransServed");
        replayed += metrics.value(dp + ".recoveryResent");
        reforwarded += metrics.value(dp + ".reforwarded");
        resilver_sent += metrics.value(dp + ".resilverPushesSent");
        resilver_logged += metrics.value(dp + ".resilverLogged");
    }
    report_.setCounter("device-logged", logged);
    report_.setCounter("device-reacked", reacked);
    report_.setCounter("device-retrans-served", retrans);
    report_.setCounter("device-recovery-resent", replayed);
    report_.setCounter("device-reforwarded", reforwarded);
    if (testbed_->shardMap() != nullptr) {
        report_.setCounter("resilver-pushes", resilver_sent);
        report_.setCounter("resilver-logged", resilver_logged);
        report_.setCounter("resilver-streams",
                           repairCoord_->streamsStarted());
        report_.setCounter("repairs-completed",
                           repairCoord_->repairsCompleted());
    }

    std::uint64_t srv_applied = 0, srv_dups = 0, srv_makeup = 0;
    std::uint64_t srv_recoveries = 0, srv_acks = 0;
    for (unsigned s = 0; s < testbed_->shardCount(); s++) {
        std::string sp = testbed_->serverPrefix(s);
        srv_applied += metrics.value(sp + ".updatesApplied");
        srv_dups += metrics.value(sp + ".duplicatesDropped");
        srv_makeup += metrics.value(sp + ".makeupAcks");
        srv_recoveries += metrics.value(sp + ".recoveries");
        srv_acks += metrics.value(sp + ".acksSent");
    }
    report_.setCounter("server-applied", srv_applied);
    report_.setCounter("server-duplicates", srv_dups);
    report_.setCounter("server-makeup-acks", srv_makeup);
    report_.setCounter("server-recoveries", srv_recoveries);
    report_.setCounter("server-acks", srv_acks);
}

const InvariantReport &
FaultRunner::run(const FaultPlan &plan)
{
    if (ran_)
        return report_;
    ran_ = true;
    report_ = InvariantReport(
        "fault-plan:" + plan.name + ":seed" +
        std::to_string(config_.testbed.seed));
    sessions_.assign(testbed_->clientCount(), SessionTrack{});
    for (SessionTrack &track : sessions_)
        track.appliedByShard.resize(testbed_->shardCount());

    testbed_->setHandlerTap([this](std::uint16_t, bool is_update,
                                   const apps::Command &cmd) {
        if (!is_update || cmd.args.size() < 3 || cmd.verb() != "SET")
            return;
        int session = 0, op = 0;
        if (!parseValue(cmd.args[2], &session, &op))
            return;
        std::size_t idx = static_cast<std::size_t>(session) - 1;
        if (idx < sessions_.size()) {
            unsigned shard = shardOfKey(cmd.args[1]);
            sessions_[idx].appliedByShard[shard].push_back(op);
        }
    });

    for (std::size_t c = 0; c < testbed_->clientCount(); c++)
        testbed_->clientLib(c).startSession();
    for (const FaultAction &action : plan.actions)
        scheduleAction(action);
    issueUpdates();

    // Run at least to the end of the plan (a power cut scheduled past
    // the last completion must still happen), then drain. The run is
    // chopped into drain-sized windows with a repair-coordinator poll
    // between each, so a repair beginning mid-plan starts its resilver
    // stream while the chain still holds live entries — not after the
    // dust has settled.
    TickDelta horizon = 0;
    for (const FaultAction &action : plan.actions) {
        TickDelta end = action.at + action.duration;
        horizon = end > horizon ? end : horizon;
    }
    Tick plan_end = testbed_->now() + horizon;
    for (Tick target = testbed_->now(); target < plan_end;) {
        target += config_.drainWindow;
        if (target > plan_end)
            target = plan_end;
        testbed_->runUntil(target);
        repairCoord_->poll();
    }
    drain("updates");

    checkDurabilityAndOrder();
    auditStore();
    auditCache();
    if (config_.auditReads)
        auditReadsEndToEnd();
    collectCounters();
    return report_;
}

} // namespace pmnet::fault
