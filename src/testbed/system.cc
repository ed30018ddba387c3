#include "testbed/system.h"

#include "common/logging.h"

namespace pmnet::testbed {

const char *
systemModeName(SystemMode mode)
{
    switch (mode) {
      case SystemMode::ClientServer: return "client-server";
      case SystemMode::PmnetSwitch: return "pmnet-switch";
      case SystemMode::PmnetNic: return "pmnet-nic";
      case SystemMode::ClientSideLogging: return "client-side-logging";
      case SystemMode::ServerSideLogging: return "server-side-logging";
    }
    return "unknown";
}

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)), rng_(config_.seed)
{
    if (config_.clientCount <= 0)
        fatal("Testbed: clientCount must be positive");
    if (config_.replicationDegree == 0)
        fatal("Testbed: replicationDegree must be >= 1");
    if (config_.shards == 0)
        fatal("Testbed: shards must be >= 1");
    if (config_.shards > 1) {
        if (config_.mode != SystemMode::PmnetSwitch)
            fatal("Testbed: shards > 1 requires PmnetSwitch mode "
                  "(the fabric routes through PMNet chains)");
        if (config_.serverKind != ServerKind::CommandStore)
            fatal("Testbed: shards > 1 requires a CommandStore server "
                  "(consistent-hash routing is keyed)");
    }
    if (!config_.workload) {
        config_.workload = [](std::uint16_t session) {
            apps::YcsbConfig ycsb;
            return apps::makeYcsbWorkload(ycsb, session);
        };
    }

    buildTopology();
    buildServerApp();
    buildClients();
    installHandler();
    wireObservability();
}

Testbed::~Testbed() = default;

void
Testbed::buildTopology()
{
    topo_ = std::make_unique<net::Topology>(sim_);

    shardUnits_.resize(config_.shards);
    bool multi = config_.shards > 1;
    if (multi)
        shardMap_ = std::make_unique<pmnet::ShardMap>(
            config_.shards, config_.shardVnodes);

    // Node-creation order fixes NodeIds:
    // [server0, tor, clients..., shard0 devices..., server1, shard1
    // devices..., ...]. At shards == 1 this is exactly the historical
    // layout, so every published figure stays byte-identical.
    shardUnits_[0].serverHost = &topo_->addNode<stack::Host>(
        multi ? "server0" : "server", config_.serverProfile());

    bool pmnet_mode = config_.mode == SystemMode::PmnetSwitch ||
                      config_.mode == SystemMode::PmnetNic;
    unsigned device_count =
        pmnet_mode ? (config_.mode == SystemMode::PmnetNic
                          ? 1
                          : config_.replicationDegree)
                   : 0;

    auto &tor = topo_->addNode<net::BasicSwitch>(
        "tor", config_.plainSwitchLatency);
    tor_ = &tor;

    // Clients hang off the merge/ToR switch.
    for (int i = 0; i < config_.clientCount; i++) {
        auto &host = topo_->addNode<stack::Host>(
            "client" + std::to_string(i), config_.clientProfile());
        topo_->connect(host, tor, config_.link);
        clients_.push_back(Client{&host, nullptr});
    }

    // Per shard: chain PMNet devices between the switch and that
    // shard's server.
    for (unsigned s = 0; s < config_.shards; s++) {
        ShardUnit &unit = shardUnits_[s];
        if (s > 0)
            unit.serverHost = &topo_->addNode<stack::Host>(
                "server" + std::to_string(s), config_.serverProfile());

        net::Node *tail = &tor;
        for (unsigned d = 0; d < device_count; d++) {
            std::string name =
                multi ? "s" + std::to_string(s) + ".pmnet" +
                            std::to_string(d)
                      : "pmnet" + std::to_string(d);
            auto &dev = topo_->addNode<pmnetdev::PmnetDevice>(
                name, config_.device);
            topo_->connect(*tail, dev, config_.link);
            unit.devices.push_back(&dev);
            devices_.push_back(&dev);
            tail = &dev;
        }

        net::LinkConfig last = config_.link;
        if (config_.mode == SystemMode::PmnetNic) {
            // Bump-in-the-wire: the device sits on the server's NIC
            // slot.
            last.propagation = nanoseconds(50);
        }
        topo_->connect(*tail, *unit.serverHost, last);
    }

    topo_->computeRoutes();

    if (config_.cacheEnabled) {
        if (devices_.empty())
            fatal("Testbed: cacheEnabled requires a PMNet mode");
        // The device adjacent to each server is the rack's ToR in the
        // paper's caching setup (Section IV-D).
        for (auto &unit : shardUnits_)
            unit.devices.back()->enableCache(&codec_);
    }
}

void
Testbed::buildServerApp()
{
    stack::ServerConfig server_config = config_.server;
    server_config.dispatchLatency = config_.dispatchLatency();
    // Session ids are 1-based client indices; a fabric-scale client
    // fleet (8 shards x 128 clients) walks past the default 1024-slot
    // watermark table, so grow it to fit. Smaller fleets keep the
    // default, and the table only costs heap bytes at setup (which
    // drainCost() discards), so existing runs are unchanged.
    if (config_.clientCount + 1 >
        static_cast<int>(server_config.maxSessions))
        server_config.maxSessions =
            static_cast<std::uint32_t>(config_.clientCount + 1);
    if (config_.mode == SystemMode::ServerSideLogging) {
        server_config.ackOnArrival = true;
        server_config.arrivalAckExtraDelay =
            config_.replicationDegree > 1
                ? config_.serverLogReplicationDelay
                : 0;
    }

    for (auto &unit : shardUnits_) {
        unit.heap = std::make_unique<pm::PmHeap>(config_.heapBytes);
        unit.serverLib = std::make_unique<stack::ServerLib>(
            *unit.serverHost, *unit.heap, server_config);
        if (config_.deviceHeartbeat) {
            // Devices detect the failure themselves and replay on
            // their own; the server never polls.
            for (auto *dev : unit.devices)
                dev->enableHeartbeat(unit.serverHost->id());
        } else {
            std::vector<net::NodeId> device_ids;
            for (auto *dev : unit.devices)
                device_ids.push_back(dev->id());
            unit.serverLib->setDevices(std::move(device_ids));
        }
    }

    if (config_.serverKind == ServerKind::CommandStore) {
        // Preload the dataset offline (not simulated, not charged).
        // One rng_ split regardless of shard count; every shard
        // populates from a copy, so each preloads the identical full
        // dataset — ownerOf decides which replica serves each key.
        Rng populate_rng = rng_.split();
        for (std::size_t s = 0; s < shardUnits_.size(); s++) {
            ShardUnit &unit = shardUnits_[s];
            unit.store = std::make_unique<apps::CommandStore>(
                *unit.heap, config_.storeKind);
            unit.serverLib->setAppRoot(unit.store->persistentRoot());
            unit.serverLib->setRecoveryHook([this, s]() {
                ShardUnit &u = shardUnits_[s];
                u.store = std::make_unique<apps::CommandStore>(
                    *u.heap, u.serverLib->appRoot());
            });

            Rng shard_rng = populate_rng;
            auto seed_workload = config_.workload(0);
            seed_workload->populate(*unit.store, shard_rng);
            unit.heap->drainCost();
        }
    }
}

void
Testbed::installHandler()
{
    for (std::size_t s = 0; s < shardUnits_.size(); s++)
        installHandlerFor(s);
}

void
Testbed::installHandlerFor(std::size_t s)
{
    shardUnits_[s].serverLib->setHandler(
        [this, s](std::uint16_t session, bool is_update,
                  bool is_near_data,
                  const Bytes &payload) -> stack::ServerLib::HandlerResult {
            stack::ServerLib::HandlerResult result;
            if (config_.serverKind == ServerKind::Ideal) {
                result.cost = config_.idealHandlerCost;
                if (is_update)
                    result.cost += config_.serverReplicationCommitDelay;
                if (!is_update || is_near_data)
                    result.response = apps::encodeResponse(
                        apps::RespStatus::Ok, "OK");
                return result;
            }
            auto cmd = apps::decodeCommand(payload);
            if (!cmd) {
                result.response = apps::encodeResponse(
                    apps::RespStatus::Error, "malformed");
                return result;
            }
            if (handlerTap_)
                handlerTap_(session, is_update, *cmd);
            Bytes response =
                shardUnits_[s].store->executeToResponse(*cmd, session);
            result.cost += config_.appOverhead;
            // Ordinary updates complete on ACKs alone; near-data RMWs
            // additionally return the computed value.
            if (!is_update || is_near_data)
                result.response = std::move(response);
            // Baseline server-side replication (Fig 21): committing
            // includes syncing the replicas before the ACK leaves.
            if (is_update)
                result.cost += config_.serverReplicationCommitDelay;
            return result;
        });
}

void
Testbed::buildClients()
{
    std::vector<net::NodeId> shard_servers;
    if (shardMap_) {
        for (auto &unit : shardUnits_)
            shard_servers.push_back(unit.serverHost->id());
    }

    for (int i = 0; i < config_.clientCount; i++) {
        stack::ClientConfig client_config = config_.clientDefaults;
        client_config.server = shardUnits_[0].serverHost->id();
        client_config.sessionId = static_cast<std::uint16_t>(i + 1);
        client_config.replicationDegree =
            config_.mode == SystemMode::PmnetSwitch
                ? config_.replicationDegree
                : 1;
        auto &client = clients_[static_cast<std::size_t>(i)];
        client.lib = std::make_unique<stack::ClientLib>(*client.host,
                                                        client_config);
        if (shardMap_)
            client.lib->setShardMap(shardMap_.get(), shard_servers);
    }

    DriverSinks sinks;
    sinks.updateLatency = &updateLatency_;
    sinks.readLatency = &readLatency_;
    sinks.allLatency = &allLatency_;
    sinks.meter = &meter_;
    sinks.measuring = &measuring_;
    for (int i = 0; i < config_.clientCount; i++) {
        std::uint16_t session = static_cast<std::uint16_t>(i + 1);
        drivers_.push_back(std::make_unique<ClientDriver>(
            sim_, *clients_[static_cast<std::size_t>(i)].lib,
            config_.workload(session), rng_.split(), sinks, config_));
    }
}

stack::ClientLib &
Testbed::clientLib(std::size_t i)
{
    return *clients_[i].lib;
}

std::string
Testbed::clientPrefix(std::size_t i) const
{
    return "client" + std::to_string(i);
}

std::string
Testbed::serverPrefix(std::size_t s) const
{
    if (shardUnits_.size() == 1)
        return "server";
    return "shard." + std::to_string(s) + ".server";
}

std::string
Testbed::devicePrefix(std::size_t i) const
{
    if (shardUnits_.size() == 1)
        return "device" + std::to_string(i);
    // The flat device list concatenates the shards' chains in shard
    // order, so peel whole chains off the front to find the owner.
    for (std::size_t s = 0; s < shardUnits_.size(); s++) {
        std::size_t chain = shardUnits_[s].devices.size();
        if (i < chain)
            return "shard." + std::to_string(s) + ".device" +
                   std::to_string(i);
        i -= chain;
    }
    fatal("Testbed::devicePrefix: device index out of range");
}

void
Testbed::wireObservability()
{
    // Metric registration is unconditional: it only records pointers
    // to counters the components bump anyway, and makes
    // metrics().toJson() the one source of truth for every tool.
    for (std::size_t i = 0; i < clients_.size(); i++)
        clients_[i].lib->registerMetrics(metrics_,
                                         "client" + std::to_string(i));
    if (shardUnits_.size() == 1) {
        // Historical names, so every existing tool/golden still finds
        // "server" and "deviceN".
        shardUnits_[0].serverLib->registerMetrics(metrics_, "server");
        for (std::size_t d = 0; d < devices_.size(); d++)
            devices_[d]->registerMetrics(metrics_,
                                         "device" + std::to_string(d));
    } else {
        for (std::size_t s = 0; s < shardUnits_.size(); s++) {
            std::string prefix = "shard." + std::to_string(s);
            shardUnits_[s].serverLib->registerMetrics(
                metrics_, prefix + ".server");
            const auto &devs = shardUnits_[s].devices;
            for (std::size_t d = 0; d < devs.size(); d++)
                devs[d]->registerMetrics(
                    metrics_, prefix + ".device" + std::to_string(d));
        }
    }
    net::PacketPool::local().registerMetrics(metrics_, "packetPool");

    if (!config_.observability)
        return;

    // The flight recorder is opt-in: stamping is cheap but not free,
    // and the figure binaries promise byte-identical output with it
    // off.
    recorder_ = std::make_unique<obs::FlightRecorder>(config_.flightSlots);
    obs::FlightRecorder *rec = recorder_.get();
    for (auto &client : clients_) {
        client.host->setRecorder(rec);
        client.lib->setRecorder(rec);
    }
    tor_->setRecorder(rec);
    for (auto *dev : devices_)
        dev->setRecorder(rec);
    for (auto &unit : shardUnits_) {
        unit.serverHost->setRecorder(rec);
        unit.serverLib->setRecorder(rec);
    }
}

void
Testbed::startDrivers()
{
    if (driversStarted_)
        return;
    driversStarted_ = true;
    TickDelta stagger = 0;
    for (auto &driver : drivers_) {
        driver->start(microseconds(1) + stagger);
        stagger += nanoseconds(350);
    }
}

void
Testbed::beginMeasurement()
{
    updateLatency_.clear();
    readLatency_.clear();
    allLatency_.clear();
    if (recorder_) {
        recorder_->resetAccum();
        recorder_->setAccumulating(true);
    }
    measuring_ = true;
    meter_.start(now());
}

RunResults
Testbed::endMeasurement()
{
    meter_.stop(now());
    measuring_ = false;

    RunResults results;
    results.opsPerSecond = meter_.completed() > 0
                               ? meter_.opsPerSecond()
                               : 0.0;
    results.updateLatency = updateLatency_;
    results.readLatency = readLatency_;
    results.allLatency = allLatency_;
    for (const auto &driver : drivers_)
        results.lockConflicts += driver->lockConflicts();
    for (std::size_t d = 0; d < devices_.size(); d++) {
        std::string prefix = devicePrefix(d);
        results.cacheResponses +=
            metrics_.value(prefix + ".cacheResponses");
        results.updatesLogged +=
            metrics_.value(prefix + ".updatesLogged");
    }
    if (recorder_) {
        recorder_->setAccumulating(false);
        results.breakdown = recorder_->accum();
    }
    return results;
}

obs::Json
RunResults::toJson() const
{
    obs::Json out = obs::Json::object();
    out.set("ops_per_second", opsPerSecond);
    out.set("update_latency", obs::latencySummaryJson(updateLatency));
    out.set("read_latency", obs::latencySummaryJson(readLatency));
    out.set("all_latency", obs::latencySummaryJson(allLatency));
    out.set("lock_conflicts", lockConflicts);
    out.set("cache_responses", cacheResponses);
    out.set("updates_logged", updatesLogged);
    out.set("breakdown", breakdown.toJson());
    return out;
}

RunResults
Testbed::run(TickDelta warmup, TickDelta measure)
{
    startDrivers();
    runFor(warmup);
    beginMeasurement();
    runFor(measure);
    return endMeasurement();
}

std::uint64_t
Testbed::totalCompleted() const
{
    std::uint64_t total = 0;
    for (const auto &driver : drivers_)
        total += driver->completedRequests();
    return total;
}

} // namespace pmnet::testbed
