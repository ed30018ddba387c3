#include "gateway/server.h"

#include <cerrno>
#include <cstring>

#include <sys/stat.h>

#include "apps/kv_protocol.h"
#include "common/logging.h"

namespace pmnet::gateway {

pmnetdev::DeviceConfig
GatewayServer::Config::wallDeviceDefaults()
{
    pmnetdev::DeviceConfig device;
    device.pipelineLatency = 0;
    // Re-forward an un-ACKed log entry after 5 ms of wall silence.
    device.reforwardAge = milliseconds(5);
    device.reforwardInterval = milliseconds(1);
    return device;
}

stack::ServerConfig
GatewayServer::Config::wallServerDefaults()
{
    stack::ServerConfig server;
    server.dispatchLatency = 0;
    server.reorderWindow = milliseconds(1);
    server.retransInterval = milliseconds(5);
    return server;
}

GatewayServer::GatewayServer(Config config)
    : config_(std::move(config)), transport_(config_.port),
      bridge_(sim_, "bridge", GatewayBridge::Role::Daemon, transport_),
      device_(sim_, "device", kDeviceNode,
              [&] {
                  pmnetdev::DeviceConfig d = config_.device;
                  d.pipelineLatency = 0;
                  return d;
              }()),
      serverHost_(sim_, "server", kServerNode, zeroProfile()),
      // Attachment order fixes the device ports: 0 = bridge side,
      // 1 = server side (net::Link assigns ports on construction).
      bridgeDeviceLink_(sim_, "l.bridge-device", bridge_, device_,
                        inProcessLink()),
      deviceServerLink_(sim_, "l.device-server", device_, serverHost_,
                        inProcessLink()),
      heap_(config_.heapBytes), runtime_(sim_, clock_)
{
    assembleTopology();
    recoverOrInit();
    installHandler();
    // A reopened pool's superblock sets the table size.
    bridge_.setSessionLimit(serverLib_->config().maxSessions);

    transport_.setReceive(
        [this](const Endpoint &from, const std::uint8_t *data,
               std::size_t len) { bridge_.onDatagram(from, data, len); });
    runtime_.addTransport(transport_);

    bridge_.setRecorder(&recorder_);
    serverHost_.setRecorder(&recorder_);
    device_.setRecorder(&recorder_);

    device_.registerMetrics(registry_, "device");
    serverLib_->registerMetrics(registry_, "server");
    bridge_.registerMetrics(registry_, "gateway.bridge");
    runtime_.registerMetrics(registry_, "gateway.loop");
    registry_.probe("gateway.transport.datagramsSent",
                    [this] { return transport_.datagramsSent; });
    registry_.probe("gateway.transport.datagramsReceived",
                    [this] { return transport_.datagramsReceived; });
    registry_.probe("gateway.transport.bytesSent",
                    [this] { return transport_.bytesSent; });
    registry_.probe("gateway.transport.bytesReceived",
                    [this] { return transport_.bytesReceived; });
    registry_.probe("gateway.transport.sendErrors",
                    [this] { return transport_.sendErrors; });
    if (journal_) {
        registry_.probe("gateway.journal.replayedEntries",
                        [this] { return journal_->replayedEntries; });
        registry_.probe("gateway.journal.skippedRecords",
                        [this] { return journal_->skippedRecords; });
        registry_.probe("gateway.journal.truncatedTail",
                        [this] { return journal_->truncatedTail; });
    }
}

void
GatewayServer::assembleTopology()
{
    // Route by the wire.h convention: the server behind port 1,
    // every possible client NodeId back out through the bridge.
    device_.setRoute(kServerNode, 1);
    for (std::uint32_t sid = 0; sid < config_.server.maxSessions; sid++)
        device_.setRoute(clientNode(static_cast<std::uint16_t>(sid)), 0);
}

void
GatewayServer::recoverOrInit()
{
    if (!config_.dataDir.empty()) {
        if (::mkdir(config_.dataDir.c_str(), 0755) != 0 &&
            errno != EEXIST)
            fatal("GatewayServer: cannot create data dir %s: %s",
                  config_.dataDir.c_str(), std::strerror(errno));
        heapState_ = heap_.attachBackingFile(
            config_.dataDir + "/heap.img", config_.syncEveryFence);
        journal_ = std::make_unique<LogJournal>(config_.dataDir +
                                                "/log.journal");
    }

    // ServerLib's constructor re-opens a pre-existing pool root.
    serverLib_ = std::make_unique<stack::ServerLib>(serverHost_, heap_,
                                                    config_.server);
    serverLib_->setDevices({device_.id()});
    serverLib_->setRecoveryHook([this] {
        store_ = std::make_unique<apps::CommandStore>(
            heap_, serverLib_->appRoot());
    });

    recovered_ = heapState_ == pm::PmHeap::BackingState::Reopened;
    if (recovered_) {
        store_ = std::make_unique<apps::CommandStore>(
            heap_, serverLib_->appRoot());
    } else {
        store_ = std::make_unique<apps::CommandStore>(heap_,
                                                      config_.storeKind);
        serverLib_->setAppRoot(store_->persistentRoot());
    }
    heap_.drainCost(); // setup/recovery is not charged to any request

    // Rebuild the device log from the journal *before* attaching it
    // as the store's observer, then shrink the file to the live set.
    if (journal_) {
        replayed_ = journal_->replay(
            [this](net::PacketPtr pkt) {
                if (!device_.restoreLogEntry(std::move(pkt)))
                    journal_->skippedRecords++;
            });
        journal_->compact(device_.logStore());
        device_.setLogObserver(journal_.get());
        if (replayed_ > 0)
            recovered_ = true;
    }

    if (recovered_) {
        // The sim-mode restart path: drop volatile state, re-root the
        // app, and poll the device so acked-but-unapplied updates are
        // replayed before the daemon serves traffic (P1).
        serverHost_.powerFail();
        serverHost_.powerRestore();
    }
}

void
GatewayServer::installHandler()
{
    serverLib_->setHandler(
        [this](std::uint16_t session, bool is_update,
               const Bytes &payload) -> stack::ServerLib::HandlerResult {
            stack::ServerLib::HandlerResult result;
            auto cmd = apps::decodeCommand(payload);
            if (!cmd) {
                result.response = apps::encodeResponse(
                    apps::RespStatus::Error, "malformed");
                return result;
            }
            Bytes response = store_->executeToResponse(*cmd, session);
            // No modeled cost: the handler's real runtime already
            // elapsed on the wall clock.
            if (!is_update)
                result.response = std::move(response);
            return result;
        });
}

void
GatewayServer::syncDurable()
{
    if (journal_)
        journal_->sync();
    heap_.syncBackingFile();
}

obs::Snapshot
GatewayServer::snapshot() const
{
    obs::Snapshot snap;
    snap.put("tool", obs::Json("pmnetd"));
    snap.put("run.port", static_cast<std::uint64_t>(localPort()));
    snap.put("run.durable", !config_.dataDir.empty());
    snap.put("run.recovered", recovered_);
    snap.put("run.replayed_log_entries",
             static_cast<std::uint64_t>(replayed_));
    snap.put("metrics", registry_.toJson());
    return snap;
}

} // namespace pmnet::gateway
