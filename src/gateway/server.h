/**
 * @file
 * GatewayServer — the daemon-side assembly (DESIGN.md §17).
 *
 * One object owns everything a `pmnetd` process needs: an embedded
 * simulator, a wall clock, the UDP transport + bridge, and the
 * *unchanged* protocol stack — a PmnetDevice between the bridge and a
 * server Host running ServerLib + apps::CommandStore:
 *
 *   socket <-> GatewayBridge(0) --- PmnetDevice(1) --- server Host(2)
 *
 * NodeIds follow gateway/wire.h. The stack profile, link and device
 * pipeline latencies are zeroed: real time replaces modeled time, and
 * only *protocol* timers (retry, re-forward, reorder windows) keep
 * meaningful durations, now measured in wall nanoseconds.
 *
 * Durability across a SIGKILLed process comes from two files under
 * dataDir: `heap.img` (PmHeap::attachBackingFile — the server pool's
 * durable image, mapped into the process, so a fence's stores land in
 * the page cache) and `log.journal` (LogJournal — a fold-able mirror
 * of the device log). On restart with existing files, the constructor
 * replays the journal into the device log and runs the ServerLib
 * power-restore path, which re-roots the command store and polls the
 * device with RecoveryPoll — so every acked-but-unapplied update is
 * replayed before the daemon serves traffic (P1).
 *
 * Construct, poll and destroy a GatewayServer on one thread (or
 * destroy it after that thread is joined). The recovery path creates
 * packets from the constructing thread's net::PacketPool, and a pool
 * is single-threaded: polling on another thread releases those
 * packets into a pool its owner is still using.
 */

#ifndef PMNET_GATEWAY_SERVER_H
#define PMNET_GATEWAY_SERVER_H

#include <memory>
#include <string>

#include "apps/command_store.h"
#include "gateway/bridge.h"
#include "gateway/journal.h"
#include "gateway/runtime.h"
#include "net/link.h"
#include "obs/flight_recorder.h"
#include "obs/snapshot.h"
#include "pmnet/device.h"
#include "stack/server_lib.h"

namespace pmnet::gateway {

/** Everything one pmnetd process owns. */
class GatewayServer
{
  public:
    struct Config
    {
        /** UDP port to bind (0 = ephemeral; see localPort()). */
        std::uint16_t port = 0;
        /**
         * Directory for heap.img + log.journal. Empty = volatile
         * (nothing survives the process; for tests/smoke runs).
         */
        std::string dataDir;
        /** Server pool capacity. */
        std::size_t heapBytes = 4 * 1024 * 1024;
        /** Command-store structure. */
        kv::KvKind storeKind = kv::KvKind::Hashmap;
        /** fdatasync heap.img at every fence (power-loss grade). */
        bool syncEveryFence = false;
        /**
         * Wall-clock protocol timers. Defaults suit localhost; the
         * modeled-latency fields of nested configs are forced to
         * zero by the constructor regardless of what they hold.
         */
        pmnetdev::DeviceConfig device = wallDeviceDefaults();
        stack::ServerConfig server = wallServerDefaults();

        static pmnetdev::DeviceConfig wallDeviceDefaults();
        static stack::ServerConfig wallServerDefaults();
    };

    explicit GatewayServer(Config config);

    /** Bound UDP port (resolves ephemeral binds). */
    std::uint16_t localPort() const { return transport_.localPort(); }

    /** True when this instance recovered pre-existing state. */
    bool recovered() const { return recovered_; }

    /** Entries fed back into the device log by journal replay. */
    std::size_t replayedLogEntries() const { return replayed_; }

    /** The event loop; callers run/stop it (and may addFd on it). */
    GatewayRuntime &runtime() { return runtime_; }

    obs::MetricRegistry &metrics() { return registry_; }
    obs::FlightRecorder &recorder() { return recorder_; }
    apps::CommandStore &store() { return *store_; }
    stack::ServerLib &server() { return *serverLib_; }
    pmnetdev::PmnetDevice &device() { return device_; }
    GatewayBridge &bridge() { return bridge_; }

    /** Flush the journal + heap image to stable storage. */
    void syncDurable();

    /** The wall-clock metrics snapshot (tool = "pmnetd"). */
    obs::Snapshot snapshot() const;

  private:
    void assembleTopology();
    void recoverOrInit();
    void installHandler();

    Config config_;
    sim::Simulator sim_;
    WallClock clock_;
    UdpTransport transport_;
    GatewayBridge bridge_;
    pmnetdev::PmnetDevice device_;
    stack::Host serverHost_;
    net::Link bridgeDeviceLink_;
    net::Link deviceServerLink_;
    pm::PmHeap heap_;
    pm::PmHeap::BackingState heapState_ = pm::PmHeap::BackingState::Fresh;
    std::unique_ptr<LogJournal> journal_;
    std::unique_ptr<stack::ServerLib> serverLib_;
    std::unique_ptr<apps::CommandStore> store_;
    obs::FlightRecorder recorder_;
    obs::MetricRegistry registry_;
    GatewayRuntime runtime_;
    bool recovered_ = false;
    std::size_t replayed_ = 0;
};

} // namespace pmnet::gateway

#endif // PMNET_GATEWAY_SERVER_H
