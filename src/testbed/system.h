/**
 * @file
 * Full-system assembly: builds the topology, hosts, PMNet devices,
 * software libraries and drivers for one experiment configuration,
 * and runs warmup + measurement windows.
 *
 * Topologies (paper Section VI-A1):
 *
 *   ClientServer / *SideLogging:
 *     clients -- ToR switch -- server
 *
 *   PmnetSwitch (replicationDegree R chains R devices, Fig 9a):
 *     clients -- merge switch -- PMNet#1 -- ... -- PMNet#R -- server
 *
 *   PmnetNic (bump-in-the-wire, Microsoft-style):
 *     clients -- ToR switch -- PMNet-NIC == server   (50 ns wire)
 *
 *   PmnetSwitch with TestbedConfig::shards = N > 1 (DESIGN.md §14):
 *     clients -- merge switch ==> N independent chains, one server
 *     each; a consistent-hash ShardMap routes every keyed request to
 *     its owning shard's chain.
 *
 * Failure injection for the recovery experiments drives Node power
 * hooks: the server's ServerLib reloads its PM state and polls every
 * device with RecoveryPoll; devices lose SRAM queues but keep logs.
 */

#ifndef PMNET_TESTBED_SYSTEM_H
#define PMNET_TESTBED_SYSTEM_H

#include "apps/kv_protocol.h"
#include "net/topology.h"
#include "obs/flight_recorder.h"
#include "obs/metric_registry.h"
#include "pmnet/shard_map.h"
#include "testbed/driver.h"

namespace pmnet::testbed {

/** Snapshot of one measured window. */
struct RunResults
{
    double opsPerSecond = 0;
    Histogram updateLatency;
    Histogram readLatency;
    Histogram allLatency;
    std::uint64_t lockConflicts = 0;
    std::uint64_t cacheResponses = 0;
    std::uint64_t updatesLogged = 0;
    /**
     * Five-way latency attribution of every request completed in the
     * window (count 0 unless TestbedConfig::observability was on).
     */
    obs::FlightRecorder::Accum breakdown;

    /**
     * The one canonical serialization (ops/s, the three latency
     * summaries, counters, breakdown) — every tool emits run results
     * through this, wrapped in an obs::Snapshot.
     */
    obs::Json toJson() const;
};

/** One assembled system under test. */
class Testbed
{
  public:
    explicit Testbed(TestbedConfig config);
    ~Testbed();

    Testbed(const Testbed &) = delete;
    Testbed &operator=(const Testbed &) = delete;

    /**
     * Start all drivers (staggered), run @p warmup, then measure for
     * @p measure simulated time and return the window's results.
     */
    RunResults run(TickDelta warmup, TickDelta measure);

    /** @name Manual control (failure/recovery experiments)
     *  @{
     */
    void startDrivers();
    void beginMeasurement();
    RunResults endMeasurement();

    /** The one event queue every node of the testbed schedules on. */
    sim::Simulator &simulator() { return sim_; }

    /** Current simulated time. */
    Tick now() const { return sim_.now(); }

    /** Advance simulated time. */
    void runUntil(Tick until) { sim_.run(until); }
    void runFor(TickDelta duration) { runUntil(now() + duration); }
    /** @} */

    /** @name Component access
     * The server-side accessors take a shard index (default 0, the
     * only shard of a classic single-chain testbed). device(i)
     * indexes the flat device list: all shards' chains concatenated
     * in shard order, head-to-tail within a shard.
     *  @{
     */
    stack::Host &serverHost(std::size_t s = 0)
    {
        return *shardUnits_[s].serverHost;
    }
    stack::ServerLib &serverLib(std::size_t s = 0)
    {
        return *shardUnits_[s].serverLib;
    }
    pm::PmHeap &serverHeap(std::size_t s = 0)
    {
        return *shardUnits_[s].heap;
    }
    apps::CommandStore *commandStore(std::size_t s = 0)
    {
        return shardUnits_[s].store.get();
    }
    unsigned shardCount() const
    {
        return static_cast<unsigned>(shardUnits_.size());
    }
    /** The consistent-hash router; null when shards == 1. */
    pmnet::ShardMap *shardMap() { return shardMap_.get(); }
    std::size_t deviceCount() const { return devices_.size(); }
    pmnetdev::PmnetDevice &device(std::size_t i) { return *devices_[i]; }
    std::size_t shardDeviceCount(std::size_t s) const
    {
        return shardUnits_[s].devices.size();
    }
    pmnetdev::PmnetDevice &shardDevice(std::size_t s, std::size_t d)
    {
        return *shardUnits_[s].devices[d];
    }
    std::size_t clientCount() const { return clients_.size(); }
    stack::ClientLib &clientLib(std::size_t i);
    stack::Host &clientHost(std::size_t i) { return *clients_[i].host; }
    ClientDriver &driver(std::size_t i) { return *drivers_[i]; }
    const TestbedConfig &config() const { return config_; }
    /** @} */

    /** @name Observability (DESIGN.md section 11)
     * Every component registers its counters in metrics() at
     * construction; the flight recorder exists only when
     * TestbedConfig::observability is set.
     *  @{
     */
    obs::MetricRegistry &metrics() { return metrics_; }
    const obs::MetricRegistry &metrics() const { return metrics_; }
    obs::FlightRecorder *flightRecorder() { return recorder_.get(); }

    /**
     * Registry path prefixes for the indexed components, matching the
     * names wireObservability() registered ("deviceN" single-shard,
     * "shard.S.deviceN" multi-shard). Combine with metrics().value():
     *
     *   bed.metrics().value(bed.devicePrefix(0) + ".updatesLogged")
     */
    std::string clientPrefix(std::size_t i) const;
    std::string serverPrefix(std::size_t s = 0) const;
    std::string devicePrefix(std::size_t i) const;
    /** @} */

    /** Total requests completed by every driver. */
    std::uint64_t totalCompleted() const;

    /**
     * Observer of every command the server applies (after decode,
     * before execution), in application order. The fault harness's
     * invariant checker records the per-session apply sequence here to
     * assert replay ordering; an unset tap costs one branch.
     */
    using HandlerTap = std::function<void(
        std::uint16_t session, bool is_update, const apps::Command &cmd)>;

    void setHandlerTap(HandlerTap tap) { handlerTap_ = std::move(tap); }

  private:
    struct Client
    {
        stack::Host *host = nullptr;
        std::unique_ptr<stack::ClientLib> lib;
    };

    void buildTopology();
    void buildServerApp();
    void buildClients();
    void installHandler();
    void installHandlerFor(std::size_t s);
    void wireObservability();

    TestbedConfig config_;
    sim::Simulator sim_;
    std::unique_ptr<net::Topology> topo_;

    obs::MetricRegistry metrics_;
    std::unique_ptr<obs::FlightRecorder> recorder_;
    net::BasicSwitch *tor_ = nullptr;

    /**
     * One fabric shard: an independent server (own heap/store) fed by
     * its own PMNet replication chain off the shared ToR. A classic
     * single-chain testbed is exactly one ShardUnit.
     */
    struct ShardUnit
    {
        stack::Host *serverHost = nullptr;
        std::unique_ptr<pm::PmHeap> heap;
        std::unique_ptr<stack::ServerLib> serverLib;
        std::unique_ptr<apps::CommandStore> store;
        std::vector<pmnetdev::PmnetDevice *> devices; ///< head..tail
    };

    std::vector<ShardUnit> shardUnits_;
    std::unique_ptr<pmnet::ShardMap> shardMap_; ///< shards > 1 only
    apps::KvCacheCodec codec_;

    std::vector<pmnetdev::PmnetDevice *> devices_;
    std::vector<Client> clients_;
    std::vector<std::unique_ptr<ClientDriver>> drivers_;

    HandlerTap handlerTap_;

    Histogram updateLatency_;
    Histogram readLatency_;
    Histogram allLatency_;
    ThroughputMeter meter_;
    bool measuring_ = false;
    bool driversStarted_ = false;

    Rng rng_;
};

} // namespace pmnet::testbed

#endif // PMNET_TESTBED_SYSTEM_H
