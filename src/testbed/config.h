/**
 * @file
 * Testbed configuration: every calibration constant of the reproduced
 * system lives here (paper Table II and Section V-A).
 *
 * Calibration story (see DESIGN.md §5): the constants are chosen so
 * the ideal-handler microbenchmark lands near the paper's Fig 18
 * measurements at 100 B payloads —
 *
 *   PMNet RTT          ~ 21.5 us  (client stacks + wire + persist)
 *   Client-Server RTT  ~ 60 us    (+ server stacks + dispatch)
 *
 * from which the relative results of Figs 15/16/19/20/21/22 follow.
 * Only ratios/shapes are reproduction targets, not absolute numbers.
 */

#ifndef PMNET_TESTBED_CONFIG_H
#define PMNET_TESTBED_CONFIG_H

#include <functional>
#include <memory>

#include "apps/workloads.h"
#include "common/stats.h"
#include "kv/kv_store.h"
#include "net/link.h"
#include "pmnet/device.h"
#include "stack/client_lib.h"
#include "stack/server_lib.h"
#include "stack/stack_model.h"

namespace pmnet::testbed {

/** Which system design the testbed assembles (Sections VI-A4, VI-B2). */
enum class SystemMode {
    ClientServer,      ///< baseline: clients - ToR switch - server
    PmnetSwitch,       ///< PMNet as the server rack's ToR switch
    PmnetNic,          ///< PMNet as bump-in-the-wire server NIC
    ClientSideLogging, ///< alternative design, Fig 17a (parametric)
    ServerSideLogging, ///< alternative design, Fig 17b
};

const char *systemModeName(SystemMode mode);

/** What the server runs. */
enum class ServerKind {
    Ideal,        ///< ideal request handler (Section VI-B1)
    CommandStore, ///< real persistent KV/Redis store
};

/** Pipeline latency of the plain (non-PMNet) ToR switch. */
inline constexpr TickDelta kPlainSwitchLatency = nanoseconds(500);

/** @name Parametric pieces of the alternative designs (Fig 18)
 * The client-side logger's local IPC+log delay, and the extra
 * replication delays. Derived from the same calibrated constants.
 *  @{
 */
inline constexpr TickDelta kClientLocalLogDelay = microseconds(10.4);
inline constexpr TickDelta kClientLogReplicationDelay = microseconds(41.6);
inline constexpr TickDelta kServerLogReplicationDelay = microseconds(46.0);
/** @} */

/** Factory producing each client's workload (by session id). */
using WorkloadFactory =
    std::function<std::unique_ptr<apps::Workload>(std::uint16_t)>;

/** Full system configuration. */
struct TestbedConfig
{
    SystemMode mode = SystemMode::PmnetSwitch;
    int clientCount = 1;

    /** Chained PMNet devices (Section IV-C replication); 1 = plain. */
    unsigned replicationDegree = 1;

    /**
     * PMNet fabric shards (DESIGN.md §14). 1 keeps the historical
     * single-chain topology byte-identical. With N > 1, the testbed
     * builds N independent replication chains — each with its own
     * server, heap and store — hanging off the shared ToR, and a
     * consistent-hash ShardMap routes every request by its key hash.
     * Requires PmnetSwitch mode and ServerKind::CommandStore (the
     * routing is keyed; ideal handlers have no keys).
     */
    unsigned shards = 1;

    /**
     * Open-loop clients: instead of issuing the next command when the
     * previous completes, each driver fires one command every
     * openLoopGap, up to
     * openLoopMaxOutstanding in flight — the 1024-client shard
     * scaling regime. 0 keeps the closed-loop driver.
     */
    TickDelta openLoopGap = 0;

    /** In-flight cap per open-loop client (issue ticks skip when full). */
    std::size_t openLoopMaxOutstanding = 64;

    /** Enable the in-switch read cache (on the device next to the
     *  server). */
    bool cacheEnabled = false;

    /** libVMA-style user-space stacks on every host (Sec VI-B7). */
    bool vmaStack = false;

    /**
     * Use device-driven heartbeat failure detection (Fig 3) instead
     * of server-initiated RecoveryPolls: devices probe the server,
     * declare it down after missed acks, and replay their logs
     * autonomously when it answers again.
     */
    bool deviceHeartbeat = false;

    /**
     * The workload is natively TCP (Redis/Twitter/TPCC): baselines
     * run the original TCP stack, PMNet modes run the UDP-converted
     * protocol with the 9% conversion overhead (Section VI-A3).
     */
    bool tcpWorkload = false;

    /**
     * Server-side replication delay added to every update commit in
     * the baseline replication comparison (Fig 21); 0 disables.
     */
    TickDelta serverReplicationCommitDelay = 0;

    ServerKind serverKind = ServerKind::CommandStore;
    kv::KvKind storeKind = kv::KvKind::Hashmap;

    /** Ideal request handler cost (Section VI-B1 microbenchmark). */
    TickDelta idealHandlerCost = microseconds(1.5);

    /**
     * Fixed application overhead per CommandStore request beyond the
     * PM work (protocol parsing/event loop of a full server like
     * Redis); the PMDK micro-workloads use 0.
     */
    TickDelta appOverhead = 0;

    /** Per-client workload; defaults to update-only 100 B YCSB. */
    WorkloadFactory workload;

    /** Server PM pool size. */
    std::uint64_t heapBytes = 256ull << 20;

    /** Master seed; every client derives its own stream. */
    std::uint64_t seed = 42;

    /** @name Observability (DESIGN.md section 11)
     * Metric registration is always on (it only attaches pointers to
     * the counters the components bump anyway). observability
     * additionally arms the per-request flight recorder: every
     * component on the request path stamps pipeline checkpoints, and
     * RunResults carries the five-way latency breakdown. Off by
     * default so measurement runs stay byte-identical to pre-obs
     * builds.
     */
    bool observability = false;

    // ------------------------------------------------ substrate knobs

    net::LinkConfig link;           ///< 10 Gbps, 300 ns per hop
    pmnetdev::DeviceConfig device;  ///< 273 ns PM, 4 KB queues
    stack::ServerConfig server;     ///< 20 workers, 12 us dispatch
    stack::ClientConfig clientDefaults; ///< timeout, MTU

    /** True when this mode routes PMNet traffic through a device. */
    bool
    pmnetMode() const
    {
        return mode == SystemMode::PmnetSwitch ||
               mode == SystemMode::PmnetNic;
    }

    /** Stack cost multiplier for TCP-to-UDP conversion on PMNet modes. */
    double
    effectiveStackScale() const
    {
        return tcpWorkload && pmnetMode() ? 1.09 : 1.0; // Section VI-A3
    }

    /** Client/server stack profiles (derived from vmaStack etc.). */
    stack::StackProfile
    clientProfile() const
    {
        stack::StackProfile p;
        if (vmaStack)
            p = stack::StackProfile::vmaClient();
        else if (tcpWorkload && !pmnetMode())
            p = stack::StackProfile::tcpClient();
        else
            p = stack::StackProfile::kernelClient();
        return p.scaled(effectiveStackScale());
    }

    stack::StackProfile
    serverProfile() const
    {
        stack::StackProfile p;
        if (vmaStack)
            p = stack::StackProfile::vmaServer();
        else if (tcpWorkload && !pmnetMode())
            p = stack::StackProfile::tcpServer();
        else
            p = stack::StackProfile::kernelServer();
        return p.scaled(effectiveStackScale());
    }

    /** Effective dispatch latency (smaller under VMA, larger TCP). */
    TickDelta
    dispatchLatency() const
    {
        if (vmaStack)
            return microseconds(8.0);
        if (tcpWorkload && !pmnetMode())
            return microseconds(20.0);
        return server.dispatchLatency;
    }
};

} // namespace pmnet::testbed

#endif // PMNET_TESTBED_CONFIG_H
