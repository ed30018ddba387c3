/**
 * @file
 * Closed-loop (and optionally open-loop) client driver.
 *
 * Each simulated client runs one driver: it draws a transaction from
 * its workload, issues the commands synchronously in order (updates
 * via ClientLib::sendUpdate, reads and LOCK/UNLOCK via bypass), and
 * immediately begins the next transaction — the synchronous
 * programming model of paper Section II-A. Latency is recorded per
 * request once the measurement window opens; LOCK conflicts retry
 * with a backoff and are counted separately.
 *
 * The client-side-logging alternative design (Fig 17a) is driven here
 * too: the update still flows to the server, but the client proceeds
 * after its local logger's (parametric) persist delay.
 *
 * TestbedConfig::openLoopGap > 0 switches the driver to open loop:
 * one command fires every gap ticks regardless of completions, up to
 * openLoopMaxOutstanding in flight (full windows skip the tick) — the
 * shard-scaling incast regime, where load must not self-throttle to
 * the slowest shard. Open loop records latencies identically but does
 * not retry LOCK conflicts (it only counts them).
 *
 * In either loop the driver hashes each command's key once
 * (commandKeyHash) and hands the hash to ClientLib, which uses it for
 * consistent-hash shard routing; the key bytes are never rehashed
 * downstream.
 */

#ifndef PMNET_TESTBED_DRIVER_H
#define PMNET_TESTBED_DRIVER_H

#include "common/histogram.h"
#include "common/stats.h"
#include "stack/client_lib.h"
#include "testbed/config.h"

namespace pmnet::testbed {

/** Measurement sinks shared by all drivers of one testbed. */
struct DriverSinks
{
    Histogram *updateLatency = nullptr;
    Histogram *readLatency = nullptr;
    Histogram *allLatency = nullptr;
    ThroughputMeter *meter = nullptr;
    const bool *measuring = nullptr;
};

/** One closed-loop client. */
class ClientDriver
{
  public:
    ClientDriver(sim::Simulator &simulator, stack::ClientLib &lib,
                 std::unique_ptr<apps::Workload> workload, Rng rng,
                 DriverSinks sinks, const TestbedConfig &config);

    /** Begin issuing transactions after @p initial_delay. */
    void start(TickDelta initial_delay);

    /** Stop issuing new work (in-flight requests drain naturally). */
    void stop() { running_ = false; }

    std::uint64_t completedRequests() const { return completed_; }
    std::uint64_t completedTransactions() const { return txns_; }
    std::uint64_t lockConflicts() const { return lockConflicts_; }
    /** Open loop only: requests currently in flight. */
    std::size_t outstandingRequests() const { return outstanding_; }
    /** Open loop only: issue ticks skipped because the window was
     *  full (back-pressure signal for the scaling bench). */
    std::uint64_t openLoopSkipped() const { return openLoopSkipped_; }

    /**
     * The key hash ClientLib routes on: the command's key argument
     * (args[1]) hashed once with the store's canonical hashKey; 0 for
     * keyless commands. Exposed so the fault harness derives shard
     * ownership from the same bytes the client routed on.
     */
    static std::uint64_t commandKeyHash(const apps::Command &cmd);

  private:
    void nextTransaction();
    void issueCurrent();
    void recordAndAdvance(Tick issued_at, bool is_update);
    void record(Tick issued_at, bool is_update);
    void openLoopTick();
    void issueOpenLoop(const apps::Command &cmd);
    void openLoopComplete(Tick issued_at, bool is_update);

    sim::Simulator &sim_;
    stack::ClientLib &lib_;
    std::unique_ptr<apps::Workload> workload_;
    Rng rng_;
    DriverSinks sinks_;
    const TestbedConfig &config_;

    bool running_ = false;
    std::vector<apps::Command> txn_;
    std::size_t txnIndex_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t txns_ = 0;
    std::uint64_t lockConflicts_ = 0;
    TickDelta lockBackoff_ = microseconds(30);
    std::size_t outstanding_ = 0;
    std::uint64_t openLoopSkipped_ = 0;
};

} // namespace pmnet::testbed

#endif // PMNET_TESTBED_DRIVER_H
