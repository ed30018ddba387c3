/**
 * @file
 * Declarative fault plans for the full testbed, plus the runner that
 * executes them and checks the three PMNet safety properties
 * (DESIGN.md section 10).
 *
 * A plan is a list of timed actions — loss bursts, deterministic
 * dropNext sequences, server/device power cuts, device replacement in
 * a replication chain — injected into a running testbed::System while
 * scripted open-loop clients stream updates with known keys and
 * per-step-unique values. After the workload drains, the checker
 * asserts:
 *
 *  P1 durability: every client-acked update survives (the server's
 *     persisted watermark covers it, it was applied exactly once, and
 *     the final store content equals the last update per key);
 *  P2 ordering: the server applied each session's updates in exactly
 *     issue order, gap-free (recorded via Testbed's handler tap);
 *  P3 staleness: post-recovery reads — both the in-switch cache's
 *     Persisted entries and end-to-end bypass GETs — return exactly
 *     the committed values, never anything older.
 *
 * Everything is driven by the discrete-event simulator, so a plan
 * with a fixed seed is bit-for-bit reproducible: the determinism
 * regression test re-runs a plan and compares report text and link
 * loss/drop counters byte for byte.
 */

#ifndef PMNET_FAULT_FAULT_PLAN_H
#define PMNET_FAULT_FAULT_PLAN_H

#include <memory>

#include "fault/chain_repair.h"
#include "fault/invariants.h"
#include "testbed/system.h"

namespace pmnet::fault {

/** One timed fault injection. */
struct FaultAction
{
    enum class Kind {
        /** Raise a link's random loss rate for `duration`. */
        LossBurst,
        /** Deterministically drop the next `count` packets. */
        DropNext,
        /** Power-cut the server host; restore after `duration`. */
        ServerPowerCut,
        /** Power-cut PMNet device `index`; restore after `duration`. */
        DevicePowerCut,
        /** Permanently replace device `index` (empty log comes back). */
        DeviceReplace,
        /**
         * Sharded-fabric chain repair (requires shards > 1): cut
         * power to device `index` and mark its shard Failed; after
         * `duration`, swap the unit (replace == true; empty log) or
         * restore power, mark the shard Resilvering, and hand it to
         * the ChainRepairCoordinator, which re-silvers the log from
         * the surviving peers and returns the shard to Healthy.
         */
        ChainRepair,
        /**
         * Install `impair` on the selected link's direction(s) at
         * `at`; restore the clean channel after `duration` (an
         * impairment with duration 0 lasts to the end of the run —
         * note the post-drain audits then run over the impaired
         * channel too).
         */
        Impair,
    };

    /** Which link a LossBurst/DropNext applies to. */
    enum class Where {
        ServerLink,       ///< the server host's (only) link
        ClientLink,       ///< client `index`'s (only) link
        DeviceClientSide, ///< device `index`'s client-facing link
    };

    Kind kind = Kind::LossBurst;
    /** Injection time, relative to run start. */
    TickDelta at = 0;
    /** Outage/burst length (power cuts, loss bursts). */
    TickDelta duration = 0;
    /** LossBurst: loss probability while the burst lasts. */
    double lossRate = 0.0;
    /** DropNext: packets to drop. */
    int count = 0;
    /** DropNext: drop the server-bound direction (else client-bound). */
    bool towardServer = false;
    /** Device or client index, per Where/Kind. */
    int index = 0;
    Where where = Where::ServerLink;
    /** ChainRepair: swap the unit (empty log) vs. restore power. */
    bool replace = true;

    /** Impair: which direction(s) of the link get the channel. */
    enum class Dir {
        TowardServer, ///< the direction carrying requests upstream
        TowardClient, ///< the direction carrying acks/responses back
        Both,
    };

    /** Impair only (appended so older aggregate initializers keep
     *  their meaning): direction selector and the channel itself. */
    Dir dir = Dir::Both;
    net::Impairment impair{};
};

/** A named, ordered fault schedule. */
struct FaultPlan
{
    std::string name;
    std::vector<FaultAction> actions;
};

/** Workload and checking parameters of one fault run. */
struct FaultRunConfig
{
    /**
     * Base testbed configuration (mode, replication, cache, seed...).
     * The runner forces serverKind = CommandStore and an empty
     * pre-population; drivers are never started — the runner issues
     * its own scripted updates.
     */
    testbed::TestbedConfig testbed;

    /** Updates each client issues (seq numbers 1..updatesPerClient). */
    int updatesPerClient = 40;
    /** Keys per session; update i targets key i % keysPerSession. */
    int keysPerSession = 8;
    /** Gap between successive updates of one client. */
    TickDelta issueGap = microseconds(30);
    /** Simulated time per drain round. */
    TickDelta drainWindow = milliseconds(2);
    /** Max drain rounds before declaring a liveness violation. */
    int maxDrainRounds = 400;
    /** Issue end-to-end bypass GETs post-drain (the P3 read audit). */
    bool auditReads = true;
};

/**
 * Owns a testbed, executes one fault plan against a scripted update
 * workload, and checks the three safety properties. Construct, call
 * run() once, then inspect the report (and the testbed's stats).
 */
class FaultRunner
{
  public:
    explicit FaultRunner(FaultRunConfig config);
    ~FaultRunner();

    FaultRunner(const FaultRunner &) = delete;
    FaultRunner &operator=(const FaultRunner &) = delete;

    /** Execute @p plan to completion and return the checked report. */
    const InvariantReport &run(const FaultPlan &plan);

    /** The system under test (valid for the runner's lifetime). */
    testbed::Testbed &testbed() { return *testbed_; }

    /** The repair coordinator (valid for the runner's lifetime). */
    ChainRepairCoordinator &repairCoordinator() { return *repairCoord_; }

    const InvariantReport &report() const { return report_; }

  private:
    struct SessionTrack;

    void scheduleAction(const FaultAction &action);
    net::Link &resolveLink(const FaultAction &action);
    /** The link endpoint transmitting in the given direction. */
    net::Node &transmitEndpoint(const FaultAction &action,
                                net::Link &link, bool toward_server);
    void issueUpdates();
    void drain(const char *phase);
    std::size_t outstandingTotal() const;
    /** Owning shard of a scripted key (0 without a shard map). */
    unsigned shardOfKey(const std::string &key) const;
    void checkDurabilityAndOrder();
    void auditStore();
    void auditCache();
    void auditCacheOf(unsigned shard, std::uint64_t *persisted,
                      std::uint64_t *pending, std::uint64_t *stale);
    void auditReadsEndToEnd();
    void collectCounters();

    FaultRunConfig config_;
    std::unique_ptr<testbed::Testbed> testbed_;
    std::unique_ptr<ChainRepairCoordinator> repairCoord_;
    InvariantReport report_;
    std::vector<SessionTrack> sessions_;
    bool ran_ = false;
};

} // namespace pmnet::fault

#endif // PMNET_FAULT_FAULT_PLAN_H
