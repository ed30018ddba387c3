/**
 * @file
 * Simulator workloads: sim_ycsb_cached (steady state with the read
 * cache) and sim_recovery (log replay after a server power cut).
 *
 * Host time is measured around the benchmark's own calls into
 * testbed::Testbed. Exact counts and modeled figures come from fixed
 * windows of *simulated* time, so they repeat exactly for one seed no
 * matter how fast the host runs; host-time figures come from the
 * whole measured phase, cut into fixed simulated slices, and report
 * the rate of the 5th-percentile slice (see Slices in bench.h).
 */

#include <functional>
#include <memory>
#include <unordered_map>

#include "apps/kv_protocol.h"
#include "apps/workloads.h"
#include "bench.h"
#include "host.h"
#include "testbed/system.h"
#include "tracer.h"

namespace perfbench {

namespace {

using namespace pmnet;
using testbed::Testbed;
using testbed::TestbedConfig;

/** Cache warm-up: windows until the hit ratio stops rising. */
constexpr TickDelta kWarmupWindow = milliseconds(5);
constexpr int kWarmupMinWindows = 4;
constexpr int kWarmupMaxWindows = 40;
constexpr double kWarmupFlatRise = 0.002;

/** Simulated window that the exact counts and modeled figures cover. */
constexpr TickDelta kModelWindow = milliseconds(50);
/** One measured slice of simulated time (~3 ms of host time). */
constexpr TickDelta kSlice = milliseconds(2);

/** sim_recovery: device-log entries at the power cut. */
constexpr std::uint64_t kRecoveryLogTarget = 27000;
constexpr int kRecoveryMinCycles = 2;

/** Correctness probes and server power cycles after the measurement. */
constexpr int kProbes = 2000;
constexpr int kRestartCycles = 15;
/** Commands kept from the handler tap for the exec replay. */
constexpr std::size_t kTapCap = 50000;

constexpr std::size_t kValueSize = 100;

TestbedConfig
ycsbCachedConfig(std::uint64_t seed, bool observability)
{
    TestbedConfig config;
    config.mode = testbed::SystemMode::PmnetSwitch;
    config.clientCount = 8;
    config.cacheEnabled = true;
    config.seed = seed;
    config.observability = observability;
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 20000;
        ycsb.updateRatio = 0.5;
        ycsb.valueSize = kValueSize;
        ycsb.zipfTheta = 0.99;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    return config;
}

/** fig_recovery's scenario: a slow server lets the log fill up. */
TestbedConfig
recoveryConfig(std::uint64_t seed, bool observability)
{
    TestbedConfig config;
    config.mode = testbed::SystemMode::PmnetSwitch;
    config.clientCount = 32;
    config.server.workers = 2;
    config.server.dispatchLatency = microseconds(40);
    config.seed = seed;
    config.observability = observability;
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 200000;
        ycsb.updateRatio = 1.0;
        return apps::makeYcsbWorkload(ycsb, session);
    };
    return config;
}

/** Exact counters of one single-chain testbed. */
struct SimCounts
{
    std::uint64_t events = 0;
    std::uint64_t completed = 0;
    std::uint64_t packets = 0;
    std::uint64_t packetAllocs = 0;
    std::uint64_t logInserts = 0;
    std::uint64_t bypass = 0;
    std::uint64_t reforwarded = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t retransAsks = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t resent = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t writeLines = 0;
    std::uint64_t flushLines = 0;
    std::uint64_t fences = 0;
    std::uint64_t recoveryResent = 0;

    static SimCounts
    read(Testbed &bed)
    {
        const obs::MetricRegistry &m = bed.metrics();
        SimCounts c;
        c.events = bed.simulator().eventsExecuted();
        c.completed = bed.totalCompleted();
        c.packetAllocs = m.value("packetPool.allocated");
        c.packets = c.packetAllocs + m.value("packetPool.reused");
        const std::string dev = bed.devicePrefix(0);
        c.logInserts = m.value(dev + ".updatesLogged");
        c.bypass = m.value(dev + ".bypassCollision") +
                   m.value(dev + ".bypassQueueFull") +
                   m.value(dev + ".bypassStoreRace") +
                   m.value(dev + ".bypassTooLarge") +
                   m.value(dev + ".bypassBadHash");
        c.reforwarded = m.value(dev + ".reforwarded");
        // Cache and log occupancy are registry probes, which value()
        // does not read; take them from the device itself.
        c.cacheHits = bed.device(0).cache().hits;
        c.cacheMisses = bed.device(0).cache().misses;
        c.recoveryResent = m.value(dev + ".recoveryResent");
        c.retransAsks = m.value("server.retransRequested");
        c.duplicates = m.value("server.duplicatesDropped");
        for (std::size_t i = 0; i < bed.clientCount(); i++) {
            const std::string client = bed.clientPrefix(i);
            c.timeouts += m.value(client + ".timeouts");
            c.resent += m.value(client + ".packetsResent");
        }
        const pm::PmOpCounts &pm = bed.serverHeap().counts();
        c.writeLines = pm.writeLines;
        c.flushLines = pm.flushLines;
        c.fences = pm.fences;
        return c;
    }

    SimCounts
    operator-(const SimCounts &o) const
    {
        SimCounts d;
        d.events = events - o.events;
        d.completed = completed - o.completed;
        d.packets = packets - o.packets;
        d.packetAllocs = packetAllocs - o.packetAllocs;
        d.logInserts = logInserts - o.logInserts;
        d.bypass = bypass - o.bypass;
        d.reforwarded = reforwarded - o.reforwarded;
        d.cacheHits = cacheHits - o.cacheHits;
        d.cacheMisses = cacheMisses - o.cacheMisses;
        d.retransAsks = retransAsks - o.retransAsks;
        d.timeouts = timeouts - o.timeouts;
        d.resent = resent - o.resent;
        d.duplicates = duplicates - o.duplicates;
        d.writeLines = writeLines - o.writeLines;
        d.flushLines = flushLines - o.flushLines;
        d.fences = fences - o.fences;
        d.recoveryResent = recoveryResent - o.recoveryResent;
        return d;
    }
};

/** The per-layer metrics read from one exact-count window. */
void
reportCounts(Report &report, const SimCounts &d, std::uint64_t ops,
             std::uint64_t log_high_water)
{
    report.set("sim.events_per_op", perOp(d.events, ops), "count");
    report.set("net.packets_per_op", perOp(d.packets, ops), "count");
    report.set("net.packet_allocs_per_op", perOp(d.packetAllocs, ops),
               "count");
    std::uint64_t lookups = d.cacheHits + d.cacheMisses;
    report.set("pmnet.cache_hit_ratio", perOp(d.cacheHits, lookups),
               "ratio");
    report.set("pmnet.log_inserts_per_op", perOp(d.logInserts, ops),
               "count");
    report.set("pmnet.bypass_per_op", perOp(d.bypass, ops), "count");
    report.set("pmnet.reforwarded_per_op", perOp(d.reforwarded, ops),
               "count");
    report.set("pmnet.log_high_water", static_cast<double>(log_high_water),
               "count");
    report.set("pm.write_lines_per_op", perOp(d.writeLines, ops), "count");
    report.set("pm.flush_lines_per_op", perOp(d.flushLines, ops), "count");
    report.set("pm.fences_per_op", perOp(d.fences, ops), "count");
    report.set("stack.retrans_asks_per_op", perOp(d.retransAsks, ops),
               "count");
    report.set("stack.client_timeouts", static_cast<double>(d.timeouts),
               "count");
    report.set("stack.packets_resent", static_cast<double>(d.resent),
               "count");
    report.set("stack.duplicates_dropped", static_cast<double>(d.duplicates),
               "count");
}

/** Modeled figures of one fixed window (simulated time, exact). */
void
reportModel(Report &report, const testbed::RunResults &results)
{
    report.set("testbed.model_ops_per_s", results.opsPerSecond, "req/sim_s");
    double p50 = results.allLatency.empty()
                     ? 0.0
                     : static_cast<double>(
                           results.allLatency.percentile(50)) /
                           1000.0;
    double p99 = results.allLatency.empty()
                     ? 0.0
                     : static_cast<double>(
                           results.allLatency.percentile(99)) /
                           1000.0;
    report.set("testbed.model_p50_us", p50, "sim_us");
    report.set("testbed.model_p99_us", p99, "sim_us");
    const obs::FlightRecorder::Accum &acc = results.breakdown;
    auto mean_us = [&acc](TickDelta sum) {
        return acc.count == 0 ? 0.0
                              : static_cast<double>(sum) / 1000.0 /
                                    static_cast<double>(acc.count);
    };
    report.set("obs.breakdown_client_stack_us",
               mean_us(acc.sums.clientStack), "sim_us");
    report.set("obs.breakdown_wire_us", mean_us(acc.sums.wire), "sim_us");
    report.set("obs.breakdown_queueing_us", mean_us(acc.sums.queueing),
               "sim_us");
    report.set("obs.breakdown_device_persist_us",
               mean_us(acc.sums.devicePersist), "sim_us");
    report.set("obs.breakdown_server_us", mean_us(acc.sums.server),
               "sim_us");
}

/** Gateway-only per-layer metrics: no socket daemon runs here. */
void
gatewayNotApplicable(Report &report)
{
    report.notApplicable({
        {"gateway.daemon_cpu_us_per_op", "us"},
        {"gateway.client_cpu_us_per_op", "us"},
        {"gateway.sys_frac", "ratio"},
        {"gateway.daemon_busy_frac", "ratio"},
        {"gateway.wakeups_per_op", "count"},
        {"gateway.timer_fires_per_op", "count"},
        {"gateway.events_per_op", "count"},
        {"gateway.ctx_switches_per_op", "count"},
        {"gateway.datagrams_per_op", "count"},
        {"gateway.bytes_per_op", "B"},
        {"gateway.file_writes_per_set", "count"},
        {"gateway.file_bytes_per_set", "B"},
        {"gateway.journal_bytes_per_set", "B"},
        {"gateway.journal_replay_s", "s"},
        {"gateway.set_p50_us", "us"},
        {"gateway.get_p50_us", "us"},
        {"gateway.set_p99_us", "us"},
        {"gateway.get_p99_us", "us"},
        {"gateway.set_p999_us", "us"},
        {"gateway.get_p999_us", "us"},
        {"gateway.set_samples", "count"},
        {"gateway.get_samples", "count"},
    });
}

std::string
probeValue(int index)
{
    std::string value = "probe" + std::to_string(index) + ":";
    value.append(kValueSize - value.size(), 'x');
    return value;
}

/** Drives single requests through client 0 of a drained testbed. */
class Prober
{
  public:
    explicit Prober(Testbed &bed) : bed_(bed) {}

    /** SET @p key = @p value and run until acked. */
    bool
    set(const std::string &key, const std::string &value)
    {
        apps::Command cmd{{"SET", key, value}};
        return roundTrip([&](std::function<void()> done) {
            bed_.clientLib(0).sendUpdate(
                apps::encodeCommand(cmd),
                testbed::ClientDriver::commandKeyHash(cmd),
                [done] { done(); });
        });
    }

    /** GET @p key; nullopt when no reply came. */
    std::optional<apps::Response>
    get(const std::string &key)
    {
        apps::Command cmd{{"GET", key}};
        std::optional<apps::Response> out;
        roundTrip([&](std::function<void()> done) {
            bed_.clientLib(0).bypass(
                apps::encodeCommand(cmd),
                testbed::ClientDriver::commandKeyHash(cmd),
                [&out, done](const Bytes &wire) {
                    out = apps::decodeResponse(wire);
                    done();
                });
        });
        return out;
    }

  private:
    /** Send, then run the simulator until the reply (or 100 ms). */
    bool
    roundTrip(const std::function<void(std::function<void()>)> &send)
    {
        sim::Simulator &sim = bed_.simulator();
        bool done = false;
        send([&done, &sim] {
            done = true;
            sim.stop();
        });
        sim.run(sim.now() + milliseconds(100));
        return done;
    }

    Testbed &bed_;
};

/** Stop every client and run until nothing is in flight. */
bool
drainClients(Testbed &bed)
{
    for (std::size_t c = 0; c < bed.clientCount(); c++)
        bed.driver(c).stop();
    for (int step = 0; step < 500; step++) {
        bool idle = true;
        for (std::size_t c = 0; c < bed.clientCount(); c++)
            idle = idle && bed.clientLib(c).outstanding() == 0;
        if (idle)
            return true;
        bed.runFor(milliseconds(1));
    }
    return false;
}

/**
 * After the measured phase: SET/GET probes (each GET must read the
 * value just acked), server power cycles (restart_s: powerFail,
 * powerRestore and the run until the server answers a GET), then a
 * read-back of every probe key across those cycles (P1 in the sim).
 */
void
probeAndRestart(Testbed &bed, const Options &opts, Report &report,
                Tracer &tracer, std::uint64_t key_count)
{
    Prober prober(bed);
    Rng rng(opts.seed ^ 0x70726f6265ull);
    std::unordered_map<std::string, std::string> expect;
    for (int i = 0; i < kProbes; i++) {
        std::string key = "user" + std::to_string(rng.nextUInt(key_count));
        std::string value = probeValue(i);
        report.attempted += 2;
        if (!prober.set(key, value)) {
            report.fail("probe SET " + key + " never acked");
            continue;
        }
        expect[key] = value;
        std::optional<apps::Response> reply = prober.get(key);
        if (!reply || reply->status != apps::RespStatus::Ok ||
            reply->value != value)
            report.fail("probe GET " + key + " did not read its SET");
    }

    std::vector<double> restart;
    std::vector<double> power_fail;
    std::vector<double> power_restore;
    for (int cycle = 0; cycle < kRestartCycles; cycle++) {
        bed.runFor(microseconds(200)); // let server applies and acks land
        std::int64_t t0 = wallNs();
        {
            Span span(tracer, "pm.power_fail");
            bed.serverHost().powerFail();
        }
        std::int64_t t1 = wallNs();
        {
            Span span(tracer, "stack.power_restore");
            bed.serverHost().powerRestore();
        }
        std::int64_t t2 = wallNs();
        std::optional<apps::Response> reply =
            prober.get("restart-probe" + std::to_string(cycle));
        std::int64_t t3 = wallNs();
        report.attempted++;
        if (!reply || reply->status != apps::RespStatus::Nil) {
            report.fail("server did not serve after power restore");
            continue;
        }
        restart.push_back(static_cast<double>(t3 - t0) / 1e9);
        power_fail.push_back(static_cast<double>(t1 - t0) / 1e9);
        power_restore.push_back(static_cast<double>(t2 - t1) / 1e9);
    }
    report.set("restart_s", median(restart), "s");
    report.set("pm.power_fail_s", median(power_fail), "s");
    report.set("stack.power_restore_s", median(power_restore), "s");

    for (const auto &[key, value] : expect) {
        report.attempted++;
        std::optional<apps::Response> reply = prober.get(key);
        if (!reply || reply->status != apps::RespStatus::Ok ||
            reply->value != value)
            report.fail("acked probe SET " + key + " lost across power cycle");
    }
}

/** replayLayers on the testbed's heap size, store and populate. */
void
replayTestbedLayers(const TestbedConfig &config, const Options &opts,
                    const CommandTap &tap, Report &report, Tracer &tracer)
{
    replayLayers(
        opts, config.heapBytes, config.storeKind,
        [&](apps::CommandStore &store) {
            Rng rng(opts.seed);
            config.workload(0)->populate(store, rng);
        },
        tap, report, tracer);
}

/** Time metrics().toJson() on a live testbed (obs.snapshot_s). */
void
timeSnapshot(Testbed &bed, Report &report, Tracer &tracer)
{
    std::int64_t t0 = wallNs();
    std::size_t bytes = 0;
    {
        Span span(tracer, "obs.snapshot");
        bytes = bed.metrics().toJson().dump().size();
    }
    report.set("obs.snapshot_s", static_cast<double>(wallNs() - t0) / 1e9,
               "s");
    report.context("snapshot_bytes", static_cast<double>(bytes));
}

void
pinSimThread(Report &report)
{
    std::vector<int> cpus = allowedCpus();
    if (!cpus.empty() && pinThisThread(cpus.back()))
        report.context("pinned_cpus", std::to_string(cpus.back()));
    else
        report.context("pinned_cpus", "none");
}

void
reportRss(Report &report)
{
    report.set("peak_rss_mb",
               static_cast<double>(processUsage().maxRssKb) / 1024.0, "MB");
}

// ------------------------------------------------------ sim_ycsb_cached

void
runYcsbCached(const Options &opts, Report &report)
{
    Tracer tracer(opts.trace, "sim");
    pinSimThread(report);
    TestbedConfig config = ycsbCachedConfig(opts.seed, opts.trace);

    // Set up several times; each builds, preloads and warms the cache
    // until its hit ratio stops rising. The last one is measured.
    std::unique_ptr<Testbed> bed;
    std::vector<double> setup_s;
    std::vector<double> build_s;
    int warm_windows = 0;
    for (int s = 0; s < kSetups; s++) {
        bed.reset();
        std::int64_t t0 = wallNs();
        {
            Span span(tracer, "testbed.build");
            bed = std::make_unique<Testbed>(config);
        }
        build_s.push_back(static_cast<double>(wallNs() - t0) / 1e9);
        Span warm(tracer, "sim.warmup");
        bed->startDrivers();
        double last_ratio = 0.0;
        std::uint64_t hits0 = 0;
        std::uint64_t misses0 = 0;
        for (warm_windows = 1; warm_windows <= kWarmupMaxWindows;
             warm_windows++) {
            bed->runFor(kWarmupWindow);
            std::uint64_t hits = bed->device(0).cache().hits;
            std::uint64_t misses = bed->device(0).cache().misses;
            double ratio = perOp(hits - hits0, hits - hits0 + misses - misses0);
            hits0 = hits;
            misses0 = misses;
            if (warm_windows >= kWarmupMinWindows &&
                ratio - last_ratio < kWarmupFlatRise)
                break;
            last_ratio = ratio;
        }
        setup_s.push_back(static_cast<double>(wallNs() - t0) / 1e9);
    }
    report.set("setup_s", median(setup_s), "s");
    report.set("testbed.build_s", median(build_s), "s");
    report.context("warmup_windows", static_cast<double>(warm_windows));

    CommandTap tap;
    if (opts.trace) {
        bed->setHandlerTap([&tap](std::uint16_t session, bool,
                                  const apps::Command &cmd) {
            if (tap.size() < kTapCap)
                tap.emplace_back(session, cmd);
        });
    }

    // Measured phase: fixed simulated slices until the host has spent
    // --seconds in them. The first kModelWindow of simulated time is
    // also the exact-count and modeled-figure window.
    Slices slices;
    SimCounts window0 = SimCounts::read(*bed);
    SimCounts model_counts;
    testbed::RunResults model;
    bool model_done = false;
    Tick model_end = bed->now() + kModelWindow;
    std::uint64_t events0 = window0.events;
    bed->beginMeasurement();
    while (!model_done || slices.wallNs < opts.seconds * 1e9) {
        std::uint64_t done0 = bed->totalCompleted();
        std::int64_t cpu0 = processCpuNs();
        std::int64_t wall0 = wallNs();
        {
            Span span(tracer, "sim.slice");
            bed->runFor(kSlice);
        }
        std::int64_t wall = wallNs() - wall0;
        slices.add(bed->totalCompleted() - done0, wall,
                   processCpuNs() - cpu0);
        if (!model_done && bed->now() >= model_end) {
            model = bed->endMeasurement();
            model_counts = SimCounts::read(*bed) - window0;
            model_done = true;
            bed->setHandlerTap(nullptr);
        }
    }
    std::uint64_t events = bed->simulator().eventsExecuted() - events0;

    report.set("ops_per_s", slices.sustainedOpsPerSecond(), "1/s");
    report.set("cpu_us_per_op", slices.sustainedCpuUsPerOp(), "us");
    report.set("sim.ns_per_event",
               perOp(static_cast<std::uint64_t>(slices.wallNs), events), "ns");
    report.attempted += slices.ops;
    reportCounts(report, model_counts, model_counts.completed,
                 bed->device(0).logStore().highWater);
    reportModel(report, model);
    report.set("testbed.model_replay_ms", 0.0, "sim_ms");
    slices.describe(report);

    // Correctness: the closed loop drains with zero client timeouts.
    bool drained = drainClients(*bed);
    SimCounts end = SimCounts::read(*bed);
    if (!drained)
        report.fail("clients did not drain");
    for (std::uint64_t t = 0; t < end.timeouts; t++)
        report.fail("client timeout during the run");
    reportRss(report);
    timeSnapshot(*bed, report, tracer);
    probeAndRestart(*bed, opts, report, tracer, 20000);

    bed.reset();
    replayTestbedLayers(config, opts, tap, report, tracer);
    gatewayNotApplicable(report);
    writeTrace(opts, {&tracer}, report);
}

// --------------------------------------------------------- sim_recovery

/** What one replay cycle ends with; identical across cycles of a seed. */
struct Stragglers
{
    std::uint64_t resent = 0;
    std::uint64_t remaining = 0;
    Tick replayTicks = 0;
    std::uint64_t applied = 0;

    bool operator==(const Stragglers &) const = default;
};

void
runRecovery(const Options &opts, Report &report)
{
    Tracer tracer(opts.trace, "sim");
    pinSimThread(report);
    TestbedConfig config = recoveryConfig(opts.seed, opts.trace);

    std::vector<double> setup_s;
    std::vector<double> build_s;
    std::int64_t measured_wall = 0;
    std::uint64_t measured_events = 0;
    // Every cycle replays the same log, so the slowest one is the
    // replay under the host's contended state (see Slices).
    std::int64_t slowest_wall = 0;
    std::int64_t slowest_cpu = 0;
    std::uint64_t replayed = 0;
    std::optional<Stragglers> first;
    std::unique_ptr<Testbed> bed;
    CommandTap tap;

    for (int cycle = 0;
         cycle < kRecoveryMinCycles || measured_wall < opts.seconds * 1e9;
         cycle++) {
        bed.reset();
        std::int64_t t0 = wallNs();
        {
            Span span(tracer, "testbed.build");
            bed = std::make_unique<Testbed>(config);
        }
        build_s.push_back(static_cast<double>(wallNs() - t0) / 1e9);
        pmnetdev::PmnetDevice &device = bed->device(0);
        testbed::RunResults model;
        {
            Span span(tracer, "sim.fill");
            bed->startDrivers();
            bed->beginMeasurement();
            while (device.logStore().size() < kRecoveryLogTarget &&
                   bed->now() < milliseconds(200))
                bed->runFor(milliseconds(1));
            model = bed->endMeasurement();
            for (std::size_t c = 0; c < bed->clientCount(); c++)
                bed->driver(c).stop();
        }
        std::uint64_t log_at_cut = device.logStore().size();
        std::uint64_t high_water = device.logStore().highWater;
        {
            Span span(tracer, "pm.power_fail");
            bed->serverHost().powerFail();
        }
        bed->runFor(milliseconds(1));
        {
            Span span(tracer, "stack.power_restore");
            bed->serverHost().powerRestore();
        }
        setup_s.push_back(static_cast<double>(wallNs() - t0) / 1e9);

        if (opts.trace && cycle == 0) {
            bed->setHandlerTap([&tap](std::uint16_t session, bool,
                                      const apps::Command &cmd) {
                if (tap.size() < kTapCap)
                    tap.emplace_back(session, cmd);
            });
        }

        // Measured phase: replay until the log drains. A handful of
        // entries can linger past the bulk replay (client-timeout
        // stragglers), so stop once the drain stalls for 50 ms, as
        // fig_recovery does.
        SimCounts c0 = SimCounts::read(*bed);
        Tick restore_at = bed->now();
        std::int64_t wall0 = wallNs();
        std::int64_t cpu0 = processCpuNs();
        std::uint64_t last_size = device.logStore().size();
        Tick last_change = bed->now();
        Tick drained_at = bed->now();
        {
            Span span(tracer, "sim.drain");
            while (bed->now() < restore_at + seconds(10.0)) {
                bed->runFor(milliseconds(1));
                std::uint64_t size = device.logStore().size();
                if (size != last_size) {
                    last_size = size;
                    last_change = bed->now();
                    drained_at = bed->now();
                }
                if (size == 0 || bed->now() - last_change > milliseconds(50))
                    break;
            }
        }
        std::int64_t wall = wallNs() - wall0;
        std::int64_t cpu = processCpuNs() - cpu0;
        bed->setHandlerTap(nullptr);
        SimCounts d = SimCounts::read(*bed) - c0;
        Stragglers result{d.recoveryResent, device.logStore().size(),
                          drained_at - restore_at,
                          bed->metrics().value("server.updatesApplied")};
        measured_wall += wall;
        measured_events += d.events;
        if (wall > slowest_wall) {
            slowest_wall = wall;
            slowest_cpu = cpu;
        }
        replayed = d.recoveryResent;
        report.attempted += d.recoveryResent;
        if (!first) {
            first = result;
            reportCounts(report, d, d.recoveryResent, high_water);
            reportModel(report, model);
            report.set("testbed.model_replay_ms",
                       static_cast<double>(result.replayTicks) / 1e6,
                       "sim_ms");
            report.context("log_at_cut", static_cast<double>(log_at_cut));
            report.context("stragglers", static_cast<double>(result.remaining));
        } else if (!(result == *first)) {
            report.fail("replay cycle " + std::to_string(cycle) +
                        " drained to different stragglers");
        }
        report.context("replay_cycles", static_cast<double>(cycle + 1));
    }

    report.set("setup_s", median(setup_s), "s");
    report.set("testbed.build_s", median(build_s), "s");
    report.set("ops_per_s",
               slowest_wall > 0 ? static_cast<double>(replayed) * 1e9 /
                                      static_cast<double>(slowest_wall)
                                : 0.0,
               "1/s");
    report.set("cpu_us_per_op",
               perOp(static_cast<std::uint64_t>(slowest_cpu), replayed) /
                   1000.0,
               "us");
    report.set("sim.ns_per_event",
               perOp(static_cast<std::uint64_t>(measured_wall), measured_events),
               "ns");

    if (!drainClients(*bed))
        report.fail("clients did not drain after replay");
    reportRss(report);
    timeSnapshot(*bed, report, tracer);
    probeAndRestart(*bed, opts, report, tracer, 200000);

    bed.reset();
    replayTestbedLayers(config, opts, tap, report, tracer);
    gatewayNotApplicable(report);
    writeTrace(opts, {&tracer}, report);
}

} // namespace

bool
runSimWorkload(const Options &opts, Report &report)
{
    if (opts.workload == "sim_ycsb_cached")
        runYcsbCached(opts, report);
    else if (opts.workload == "sim_recovery")
        runRecovery(opts, report);
    else
        return false;
    return true;
}

} // namespace perfbench
