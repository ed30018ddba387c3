/**
 * @file
 * pmnet_sim — command-line front end to the testbed.
 *
 * Runs one system configuration and prints a latency/throughput
 * report plus device statistics, or — with --json — the full
 * obs::Snapshot (run parameters, RunResults with the five-way latency
 * breakdown, and every registered metric) on stdout. Every option
 * maps 1:1 onto TestbedConfig; see --help.
 *
 * Examples:
 *   pmnet_sim --mode pmnet-switch --clients 16 --workload tpcc
 *   pmnet_sim --mode client-server --workload ycsb --update-ratio 0.5
 *   pmnet_sim --mode pmnet-switch --cache --replication 3 --vma
 *   pmnet_sim --mode pmnet-switch --fail-server-at-ms 20
 *   pmnet_sim --smoke --json        # schema-validated CI snapshot
 *   pmnet_sim --scenario list       # adversarial link scenarios
 *   pmnet_sim --scenario ge-burst-loss
 *   pmnet_sim --scenario all        # the whole CI sweep, exit != 0
 *                                   # on any P1-P3 violation
 */

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "fault/scenario.h"
#include "obs/snapshot.h"
#include "testbed/system.h"
#include "tools/cli.h"

using namespace pmnet;

namespace {

struct Options
{
    testbed::SystemMode mode = testbed::SystemMode::PmnetSwitch;
    int clients = 8;
    std::string workload = "ycsb";
    std::string structure = "hashmap";
    double updateRatio = 1.0;
    std::size_t valueSize = 100;
    unsigned replication = 1;
    unsigned shards = 1;
    bool cache = false;
    bool vma = false;
    bool heartbeat = false;
    int traceEvents = 0;
    bool ideal = false;
    double warmupMs = 3;
    double measureMs = 30;
    double failServerAtMs = -1;
    double outageMs = 1;
    std::string scenario;
    cli::CommonOptions common;
};

testbed::SystemMode
parseMode(const std::string &text)
{
    if (text == "client-server")
        return testbed::SystemMode::ClientServer;
    if (text == "pmnet-switch")
        return testbed::SystemMode::PmnetSwitch;
    if (text == "pmnet-nic")
        return testbed::SystemMode::PmnetNic;
    if (text == "client-side-logging")
        return testbed::SystemMode::ClientSideLogging;
    if (text == "server-side-logging")
        return testbed::SystemMode::ServerSideLogging;
    fatal("unknown mode '%s'", text.c_str());
}

kv::KvKind
parseStructure(const std::string &text)
{
    if (text == "hashmap")
        return kv::KvKind::Hashmap;
    if (text == "btree")
        return kv::KvKind::BTree;
    if (text == "ctree")
        return kv::KvKind::CTree;
    if (text == "rbtree")
        return kv::KvKind::RBTree;
    if (text == "skiplist")
        return kv::KvKind::SkipList;
    fatal("unknown structure '%s'", text.c_str());
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    cli::ArgParser parser("pmnet_sim",
                          "PMNet in-network persistence simulator");
    std::string mode_text;
    parser.optionString("--mode", "M",
                        "client-server | pmnet-switch | pmnet-nic | "
                        "client-side-logging | server-side-logging",
                        &mode_text);
    parser.optionInt("--clients", "N",
                     "closed-loop client count (default 8)",
                     &opts.clients);
    parser.optionString("--workload", "W",
                        "ycsb | redis | twitter | tpcc (default ycsb)",
                        &opts.workload);
    parser.optionString("--structure", "S",
                        "hashmap | btree | ctree | rbtree | skiplist",
                        &opts.structure);
    parser.optionDouble("--update-ratio", "R", "0..1 (default 1.0)",
                        &opts.updateRatio);
    parser.optionSize("--value-size", "B",
                      "update payload bytes (default 100)",
                      &opts.valueSize);
    parser.optionUnsigned("--replication", "K",
                          "chained PMNet devices / ack quorum",
                          &opts.replication);
    parser.optionUnsigned("--shards", "N",
                          "consistent-hash fabric shards, one chain "
                          "each (default 1; pmnet-switch only)",
                          &opts.shards);
    parser.flag("--cache", "enable the in-switch read cache",
                &opts.cache);
    parser.flag("--vma", "libVMA-style user-space stacks", &opts.vma);
    parser.flag("--heartbeat", "device-driven failure detection",
                &opts.heartbeat);
    parser.optionInt("--trace", "N", "print the last N device events",
                     &opts.traceEvents);
    parser.flag("--ideal", "ideal request handler (no real store)",
                &opts.ideal);
    parser.optionDouble("--warmup-ms", "T", "warmup window (default 3)",
                        &opts.warmupMs);
    parser.optionDouble("--measure-ms", "T",
                        "measurement window (default 30)",
                        &opts.measureMs);
    parser.optionDouble("--fail-server-at-ms", "T",
                        "inject a server power failure",
                        &opts.failServerAtMs);
    parser.optionDouble("--outage-ms", "T",
                        "outage duration (default 1)", &opts.outageMs);
    parser.optionString("--scenario", "S",
                        "run an adversarial link-condition scenario "
                        "against the P1-P3 invariant checker: a name, "
                        "'list', 'all', or an inline "
                        "'name | linkspecs | extras' row "
                        "(DESIGN.md section 15)",
                        &opts.scenario);
    cli::addSeed(parser, opts.common);
    cli::addSmoke(parser, opts.common);
    cli::addJsonFlag(parser, opts.common);
    parser.parse(argc, argv);

    if (!mode_text.empty())
        opts.mode = parseMode(mode_text);
    if (opts.common.smoke) {
        // Same contract as the bench binaries: a seconds-scale run for
        // the CI schema gate.
        opts.clients = std::min(opts.clients, 2);
        opts.warmupMs = std::min(opts.warmupMs, 0.5);
        opts.measureMs = std::min(opts.measureMs, 2.0);
    }
    return opts;
}

benchutil::WorkloadSpec
specFor(const Options &opts)
{
    for (const auto &spec : benchutil::paperWorkloads()) {
        if (spec.name == opts.workload)
            return spec;
    }
    if (opts.workload == "ycsb") {
        benchutil::WorkloadSpec spec;
        spec.name = "ycsb";
        return spec;
    }
    fatal("unknown workload '%s'", opts.workload.c_str());
}

/** The whole run as one obs::Snapshot (the --json output). */
obs::Snapshot
makeSnapshot(const Options &opts, testbed::Testbed &bed,
             const testbed::RunResults &results)
{
    obs::Snapshot snapshot;
    snapshot.put("tool", obs::Json("pmnet_sim"));
    snapshot.put("run.mode",
                 obs::Json(testbed::systemModeName(opts.mode)));
    snapshot.put("run.clients", opts.clients);
    snapshot.put("run.workload", obs::Json(opts.workload));
    snapshot.put("run.structure", obs::Json(opts.structure));
    snapshot.put("run.update_ratio", opts.updateRatio);
    snapshot.put("run.value_size",
                 static_cast<std::uint64_t>(opts.valueSize));
    snapshot.put("run.replication", opts.replication);
    snapshot.put("run.shards", opts.shards);
    snapshot.put("run.cache", opts.cache);
    snapshot.put("run.vma", opts.vma);
    snapshot.put("run.seed", opts.common.seed);
    snapshot.put("run.warmup_ms", opts.warmupMs);
    snapshot.put("run.measure_ms", opts.measureMs);
    snapshot.put("run.smoke", opts.common.smoke);
    snapshot.put("results", results.toJson());
    snapshot.put("metrics", bed.metrics().toJson());
    return snapshot;
}

void
printTextReport(const Options &opts, testbed::Testbed &bed,
                const testbed::RunResults &results,
                const TraceRing &trace)
{
    std::printf("throughput: %.0f ops/s over %.1f ms "
                "(%zu measured requests)\n",
                results.opsPerSecond, opts.measureMs,
                results.allLatency.count());
    auto report = [](const char *label, const LatencySeries &series) {
        if (series.empty())
            return;
        std::printf("%-8s mean %7.1f us   p50 %7.1f   p90 %7.1f   "
                    "p99 %7.1f   max %7.1f\n",
                    label,
                    toMicroseconds(
                        static_cast<TickDelta>(series.mean())),
                    toMicroseconds(series.percentile(50)),
                    toMicroseconds(series.percentile(90)),
                    toMicroseconds(series.percentile(99)),
                    toMicroseconds(series.max()));
    };
    report("updates:", results.updateLatency);
    report("reads:", results.readLatency);

    if (results.breakdown.count) {
        const auto &sums = results.breakdown.sums;
        double n = static_cast<double>(results.breakdown.count);
        std::printf("breakdown (mean us over %llu traced): client "
                    "%.1f  wire %.1f  queue %.1f  persist %.1f  "
                    "server %.1f\n",
                    static_cast<unsigned long long>(
                        results.breakdown.count),
                    toMicroseconds(sums.clientStack) / n,
                    toMicroseconds(sums.wire) / n,
                    toMicroseconds(sums.queueing) / n,
                    toMicroseconds(sums.devicePersist) / n,
                    toMicroseconds(sums.server) / n);
    }

    if (results.lockConflicts)
        std::printf("lock conflicts: %llu\n",
                    static_cast<unsigned long long>(
                        results.lockConflicts));

    for (std::size_t d = 0; d < bed.deviceCount(); d++) {
        const obs::MetricRegistry &metrics = bed.metrics();
        const std::string prefix = bed.devicePrefix(d);
        std::printf("\npmnet device #%zu: seen %llu, logged %llu, "
                    "acks %llu, invalidations %llu, bypass "
                    "(coll/full/large) %llu/%llu/%llu",
                    d + 1,
                    static_cast<unsigned long long>(
                        metrics.value(prefix + ".updatesSeen")),
                    static_cast<unsigned long long>(
                        metrics.value(prefix + ".updatesLogged")),
                    static_cast<unsigned long long>(
                        metrics.value(prefix + ".acksSent")),
                    static_cast<unsigned long long>(
                        metrics.value(prefix + ".invalidations")),
                    static_cast<unsigned long long>(
                        metrics.value(prefix + ".bypassCollision")),
                    static_cast<unsigned long long>(
                        metrics.value(prefix + ".bypassQueueFull")),
                    static_cast<unsigned long long>(
                        metrics.value(prefix + ".bypassTooLarge")));
        if (opts.cache && d + 1 == bed.deviceCount()) {
            auto &cache = bed.device(d).cache();
            std::printf(", cache hits/misses %llu/%llu",
                        static_cast<unsigned long long>(cache.hits),
                        static_cast<unsigned long long>(cache.misses));
        }
        std::printf("\n  log: %llu live entries (high-water %llu of "
                    "%llu slots)\n",
                    static_cast<unsigned long long>(
                        bed.device(d).logStore().size()),
                    static_cast<unsigned long long>(
                        bed.device(d).logStore().highWater),
                    static_cast<unsigned long long>(
                        bed.device(d).logStore().capacity()));
    }

    if (opts.failServerAtMs >= 0 && bed.deviceCount() > 0)
        std::printf("\nrecovery replayed %llu logged requests\n",
                    static_cast<unsigned long long>(bed.metrics().value(
                        bed.devicePrefix(0) + ".recoveryResent")));

    if (opts.traceEvents > 0 && bed.deviceCount() > 0) {
        std::printf("\nlast %zu device #1 events (of %llu recorded):\n",
                    trace.size(),
                    static_cast<unsigned long long>(trace.recorded()));
        trace.forEach([](const TraceRing::Event &event) {
            std::printf("  [%9.3f us] %s\n",
                        toMicroseconds(event.when), event.text.c_str());
        });
    }
}

/**
 * --scenario mode: run rows of the adversarial link-condition table
 * through the fault runner and print each InvariantReport. Exits
 * non-zero if any scenario violates P1-P3 — the CI contract.
 */
int
runScenarioMode(const Options &opts)
{
    if (opts.scenario == "list") {
        for (const fault::Scenario &scenario :
             fault::builtinScenarios())
            std::printf("%-22s %s\n", scenario.name.c_str(),
                        scenario.spec.c_str());
        return 0;
    }

    fault::Scenario inline_row;
    std::vector<const fault::Scenario *> selected;
    if (opts.scenario == "all") {
        for (const fault::Scenario &scenario :
             fault::builtinScenarios())
            selected.push_back(&scenario);
    } else if (opts.scenario.find('|') != std::string::npos) {
        std::string error;
        if (!fault::parseScenario(opts.scenario, &inline_row, &error))
            fatal("%s", error.c_str());
        selected.push_back(&inline_row);
    } else {
        const fault::Scenario *scenario =
            fault::findScenario(opts.scenario);
        if (scenario == nullptr)
            fatal("unknown scenario '%s' (try --scenario list)",
                  opts.scenario.c_str());
        selected.push_back(scenario);
    }

    fault::ScenarioRunOptions run_opts;
    run_opts.kind = parseStructure(opts.structure);
    run_opts.seed = opts.common.seed;

    std::size_t violations = 0;
    for (const fault::Scenario *scenario : selected) {
        std::printf("== %s | %s\n", scenario->name.c_str(),
                    scenario->spec.c_str());
        fault::InvariantReport report =
            fault::runScenario(*scenario, run_opts);
        std::fputs(report.text().c_str(), stdout);
        violations += report.violations().size();
    }
    if (selected.size() > 1)
        std::printf("\n%zu scenario(s), %zu violation(s)\n",
                    selected.size(), violations);
    return violations == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    if (!opts.scenario.empty())
        return runScenarioMode(opts);
    benchutil::WorkloadSpec spec = specFor(opts);

    testbed::TestbedConfig config;
    config.mode = opts.mode;
    config.clientCount = opts.clients;
    config.replicationDegree = opts.replication;
    config.shards = opts.shards;
    config.cacheEnabled = opts.cache;
    config.vmaStack = opts.vma;
    config.deviceHeartbeat = opts.heartbeat;
    config.seed = opts.common.seed;
    config.tcpWorkload = spec.tcp;
    config.appOverhead = spec.appOverhead;
    config.storeKind = opts.workload == "ycsb"
                           ? parseStructure(opts.structure)
                           : spec.kind;
    config.serverKind = opts.ideal ? testbed::ServerKind::Ideal
                                   : testbed::ServerKind::CommandStore;
    config.workload = spec.factory(opts.updateRatio, opts.valueSize);
    // The interactive tool always traces: the latency breakdown is
    // half its point, and a few ns per packet is irrelevant here.
    config.observability = true;

    testbed::Testbed bed(std::move(config));

    TraceRing trace(static_cast<std::size_t>(
        opts.traceEvents > 0 ? opts.traceEvents : 1));
    if (opts.traceEvents > 0 && bed.deviceCount() > 0)
        bed.device(0).setTrace(&trace);

    if (!opts.common.json)
        std::printf("pmnet_sim: mode=%s clients=%d workload=%s "
                    "structure=%s update-ratio=%.2f repl=%u cache=%d "
                    "vma=%d seed=%llu\n\n",
                    testbed::systemModeName(opts.mode), opts.clients,
                    opts.workload.c_str(), opts.structure.c_str(),
                    opts.updateRatio, opts.replication, opts.cache,
                    opts.vma,
                    static_cast<unsigned long long>(opts.common.seed));

    if (opts.failServerAtMs >= 0) {
        sim::Simulator &sim = bed.simulator();
        sim.schedule(milliseconds(opts.failServerAtMs), [&]() {
            if (!opts.common.json)
                std::printf("[%.3f ms] injecting server power failure "
                            "(%.1f ms outage)\n",
                            toMilliseconds(bed.now()), opts.outageMs);
            bed.serverHost().powerFail();
            bed.simulator().schedule(milliseconds(opts.outageMs), [&]() {
                if (!opts.common.json)
                    std::printf("[%.3f ms] server restored, recovery "
                                "begins\n",
                                toMilliseconds(bed.now()));
                bed.serverHost().powerRestore();
            });
        });
    }

    auto results = bed.run(milliseconds(opts.warmupMs),
                           milliseconds(opts.measureMs));

    if (opts.common.json) {
        obs::Snapshot snapshot = makeSnapshot(opts, bed, results);
        std::fputs(snapshot.toJson(obs::JsonStyle::Pretty).c_str(),
                   stdout);
    } else {
        printTextReport(opts, bed, results, trace);
    }
    return 0;
}
