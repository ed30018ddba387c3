/**
 * @file
 * Section VI-B6 reproduction: recovering from server failures.
 *
 * Method (as in the paper): saturate the system so the in-network log
 * holds the maximum number of outstanding update requests, cut the
 * server's power, restore it, and measure the log replay driven by
 * the RecoveryPoll.
 *
 * Paper measurements: 67 us to resend a single request, 4.4 s to
 * resend all pending requests, 9.3 s worst-case total recovery —
 * small against the server's 2-3 minute boot time. Our log occupancy
 * depends on how far the server lags at failure time; the
 * per-request figure and the linear extrapolation are the
 * reproduction targets.
 *
 * The Retrans and bypass counters explain what the replay costs
 * beyond the resends themselves (EXPERIMENTS.md, "Ordered log
 * replay"). `--smoke` fills the log for 3 ms instead of 60 ms.
 */

#include "bench_util.h"

using namespace pmnet;
using namespace pmnet::benchutil;

int
main(int argc, char **argv)
{
    BenchJson json("fig_recovery", argc, argv);
    printHeader("Recovery: server power failure + log replay",
                "Section VI-B6",
                "~67us per resent request; seconds for a full log; "
                "negligible next to a 2-3 minute server boot");

    TickDelta fill = json.smoke() ? milliseconds(3) : milliseconds(60);

    testbed::TestbedConfig config;
    config.mode = testbed::SystemMode::PmnetSwitch;
    config.clientCount = 32;
    // A deliberately slow server lets the log fill up: clients keep
    // completing on PMNet-ACKs while server commits lag behind.
    config.server.workers = 2;
    config.server.dispatchLatency = microseconds(40);
    config.workload = [](std::uint16_t session) {
        apps::YcsbConfig ycsb;
        ycsb.keyCount = 200000; // wide key space, few log collisions
        ycsb.updateRatio = 1.0;
        return apps::makeYcsbWorkload(ycsb, session);
    };

    testbed::Testbed bed(std::move(config));
    auto &sim = bed.simulator();
    bed.startDrivers();
    sim.run(sim.now() + fill);

    std::uint64_t logged_at_failure = bed.device(0).logStore().size();
    std::printf("log occupancy at failure: %llu entries "
                "(high-water %llu)\n",
                static_cast<unsigned long long>(logged_at_failure),
                static_cast<unsigned long long>(
                    bed.device(0).logStore().highWater));

    // Stop offering new load and cut the server's power.
    for (std::size_t c = 0; c < bed.clientCount(); c++)
        bed.driver(c).stop();
    bed.serverHost().powerFail();
    sim.run(sim.now() + milliseconds(1));

    Tick restore_at = sim.now();
    bed.serverHost().powerRestore();

    // Run until the log drains (every replayed request committed and
    // server-ACKed). Stop early if the drain stalls for 50 ms: entries
    // still left then are reported as remaining.
    Tick deadline = restore_at + seconds(10.0);
    std::uint64_t last_size = bed.device(0).logStore().size();
    Tick last_change = sim.now();
    Tick drained_at = sim.now();
    while (sim.now() < deadline) {
        sim.run(sim.now() + milliseconds(1));
        std::uint64_t size = bed.device(0).logStore().size();
        if (size != last_size) {
            last_size = size;
            last_change = sim.now();
            drained_at = sim.now();
        }
        if (size == 0 || sim.now() - last_change > milliseconds(50))
            break;
    }

    const obs::MetricRegistry &metrics = bed.metrics();
    const std::string device = bed.devicePrefix(0);
    std::uint64_t resent = metrics.value(device + ".recoveryResent");
    std::uint64_t remaining = bed.device(0).logStore().size();
    double replay_time = static_cast<double>(drained_at - restore_at);
    double per_request =
        resent > 0 ? replay_time / static_cast<double>(resent) : 0.0;
    std::uint64_t timeouts = 0;
    for (std::size_t c = 0; c < bed.clientCount(); c++)
        timeouts += metrics.value(bed.clientPrefix(c) + ".timeouts");
    // Counters over the whole run: fill, outage and replay.
    const std::vector<std::pair<std::string, std::string>> counters = {
        {"server.retransRequested", "Retrans asks by the server"},
        {device + ".retransServed", "  served from the device log"},
        {device + ".retransForwarded", "  forwarded to the client"},
        {device + ".bypassCollision", "log bypasses on a slot collision"},
        {"server.duplicatesDropped", "duplicates dropped by the server"},
    };

    TablePrinter table({"metric", "measured", "paper"});
    table.addRow({"requests replayed", std::to_string(resent), "-"});
    table.addRow({"total replay+commit time",
                  TablePrinter::fmt(replay_time / 1e6, 2) + " ms",
                  "4.4 s (full 65k-entry log)"});
    if (resent > 0) {
        table.addRow({"time per resent request",
                      TablePrinter::fmt(us(per_request), 1) + " us",
                      "67 us"});
        table.addRow({"extrapolated to 65k entries",
                      TablePrinter::fmt(per_request * 65000 / 1e9, 2) +
                          " s",
                      "4.4 s"});
    }
    table.addRow({"remaining log entries", std::to_string(remaining), "0"});
    for (const auto &[name, label] : counters)
        table.addRow({label, std::to_string(metrics.value(name)), "-"});
    table.addRow({"client timeouts", std::to_string(timeouts), "-"});
    table.print();

    json.beginRow();
    json.field("log_at_failure", logged_at_failure);
    json.field("requests_replayed", resent);
    json.field("replay_ms", replay_time / 1e6);
    json.field("us_per_request", us(per_request));
    json.field("remaining", remaining);
    for (const auto &[name, label] : counters)
        json.field(name, metrics.value(name));
    json.field("client_timeouts", timeouts);

    std::printf("\ncontext: paper's worst-case end-to-end recovery is "
                "9.3 s vs a 2-3 minute server boot.\n");
    return 0;
}
