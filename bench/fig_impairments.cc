/**
 * @file
 * Adversarial link-condition matrix (DESIGN.md section 15).
 *
 * Runs the built-in fault::Scenario table — delay/jitter, reordering
 * windows, duplication, rate-based corruption, uniform and
 * Gilbert–Elliott burst loss, asymmetric bandwidth, and
 * impairment-under-crash combinations — through the fault runner and
 * reports, per scenario, the invariant verdict next to what the
 * channel actually did to the traffic (losses, corruptions,
 * duplicates, reorders) and what the protocol paid to survive it
 * (duplicates dropped, retrans requests, device re-forwards).
 *
 * Everything is simulated-deterministic: rows are keyed by scenario
 * name (bench_diff matches on it) and the smoke grid is pinned as a
 * golden.
 */

#include "bench_util.h"
#include "fault/scenario.h"

using namespace pmnet;
using namespace pmnet::benchutil;

int
main(int argc, char **argv)
{
    BenchJson json("fig_impairments", argc, argv);
    printHeader("Adversarial link conditions: scenario matrix",
                "P1-P3 invariant sweep under impaired channels "
                "(DESIGN.md section 15)",
                "every row must end clean: acked updates stay durable "
                "and ordered, served reads stay fresh, whatever the "
                "channel drops, damages, duplicates or delays");

    TablePrinter table({"scenario", "verdict", "acked", "lost",
                        "corrupt", "dup", "reorder", "retrans",
                        "reforward"});

    // The smoke grid pins one scenario per impairment class; the full
    // run sweeps the whole table.
    std::vector<std::string> selected;
    if (json.smoke())
        selected = {"clean-baseline", "delay-jitter", "reorder-window",
                    "dup-updates", "corrupt-to-server",
                    "ge-burst-loss"};
    else
        for (const fault::Scenario &scenario :
             fault::builtinScenarios())
            selected.push_back(scenario.name);

    int violations = 0;
    for (const std::string &name : selected) {
        const fault::Scenario *scenario = fault::findScenario(name);
        if (scenario == nullptr)
            continue;
        fault::InvariantReport report = fault::runScenario(*scenario);
        violations += static_cast<int>(report.violations().size());

        auto count = [&](const char *counter) {
            return report.counter(counter);
        };
        table.addRow({name, report.clean() ? "clean" : "VIOLATED",
                      std::to_string(count("acked-total")),
                      std::to_string(count("link-losses")),
                      std::to_string(count("link-corruptions")),
                      std::to_string(count("link-duplicates")),
                      std::to_string(count("link-reorders")),
                      std::to_string(count("device-retrans-served")),
                      std::to_string(count("device-reforwarded"))});
        json.beginRow();
        json.field("scenario", name);
        json.field("clean",
                   static_cast<std::uint64_t>(report.clean() ? 1 : 0));
        json.field("acked", count("acked-total"));
        json.field("lost", count("link-losses"));
        json.field("corrupt", count("link-corruptions"));
        json.field("dup", count("link-duplicates"));
        json.field("reorder", count("link-reorders"));
        json.field("retrans", count("device-retrans-served"));
        json.field("reforward", count("device-reforwarded"));
    }
    table.print();
    return violations == 0 ? 0 : 1;
}
