/**
 * @file
 * Adversarial link-condition scenarios (DESIGN.md section 15).
 *
 * A Scenario is one row of a declarative table: a name, a set of
 * per-link impairment specs (net::Impairment applied to chosen
 * directions of chosen testbed links), optional mid-run power-cut
 * actions, and workload knobs. Rows parse from a pipe-separated text
 * grammar:
 *
 *   name | linkspec (';' linkspec)* | extras
 *
 *   linkspec := target impairment-tokens
 *   target   := ( server | clientN | deviceN | all )[ '>' | '<' ]
 *               '>' impairs only the server-bound direction,
 *               '<' only the client-bound one, no suffix both;
 *               `all` expands to the server link and every client
 *               link when the plan is built.
 *   impairment-tokens := the net::parseImpairment grammar
 *                        (delay/jitter/dup/corrupt/reorder/rate/
 *                        loss/ge)
 *   extras   := ( crash (server|deviceN)@AT/DUR | updates N
 *               | clients N | keys N | repl N | nocache
 *               | at DURATION | for DURATION )*
 *
 * Executing a scenario builds a FaultPlan of Impair (+ power-cut)
 * actions and hands it to the existing FaultRunner, so every row is
 * swept against the P1–P3 invariant checker, and — everything being
 * driven by the links' deterministic RNGs — a row's InvariantReport
 * text is byte-identical across runs with the same seed.
 */

#ifndef PMNET_FAULT_SCENARIO_H
#define PMNET_FAULT_SCENARIO_H

#include "fault/fault_plan.h"

namespace pmnet::fault {

/** One impairment attachment: which link, which way, what channel. */
struct ScenarioLink
{
    FaultAction::Where where = FaultAction::Where::ServerLink;
    /** Client or device index, per `where`. */
    int index = 0;
    FaultAction::Dir dir = FaultAction::Dir::Both;
    net::Impairment impair;
    /** True for `all`: expands over server + client links. */
    bool allLinks = false;
};

/** One parsed scenario-table row. */
struct Scenario
{
    std::string name;
    /** The row text it parsed from (for listings and docs). */
    std::string spec;
    std::vector<ScenarioLink> links;
    /** Mid-scenario power cuts (ServerPowerCut / DevicePowerCut). */
    std::vector<FaultAction> crashes;
    /** When the impairments switch on, relative to run start. */
    TickDelta impairAt = 0;
    /**
     * How long they stay on. The default outlasts the whole scripted
     * issue phase (updates x gap + retries) but clears before the
     * post-drain audits, so reads audit the recovered system over a
     * clean channel.
     */
    TickDelta impairFor = microseconds(1500);
    int updatesPerClient = 40;
    int clients = 2;
    int keysPerSession = 8;
    unsigned replication = 1;
    bool cache = true;
};

/** Parse one table row; false + @p error on malformed input. */
bool parseScenario(const std::string &row, Scenario *out,
                   std::string *error);

/** The built-in adversarial scenario table (>= 10 rows, covering
 *  delay/jitter, reordering, duplication, corruption-rate, uniform
 *  and Gilbert–Elliott burst loss, asymmetric bandwidth, and
 *  impairment-under-crash combinations). */
const std::vector<Scenario> &builtinScenarios();

/** Find a built-in scenario by name; null when absent. */
const Scenario *findScenario(const std::string &name);

/** Execution knobs orthogonal to the scenario row itself. */
struct ScenarioRunOptions
{
    kv::KvKind kind = kv::KvKind::Hashmap;
    std::uint64_t seed = 42;
    bool auditReads = true;
};

/** The FaultRunConfig a scenario runs under (workload knobs from the
 *  row, backend/seed from @p opts). */
FaultRunConfig scenarioRunConfig(const Scenario &scenario,
                                 const ScenarioRunOptions &opts);

/** Lower a scenario to the FaultPlan the runner executes: one Impair
 *  action per (expanded) link spec plus the crash actions. */
FaultPlan scenarioPlan(const Scenario &scenario);

/** Run one scenario to completion and return the checked report. */
InvariantReport runScenario(const Scenario &scenario,
                            const ScenarioRunOptions &opts = {});

} // namespace pmnet::fault

#endif // PMNET_FAULT_SCENARIO_H
