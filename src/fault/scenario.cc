#include "fault/scenario.h"

#include <cctype>
#include <sstream>

#include "common/logging.h"

namespace pmnet::fault {

namespace {

std::string
trim(const std::string &text)
{
    std::size_t begin = 0, end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        begin++;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        end--;
    return text.substr(begin, end - begin);
}

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); i++) {
        if (i == text.size() || text[i] == sep) {
            parts.push_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return parts;
}

bool
parseIndex(const std::string &digits, int *out)
{
    if (digits.empty())
        return false;
    for (char c : digits) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    }
    *out = std::stoi(digits);
    return true;
}

/**
 * Parse a linkspec target: server | clientN | deviceN | all with an
 * optional trailing direction suffix ('>' server-bound only, '<'
 * client-bound only).
 */
bool
parseTarget(std::string word, ScenarioLink *out)
{
    out->dir = FaultAction::Dir::Both;
    if (!word.empty() && word.back() == '>') {
        out->dir = FaultAction::Dir::TowardServer;
        word.pop_back();
    } else if (!word.empty() && word.back() == '<') {
        out->dir = FaultAction::Dir::TowardClient;
        word.pop_back();
    }
    if (word == "server") {
        out->where = FaultAction::Where::ServerLink;
        out->index = 0;
        return true;
    }
    if (word == "all") {
        out->allLinks = true;
        return true;
    }
    if (word.rfind("client", 0) == 0) {
        out->where = FaultAction::Where::ClientLink;
        return parseIndex(word.substr(6), &out->index);
    }
    if (word.rfind("device", 0) == 0) {
        out->where = FaultAction::Where::DeviceClientSide;
        return parseIndex(word.substr(6), &out->index);
    }
    return false;
}

/** Parse "server@400us/500us" / "device1@450us/300us". */
bool
parseCrash(const std::string &word, FaultAction *out)
{
    std::size_t at_pos = word.find('@');
    std::size_t slash = word.find('/', at_pos == std::string::npos
                                             ? 0
                                             : at_pos);
    if (at_pos == std::string::npos || slash == std::string::npos)
        return false;
    std::string target = word.substr(0, at_pos);
    if (target == "server") {
        out->kind = FaultAction::Kind::ServerPowerCut;
        out->index = 0;
    } else if (target.rfind("device", 0) == 0) {
        out->kind = FaultAction::Kind::DevicePowerCut;
        if (!parseIndex(target.substr(6), &out->index))
            return false;
    } else {
        return false;
    }
    return net::parseDuration(
               word.substr(at_pos + 1, slash - at_pos - 1), &out->at) &&
           net::parseDuration(word.substr(slash + 1), &out->duration);
}

/** The built-in adversarial table. Each row is one CI scenario; keep
 *  names stable — bench_diff keys fig_impairments rows by them. */
const char *const kScenarioTable[] = {
    // Control row: the clean channel, same workload.
    "clean-baseline | |",
    // Fixed extra latency plus uniform jitter on the server link.
    "delay-jitter | server delay 3us jitter 2us |",
    // Heavy jitter alone on the chain-head device link: enough to
    // reorder acks relative to each other without explicit holds.
    "jitter-storm | device0 jitter 6us |",
    // Explicit reordering window on server-bound traffic: one in four
    // packets is held 40us, so later sequence numbers overtake it.
    "reorder-window | server> reorder 25% 40us |",
    // Go-Back-N-style duplication of server-bound updates.
    "dup-updates | device0> dup 10% |",
    // Duplicate ack/response storm toward the clients.
    "dup-ack-storm | device0< dup 20% |",
    // Sustained rate-based corruption into the device: every damaged
    // packet must die on the device's CRC check (bypassBadHash).
    "corrupt-to-device | device0> corrupt 3% |",
    // Same fire aimed at the server's CRC check (hashRejected).
    "corrupt-to-server | server> corrupt 3% |",
    // Bursty Gilbert-Elliott loss: 5% entry to a bad state that drops
    // 80% and lasts ~4 packets - loss arrives in clumps, exactly what
    // uniform loss testing misses.
    "ge-burst-loss | server> ge 5% 25% 80% |",
    // The netem classic, spread over every client link and the server
    // link at once.
    "uniform-loss | all loss 3% |",
    // Asymmetric bandwidth: the return path throttled well below the
    // request path, so acks queue behind each other.
    "asym-bandwidth | server< rate 1.5 |",
    // Everything at once, on three different links.
    "nightmare-mix | server delay 2us jitter 3us dup 5% corrupt 2%; "
    "client1> reorder 10% 25us; device0> ge 1% 25% 70% |",
    // Corruption fire while the server power-cycles mid-run: recovery
    // replay itself must survive the corrupting channel.
    "corrupt-under-crash | device0> corrupt 2% | "
    "crash server@500us/400us",
    // Burst loss while the chain head power-cycles in a 2-deep
    // replication chain.
    "burst-loss-device-cut | server> ge 5% 25% 80% | repl 2 "
    "crash device0@450us/350us",
};

std::vector<Scenario>
parseBuiltins()
{
    std::vector<Scenario> table;
    for (const char *row : kScenarioTable) {
        Scenario scenario;
        std::string error;
        if (!parseScenario(row, &scenario, &error))
            fatal("builtin scenario table: %s", error.c_str());
        table.push_back(std::move(scenario));
    }
    return table;
}

} // namespace

bool
parseScenario(const std::string &row, Scenario *out, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error != nullptr)
            *error = "scenario '" + row + "': " + why;
        return false;
    };

    std::vector<std::string> fields = splitOn(row, '|');
    if (fields.size() < 2 || fields.size() > 3)
        return fail("expected 'name | linkspecs | extras'");

    Scenario scenario;
    scenario.spec = trim(row);
    scenario.name = trim(fields[0]);
    if (scenario.name.empty() ||
        scenario.name.find(' ') != std::string::npos)
        return fail("bad name");

    for (const std::string &piece : splitOn(fields[1], ';')) {
        std::string spec = trim(piece);
        if (spec.empty())
            continue;
        std::istringstream stream(spec);
        std::string target;
        stream >> target;
        ScenarioLink link;
        if (!parseTarget(target, &link))
            return fail("bad link target '" + target + "'");
        std::string tokens;
        std::getline(stream, tokens);
        std::string imp_error;
        if (!net::parseImpairment(tokens, &link.impair, &imp_error))
            return fail(imp_error);
        if (!link.impair.active())
            return fail("link target '" + target +
                        "' has no impairment tokens");
        scenario.links.push_back(std::move(link));
    }

    if (fields.size() == 3) {
        std::istringstream stream(fields[2]);
        std::string word;
        auto nextWord = [&](const char *knob) {
            if (!(stream >> word)) {
                fail(std::string(knob) + ": missing argument");
                return false;
            }
            return true;
        };
        auto nextInt = [&](const char *knob, int *slot) {
            if (!nextWord(knob))
                return false;
            if (!parseIndex(word, slot) || *slot <= 0)
                return static_cast<bool>(
                    fail(std::string(knob) + ": bad count '" + word +
                         "'"));
            return true;
        };
        while (stream >> word) {
            if (word == "crash") {
                if (!nextWord("crash"))
                    return false;
                FaultAction crash;
                if (!parseCrash(word, &crash))
                    return fail("bad crash spec '" + word + "'");
                scenario.crashes.push_back(crash);
            } else if (word == "updates") {
                if (!nextInt("updates", &scenario.updatesPerClient))
                    return false;
            } else if (word == "clients") {
                if (!nextInt("clients", &scenario.clients))
                    return false;
            } else if (word == "keys") {
                if (!nextInt("keys", &scenario.keysPerSession))
                    return false;
            } else if (word == "repl") {
                int repl = 0;
                if (!nextInt("repl", &repl))
                    return false;
                scenario.replication = static_cast<unsigned>(repl);
            } else if (word == "nocache") {
                scenario.cache = false;
            } else if (word == "at") {
                if (!nextWord("at") ||
                    !net::parseDuration(word, &scenario.impairAt))
                    return fail("at: bad duration");
            } else if (word == "for") {
                if (!nextWord("for") ||
                    !net::parseDuration(word, &scenario.impairFor))
                    return fail("for: bad duration");
            } else {
                return fail("unknown extra '" + word + "'");
            }
        }
    }

    for (const ScenarioLink &link : scenario.links) {
        if (link.where == FaultAction::Where::ClientLink &&
            link.index >= scenario.clients)
            return fail("client index out of range");
        if (link.where == FaultAction::Where::DeviceClientSide &&
            static_cast<unsigned>(link.index) >= scenario.replication)
            return fail("device index out of range");
    }

    *out = std::move(scenario);
    return true;
}

const std::vector<Scenario> &
builtinScenarios()
{
    static const std::vector<Scenario> table = parseBuiltins();
    return table;
}

const Scenario *
findScenario(const std::string &name)
{
    for (const Scenario &scenario : builtinScenarios()) {
        if (scenario.name == name)
            return &scenario;
    }
    return nullptr;
}

FaultRunConfig
scenarioRunConfig(const Scenario &scenario,
                  const ScenarioRunOptions &opts)
{
    FaultRunConfig config;
    config.testbed.mode = testbed::SystemMode::PmnetSwitch;
    config.testbed.clientCount = scenario.clients;
    config.testbed.replicationDegree = scenario.replication;
    config.testbed.cacheEnabled = scenario.cache;
    config.testbed.storeKind = opts.kind;
    config.testbed.seed = opts.seed;
    config.updatesPerClient = scenario.updatesPerClient;
    config.keysPerSession = scenario.keysPerSession;
    config.auditReads = opts.auditReads;
    // Adversarial channels can swallow the *tail* of a session's
    // stream after the PMNet-ACK already completed the client — a
    // hole the server's gap detector cannot see (it needs a later
    // packet to notice the gap). The device's stale-log re-forward
    // timer (off in the default config) closes that window, so every
    // scenario runs with it armed.
    config.testbed.device.reforwardAge = microseconds(400);
    return config;
}

FaultPlan
scenarioPlan(const Scenario &scenario)
{
    FaultPlan plan;
    plan.name = scenario.name;
    auto push = [&](const ScenarioLink &link,
                    FaultAction::Where where, int index) {
        FaultAction action;
        action.kind = FaultAction::Kind::Impair;
        action.at = scenario.impairAt;
        action.duration = scenario.impairFor;
        action.where = where;
        action.index = index;
        action.dir = link.dir;
        action.impair = link.impair;
        plan.actions.push_back(action);
    };
    for (const ScenarioLink &link : scenario.links) {
        if (link.allLinks) {
            push(link, FaultAction::Where::ServerLink, 0);
            for (int c = 0; c < scenario.clients; c++)
                push(link, FaultAction::Where::ClientLink, c);
        } else {
            push(link, link.where, link.index);
        }
    }
    for (const FaultAction &crash : scenario.crashes)
        plan.actions.push_back(crash);
    return plan;
}

InvariantReport
runScenario(const Scenario &scenario, const ScenarioRunOptions &opts)
{
    FaultRunner runner(scenarioRunConfig(scenario, opts));
    return runner.run(scenarioPlan(scenario));
}

} // namespace pmnet::fault
