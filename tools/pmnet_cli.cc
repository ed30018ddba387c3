/**
 * @file
 * pmnet_cli — a synchronous command-line client for pmnetd.
 *
 * Speaks the real PMNet wire protocol over UDP from the unchanged
 * stack::ClientLib (retries, duplicate suppression and early-ACK
 * completion all included). Point it at a running daemon with
 * --connect, or let it spin up an in-process daemon with --loopback
 * (the quickest way to see gateway mode work end to end):
 *
 *   pmnet_cli --loopback --set greeting=hello --get greeting
 *   pmnetd --port 9280 &  pmnet_cli --connect 9280 --bench 1000
 */

#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>

#include "pmnet/pmnet_api.h"
#include "tools/cli.h"

using namespace pmnet;

namespace {

struct Options
{
    int connectPort = 0;
    bool loopback = false;
    std::string dataDir;
    int session = 1;
    std::vector<std::pair<std::string, std::string>> sets;
    std::vector<std::string> gets;
    int benchOps = 0;
    bool json = false;
};

constexpr Tick kOpTimeout = seconds(5);

int
runCommands(gateway::GatewayClient &client, const Options &opts)
{
    int failures = 0;
    for (const auto &[key, value] : opts.sets) {
        if (client.set(key, value, kOpTimeout)) {
            std::printf("SET %s OK\n", key.c_str());
        } else {
            std::printf("SET %s TIMEOUT\n", key.c_str());
            failures++;
        }
    }
    for (const std::string &key : opts.gets) {
        auto value = client.get(key, kOpTimeout);
        if (value)
            std::printf("GET %s = %s\n", key.c_str(), value->c_str());
        else
            std::printf("GET %s (nil)\n", key.c_str());
    }
    for (int i = 0; i < opts.benchOps; i++) {
        std::string key = "bench" + std::to_string(i);
        if (!client.set(key, std::to_string(i), kOpTimeout) ||
            !client.get(key, kOpTimeout)) {
            failures++;
        }
    }
    if (opts.benchOps > 0)
        std::printf("bench: %d SET+GET pairs, %d failures\n",
                    opts.benchOps, failures);
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    cli::ArgParser parser("pmnet_cli",
                          "synchronous PMNet client over real UDP");
    parser.optionInt("--connect", "PORT",
                     "talk to a pmnetd on 127.0.0.1:PORT",
                     &opts.connectPort);
    parser.flag("--loopback",
                "spin up an in-process daemon on an ephemeral port",
                &opts.loopback);
    parser.optionString("--data-dir", "PATH",
                        "data directory for the --loopback daemon",
                        &opts.dataDir);
    parser.optionInt("--session", "N", "PMNet session id (default 1)",
                     &opts.session);
    parser.option("--set", "K=V", "set a key (repeatable)",
                  [&opts](const char *text) {
                      std::string kv(text);
                      std::size_t eq = kv.find('=');
                      if (eq == std::string::npos) {
                          std::fprintf(stderr,
                                       "pmnet_cli: --set wants K=V\n");
                          std::exit(1);
                      }
                      opts.sets.emplace_back(kv.substr(0, eq),
                                             kv.substr(eq + 1));
                  });
    parser.option("--get", "K", "read a key (repeatable)",
                  [&opts](const char *text) {
                      opts.gets.emplace_back(text);
                  });
    parser.optionInt("--bench", "N", "run N SET+GET pairs",
                     &opts.benchOps);
    parser.flag("--json",
                "loopback daemon metrics snapshot on stdout at exit",
                &opts.json);
    parser.parse(argc, argv);

    if (opts.loopback == (opts.connectPort != 0)) {
        std::fprintf(stderr,
                     "pmnet_cli: pass exactly one of --connect PORT or "
                     "--loopback\n");
        return 1;
    }

    std::unique_ptr<gateway::GatewayServer> daemon;
    std::thread daemonLoop;
    std::atomic<bool> daemonDone{false};
    std::uint16_t port = static_cast<std::uint16_t>(opts.connectPort);
    if (opts.loopback) {
        // Build the daemon on the thread that polls it (see
        // GatewayServer: its recovery packets belong to that thread).
        std::promise<std::uint16_t> bound;
        std::future<std::uint16_t> boundPort = bound.get_future();
        daemonLoop = std::thread([&, bound = std::move(bound)]() mutable {
            gateway::GatewayServer::Config config;
            config.dataDir = opts.dataDir;
            daemon =
                std::make_unique<gateway::GatewayServer>(std::move(config));
            bound.set_value(daemon->localPort());
            while (!daemonDone.load(std::memory_order_relaxed))
                daemon->runtime().pollOnce(20);
        });
        port = boundPort.get();
    }

    int rc;
    {
        gateway::GatewayClient::Config config;
        config.server = gateway::Endpoint::loopback(port);
        config.sessionId = static_cast<std::uint16_t>(opts.session);
        gateway::GatewayClient client(std::move(config));
        rc = runCommands(client, opts);
    }

    if (daemon) {
        daemonDone.store(true, std::memory_order_relaxed);
        daemonLoop.join();
        daemon->syncDurable();
        if (opts.json)
            std::fputs(daemon->snapshot()
                           .toJson(obs::JsonStyle::Pretty)
                           .c_str(),
                       stdout);
    }
    return rc;
}
