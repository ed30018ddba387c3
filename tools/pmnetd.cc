/**
 * @file
 * pmnetd — the PMNet gateway daemon (DESIGN.md §17).
 *
 * Serves the PMNet protocol on a real UDP socket: the unchanged
 * device + server state machines run inside a GatewayServer whose
 * epoll loop maps wall time onto sim ticks. With --data-dir the
 * daemon is durable across SIGKILL (heap.img, mapped as the server
 * pool's durable image, + the device log journal); restarted on the
 * same directory it replays acked-but-unapplied updates before
 * serving (P1).
 *
 * SIGTERM/SIGINT stop the loop cleanly and, with --metrics-out, dump
 * the wall-clock metrics snapshot. --smoke runs a self-contained
 * loopback workload (an in-process GatewayClient against the bound
 * socket) and exits — the CI gateway job and the metrics-schema gate
 * both drive this mode.
 */

#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <thread>

#include <sys/signalfd.h>
#include <unistd.h>

#include "pmnet/pmnet_api.h"
#include "tools/cli.h"

using namespace pmnet;

namespace {

struct Options
{
    int port = 0;
    std::string dataDir;
    std::string metricsOut;
    bool syncEveryFence = false;
    bool smoke = false;
    bool json = false;
    int smokeOps = 64;
};

void
dumpSnapshot(const gateway::GatewayServer &server, const Options &opts)
{
    obs::Snapshot snapshot = server.snapshot();
    if (!opts.metricsOut.empty() &&
        !snapshot.writeFile(opts.metricsOut))
        std::fprintf(stderr, "pmnetd: cannot write %s\n",
                     opts.metricsOut.c_str());
    if (opts.json)
        std::fputs(snapshot.toJson(obs::JsonStyle::Pretty).c_str(),
                   stdout);
}

/**
 * --smoke: drive the daemon from an in-process loopback client. The
 * daemon keeps polling on the thread that built it (see
 * GatewayServer); the client runs on its own thread.
 */
int
runSmoke(gateway::GatewayServer &server, const Options &opts)
{
    std::atomic<bool> done{false};
    int failures = 0;
    std::thread clientLoop([&] {
        gateway::GatewayClient::Config client_config;
        client_config.server =
            gateway::Endpoint::loopback(server.localPort());
        gateway::GatewayClient client(client_config);

        const Tick op_timeout = seconds(5);
        for (int i = 0; i < opts.smokeOps; i++) {
            std::string key = "k" + std::to_string(i);
            std::string value = "v" + std::to_string(i);
            if (!client.set(key, value, op_timeout)) {
                std::fprintf(stderr, "pmnetd: smoke SET %s timed out\n",
                             key.c_str());
                failures++;
                continue;
            }
            auto got = client.get(key, op_timeout);
            if (!got || *got != value) {
                std::fprintf(stderr, "pmnetd: smoke GET %s mismatch\n",
                             key.c_str());
                failures++;
            }
        }
        done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire))
        server.runtime().pollOnce(20);
    clientLoop.join();

    dumpSnapshot(server, opts);
    if (failures > 0) {
        std::fprintf(stderr, "pmnetd: smoke failed (%d ops)\n", failures);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    cli::ArgParser parser(
        "pmnetd", "PMNet gateway daemon (real-socket UDP mode)");
    parser.optionInt("--port", "N",
                     "UDP port to bind (0 = ephemeral)", &opts.port);
    parser.optionString("--data-dir", "PATH",
                        "directory for heap.img + log.journal "
                        "(durable mode)",
                        &opts.dataDir);
    parser.optionString("--metrics-out", "PATH",
                        "write the metrics snapshot here on shutdown",
                        &opts.metricsOut);
    parser.flag("--sync-every-fence",
                "fdatasync the heap image at every fence",
                &opts.syncEveryFence);
    parser.optionInt("--smoke-ops", "N",
                     "operations for the --smoke workload",
                     &opts.smokeOps);
    parser.flag("--smoke",
                "serve a built-in loopback workload, then exit",
                &opts.smoke);
    parser.flag("--json", "machine-readable snapshot on stdout",
                &opts.json);
    parser.parse(argc, argv);

    gateway::GatewayServer::Config config;
    config.port = static_cast<std::uint16_t>(opts.port);
    config.dataDir = opts.dataDir;
    config.syncEveryFence = opts.syncEveryFence;
    gateway::GatewayServer server(std::move(config));

    std::fprintf(stderr, "pmnetd: listening on 127.0.0.1:%u%s%s\n",
                 server.localPort(),
                 opts.dataDir.empty() ? "" : ", data dir ",
                 opts.dataDir.c_str());
    if (server.recovered())
        std::fprintf(stderr,
                     "pmnetd: recovered prior state (%zu log entries "
                     "replayed)\n",
                     server.replayedLogEntries());

    if (opts.smoke)
        return runSmoke(server, opts);

    // Clean shutdown on SIGTERM/SIGINT via signalfd — the signal is
    // just another readable fd in the same epoll loop.
    sigset_t mask;
    sigemptyset(&mask);
    sigaddset(&mask, SIGTERM);
    sigaddset(&mask, SIGINT);
    sigprocmask(SIG_BLOCK, &mask, nullptr);
    int sig_fd = signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC);
    if (sig_fd < 0) {
        std::fprintf(stderr, "pmnetd: signalfd failed\n");
        return 1;
    }
    bool stop = false;
    server.runtime().addFd(sig_fd, [&] {
        signalfd_siginfo info;
        while (read(sig_fd, &info, sizeof(info)) > 0)
            ;
        stop = true;
        server.runtime().stop();
    });

    server.runtime().runUntil([&stop] { return stop; });

    server.syncDurable();
    dumpSnapshot(server, opts);
    std::fprintf(stderr, "pmnetd: shut down cleanly\n");
    close(sig_fd);
    return 0;
}
