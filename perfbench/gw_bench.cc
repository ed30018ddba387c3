/**
 * @file
 * Gateway workloads: gw_sync (one request outstanding) and
 * gw_pipelined (four outstanding), both from one GatewayClient session
 * to an in-process pmnetd — a GatewayServer looping pollOnce on its
 * own pinned thread, as pmnetd does — over loopback UDP.
 *
 * Traffic is closed loop: 50 % SET / 50 % GET, 100 B values, zipf 0.99
 * over 10,000 preloaded keys. Every value names its key and a version;
 * a GET must return a version between the last one acked when it was
 * sent and the last one sent when it completed. After the measured
 * phase the daemon is dropped without syncDurable() and restarted on
 * its data directory; every key must read back its last acked value
 * (P1 across a process kill). restart_s restarts on copies of a
 * set-up's data directory instead, which holds the same fixed work in
 * every run, so it does not grow with the measured phase's throughput.
 */

#include <fcntl.h>
#include <malloc.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "apps/command_store.h"
#include "apps/kv_protocol.h"
#include "bench.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "gateway/client.h"
#include "gateway/journal.h"
#include "gateway/server.h"
#include "host.h"
#include "tracer.h"

namespace perfbench {

namespace {

using namespace pmnet;
namespace fs = std::filesystem;
using gateway::GatewayClient;
using gateway::GatewayServer;

constexpr std::uint64_t kKeys = 10000;
constexpr std::size_t kValueSize = 100;
constexpr double kSliceSeconds = 0.05;
/** Requests each set-up sends after its preload (about 0.3 s). */
constexpr std::uint64_t kWarmupOps = 7000;
constexpr Tick kOpTimeout = seconds(5);
constexpr int kRestarts = 15;
constexpr std::size_t kTapCap = 50000;
/** The traffic's GatewayClient session. */
constexpr std::uint16_t kSession = 1;
/** Daemon poll cap, as pmnetd's smoke loop and pmnet_cli use. */
constexpr int kPollMs = 20;

std::string
keyName(std::uint64_t key)
{
    return "user" + std::to_string(key);
}

std::string
valueFor(std::uint64_t key, std::uint64_t version)
{
    std::string value =
        "k" + std::to_string(key) + ":v" + std::to_string(version) + ":";
    value.append(kValueSize - value.size(), 'x');
    return value;
}

/** Parse valueFor's format. @return false if it is not one. */
bool
parseValue(const std::string &value, std::uint64_t &key,
           std::uint64_t &version)
{
    unsigned long long k = 0;
    unsigned long long v = 0;
    if (value.size() != kValueSize ||
        std::sscanf(value.c_str(), "k%llu:v%llu:", &k, &v) != 2)
        return false;
    key = k;
    version = v;
    return value == valueFor(k, v);
}

/** Histogram percentile in microseconds (0 when empty). */
double
percentileUs(const Histogram &hist, double p)
{
    return hist.empty() ? 0.0
                        : static_cast<double>(hist.percentile(p)) / 1000.0;
}

/** Counters the daemon thread reads off its own objects. */
struct DaemonCounts
{
    double wakeups = 0;
    double timerFires = 0;
    double events = 0;
    double datagrams = 0;
    double bytes = 0;
    double logInserts = 0;
    double bypass = 0;
    double reforwarded = 0;
    double cacheHits = 0;
    double cacheMisses = 0;
    double retransAsks = 0;
    double duplicates = 0;
    double packets = 0;
    double packetAllocs = 0;
    double highWater = 0;
    double threadCpuNs = 0;

    DaemonCounts
    operator-(const DaemonCounts &o) const
    {
        DaemonCounts d = *this;
        d.wakeups -= o.wakeups;
        d.timerFires -= o.timerFires;
        d.events -= o.events;
        d.datagrams -= o.datagrams;
        d.bytes -= o.bytes;
        d.logInserts -= o.logInserts;
        d.bypass -= o.bypass;
        d.reforwarded -= o.reforwarded;
        d.cacheHits -= o.cacheHits;
        d.cacheMisses -= o.cacheMisses;
        d.retransAsks -= o.retransAsks;
        d.duplicates -= o.duplicates;
        d.packets -= o.packets;
        d.packetAllocs -= o.packetAllocs;
        d.threadCpuNs -= o.threadCpuNs;
        return d; // highWater stays absolute
    }
};

/**
 * A GatewayServer on its own pinned thread. Its counters are read on
 * that thread at phase boundaries: counts() posts a request through an
 * eventfd the loop watches and waits for the snapshot.
 */
class Daemon
{
  public:
    Daemon(GatewayServer::Config config, int cpu, bool trace)
        : server_(std::make_unique<GatewayServer>(std::move(config))),
          tracer_(trace, "daemon"), wakeFd_(eventfd(0, EFD_NONBLOCK)),
          cpu_(cpu)
    {
        server_->runtime().addFd(wakeFd_, [this] {
            std::uint64_t ignored = 0;
            ssize_t n = ::read(wakeFd_, &ignored, sizeof(ignored));
            (void)n;
        });
        thread_ = std::thread([this] { loop(); });
    }

    /** Stops the loop and drops the server without syncDurable(), as
     *  a SIGKILL would: only what heap.img and log.journal hold
     *  survives. */
    ~Daemon()
    {
        stop();
        server_.reset();
        ::close(wakeFd_);
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    std::uint16_t port() const { return server_->localPort(); }
    GatewayServer &server() { return *server_; }
    Tracer &tracer() { return tracer_; }

    DaemonCounts
    counts()
    {
        std::uint64_t ticket = ++requested_;
        request_.store(ticket, std::memory_order_release);
        std::uint64_t one = 1;
        ssize_t n = ::write(wakeFd_, &one, sizeof(one));
        (void)n;
        while (served_.load(std::memory_order_acquire) != ticket)
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        return snapshot_;
    }

    /** Join the loop thread; the server stays queryable. */
    void
    stop()
    {
        if (!thread_.joinable())
            return;
        done_.store(true, std::memory_order_relaxed);
        std::uint64_t one = 1;
        ssize_t n = ::write(wakeFd_, &one, sizeof(one));
        (void)n;
        thread_.join();
    }

  private:
    void
    loop()
    {
        if (cpu_ >= 0)
            pinThisThread(cpu_);
        net::PacketPool::local().registerMetrics(poolMetrics_, "pool");
        while (!done_.load(std::memory_order_relaxed)) {
            std::uint64_t want = request_.load(std::memory_order_acquire);
            if (want != served_.load(std::memory_order_relaxed)) {
                snapshot_ = read();
                served_.store(want, std::memory_order_release);
            }
            if (tracer_.enabled()) {
                std::int64_t cpu0 = threadCpuNs();
                std::uint64_t id = tracer_.begin("gw.daemon_poll");
                server_->runtime().pollOnce(kPollMs);
                tracer_.end(id, threadCpuNs() - cpu0);
            } else {
                server_->runtime().pollOnce(kPollMs);
            }
        }
    }

    DaemonCounts
    read()
    {
        const obs::MetricRegistry &m = server_->metrics();
        DaemonCounts c;
        auto v = [&m](const char *path) {
            return static_cast<double>(m.value(path));
        };
        c.wakeups = v("gateway.loop.wakeups");
        c.timerFires = v("gateway.loop.timerFires");
        c.events = v("gateway.loop.eventsFired");
        // The transport counters are registry probes too, which only
        // the JSON rendering evaluates.
        obs::Json tree = m.toJson();
        auto probe = [&tree](const char *name) {
            const obs::Json *node = tree.find("gateway");
            node = node ? node->find("transport") : nullptr;
            node = node ? node->find(name) : nullptr;
            return node ? std::strtod(node->dump().c_str(), nullptr) : 0.0;
        };
        c.datagrams = probe("datagramsSent") + probe("datagramsReceived");
        c.bytes = probe("bytesSent") + probe("bytesReceived");
        c.logInserts = v("device.updatesLogged");
        c.bypass = v("device.bypassCollision") + v("device.bypassQueueFull") +
                   v("device.bypassStoreRace") + v("device.bypassTooLarge") +
                   v("device.bypassBadHash");
        c.reforwarded = v("device.reforwarded");
        // Cache and log occupancy are registry probes, which value()
        // does not read; take them from the device itself.
        pmnetdev::PmnetDevice &device = server_->device();
        c.cacheHits = static_cast<double>(device.cache().hits);
        c.cacheMisses = static_cast<double>(device.cache().misses);
        c.highWater = static_cast<double>(device.logStore().highWater);
        c.retransAsks = v("server.retransRequested");
        c.duplicates = v("server.duplicatesDropped");
        c.packetAllocs =
            static_cast<double>(poolMetrics_.value("pool.allocated"));
        c.packets = c.packetAllocs +
                    static_cast<double>(poolMetrics_.value("pool.reused"));
        c.threadCpuNs = static_cast<double>(threadCpuNs());
        return c;
    }

    std::unique_ptr<GatewayServer> server_;
    Tracer tracer_;
    obs::MetricRegistry poolMetrics_;
    int wakeFd_;
    int cpu_;
    std::atomic<bool> done_{false};
    std::uint64_t requested_ = 0;
    std::atomic<std::uint64_t> request_{0};
    std::atomic<std::uint64_t> served_{0};
    DaemonCounts snapshot_;
    /** Declared last: the loop uses every member above. */
    std::thread thread_;
};

/** Client-side counters of one session (read on the client thread). */
struct ClientCounts
{
    double events = 0;
    double timeouts = 0;
    double resent = 0;
    double packets = 0;
    double packetAllocs = 0;
    double threadCpuNs = 0;
};

/** The closed-loop traffic of one GatewayClient session. */
class Traffic
{
  public:
    Traffic(GatewayClient &client, std::uint64_t seed, int window,
            Report &report, Tracer &tracer)
        : client_(client), window_(window), report_(report),
          tracer_(tracer), rng_(seed), zipf_(kKeys, 0.99),
          sentVersion_(kKeys, 0), ackedVersion_(kKeys, 0)
    {
        client_.lib().registerMetrics(metrics_, "client");
        net::PacketPool::local().registerMetrics(metrics_, "pool");
    }

    /** Synchronous SET of every key at version 0. */
    void
    preload()
    {
        Span span(tracer_, "gateway.preload");
        for (std::uint64_t k = 0; k < kKeys; k++) {
            report_.attempted++;
            if (!client_.set(keyName(k), valueFor(k, 0), kOpTimeout))
                report_.fail("preload SET " + keyName(k) + " timed out");
        }
    }

    /** Keep window_ requests in flight for @p seconds of wall time. */
    void
    runFor(double run_seconds)
    {
        std::int64_t until =
            wallNs() + static_cast<std::int64_t>(run_seconds * 1e9);
        while (wallNs() < until)
            pump(UINT64_MAX);
    }

    /**
     * Send exactly @p ops more requests, window_ at a time, and wait
     * for all of them. @return false if some are still in flight.
     */
    bool
    runOps(std::uint64_t ops)
    {
        std::uint64_t limit = sent_ + ops;
        while (sent_ < limit)
            pump(limit);
        return drain();
    }

    /** Measure @p seconds in kSliceSeconds slices. */
    Slices
    measure(double run_seconds)
    {
        Slices slices;
        recording_ = true;
        while (slices.wallNs < run_seconds * 1e9) {
            std::uint64_t ops0 = completed();
            std::int64_t wall0 = wallNs();
            std::int64_t cpu0 = processCpuNs();
            runFor(kSliceSeconds);
            slices.add(completed() - ops0, wallNs() - wall0,
                       processCpuNs() - cpu0);
        }
        recording_ = false;
        return slices;
    }

    bool
    drain()
    {
        return client_.drainOutstanding(kOpTimeout);
    }

    ClientCounts
    counts()
    {
        ClientCounts c;
        c.events = static_cast<double>(client_.runtime().eventsFired.get());
        c.timeouts = static_cast<double>(metrics_.value("client.timeouts"));
        c.resent = static_cast<double>(metrics_.value("client.packetsResent"));
        c.packetAllocs = static_cast<double>(metrics_.value("pool.allocated"));
        c.packets = c.packetAllocs +
                    static_cast<double>(metrics_.value("pool.reused"));
        c.threadCpuNs = static_cast<double>(threadCpuNs());
        return c;
    }

    std::uint64_t completed() const { return completedSets_ + completedGets_; }
    std::uint64_t completedSets() const { return completedSets_; }
    const Histogram &setNs() const { return setNs_; }
    const Histogram &getNs() const { return getNs_; }
    const std::vector<std::uint64_t> &ackedVersions() const
    {
        return ackedVersion_;
    }
    const CommandTap &tap() const { return tap_; }

  private:
    /** Fill the window, sending no request past number @p limit; poll. */
    void
    pump(std::uint64_t limit)
    {
        while (inflight_ < window_ && sent_ < limit)
            sendNext();
        std::uint64_t id = tracer_.begin("gw.client_poll");
        client_.runtime().pollOnce(kPollMs);
        tracer_.end(id);
    }

    void
    sendNext()
    {
        std::uint64_t key = zipf_.next(rng_);
        bool is_set = rng_.nextBool(0.5);
        std::uint64_t request = ++sent_;
        std::int64_t start = wallNs();
        inflight_++;
        if (is_set) {
            std::uint64_t version = ++sentVersion_[key];
            apps::Command cmd{{"SET", keyName(key), valueFor(key, version)}};
            capture(cmd);
            client_.lib().sendUpdate(
                apps::encodeCommand(cmd), [this, key, version, start,
                                           request] {
                    std::int64_t end = wallNs();
                    ackedVersion_[key] = std::max(ackedVersion_[key], version);
                    completedSets_++;
                    inflight_--;
                    if (recording_)
                        setNs_.add(end - start);
                    tracer_.async("gw.request_set", start, end, request);
                });
        } else {
            std::uint64_t floor = ackedVersion_[key];
            apps::Command cmd{{"GET", keyName(key)}};
            capture(cmd);
            client_.lib().bypass(
                apps::encodeCommand(cmd),
                [this, key, floor, start, request](const Bytes &wire) {
                    std::int64_t end = wallNs();
                    completedGets_++;
                    inflight_--;
                    if (recording_)
                        getNs_.add(end - start);
                    tracer_.async("gw.request_get", start, end, request);
                    checkGet(key, floor, wire);
                });
        }
        report_.attempted++;
    }

    void
    checkGet(std::uint64_t key, std::uint64_t floor, const Bytes &wire)
    {
        std::optional<apps::Response> reply = apps::decodeResponse(wire);
        std::uint64_t k = 0;
        std::uint64_t version = 0;
        if (!reply || reply->status != apps::RespStatus::Ok ||
            !parseValue(reply->value, k, version) || k != key ||
            version < floor || version > sentVersion_[key])
            report_.fail("GET " + keyName(key) + " returned a wrong value");
    }

    void
    capture(const apps::Command &cmd)
    {
        if (recording_ && tracer_.enabled() && tap_.size() < kTapCap)
            tap_.emplace_back(kSession, cmd);
    }

    GatewayClient &client_;
    int window_;
    Report &report_;
    Tracer &tracer_;
    obs::MetricRegistry metrics_;
    Rng rng_;
    ZipfianGenerator zipf_;
    std::vector<std::uint64_t> sentVersion_;
    std::vector<std::uint64_t> ackedVersion_;
    int inflight_ = 0;
    std::uint64_t sent_ = 0;
    std::uint64_t completedSets_ = 0;
    std::uint64_t completedGets_ = 0;
    bool recording_ = false;
    Histogram setNs_;
    Histogram getNs_;
    CommandTap tap_;
};

GatewayServer::Config
daemonConfig(const std::string &data_dir)
{
    GatewayServer::Config config;
    config.dataDir = data_dir;
    return config;
}

std::unique_ptr<GatewayClient>
makeClient(std::uint16_t port, std::uint16_t session)
{
    GatewayClient::Config config;
    config.server = gateway::Endpoint::loopback(port);
    config.sessionId = session;
    return std::make_unique<GatewayClient>(std::move(config));
}

std::uintmax_t
fileSize(const std::string &path)
{
    std::error_code ec;
    std::uintmax_t size = fs::file_size(path, ec);
    return ec ? 0 : size;
}

void
copyDir(const std::string &from, const std::string &to)
{
    fs::remove_all(to);
    fs::copy(from, to, fs::copy_options::recursive);
}

/**
 * Write back every dirty page of the filesystem holding @p dir. The
 * restart's journal compaction fdatasyncs, and on a journaling
 * filesystem that commit can also flush dirty pages left by the
 * benchmark's copies or by the previous restart.
 */
void
flushFilesystem(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return;
    ::syncfs(fd);
    ::close(fd);
}

/** Simulator-only per-layer metrics: the gateway has no testbed. */
void
simNotApplicable(Report &report)
{
    report.notApplicable({
        {"pm.write_lines_per_op", "count"},
        {"pm.flush_lines_per_op", "count"},
        {"pm.fences_per_op", "count"},
        {"pm.power_fail_s", "s"},
        {"stack.power_restore_s", "s"},
        {"testbed.build_s", "s"},
        {"testbed.model_ops_per_s", "req/sim_s"},
        {"testbed.model_p50_us", "sim_us"},
        {"testbed.model_p99_us", "sim_us"},
        {"testbed.model_replay_ms", "sim_ms"},
        {"obs.breakdown_client_stack_us", "sim_us"},
        {"obs.breakdown_wire_us", "sim_us"},
        {"obs.breakdown_queueing_us", "sim_us"},
        {"obs.breakdown_device_persist_us", "sim_us"},
        {"obs.breakdown_server_us", "sim_us"},
    });
}

void
runGateway(const Options &opts, int window, Report &report)
{
    // Daemon and client share one pinned CPU. On a VM, a request that
    // crosses vCPUs wakes a halted vCPU through the hypervisor, and that
    // wake-up, not the program, then sets the latency and most of the
    // run-to-run spread; on one CPU the hand-off is a context switch and
    // the figures track the program's own per-request cost.
    std::vector<int> cpus = allowedCpus();
    int cpu = cpus.empty() ? -1 : cpus.back();
    if (cpu >= 0)
        pinThisThread(cpu);
    report.context("pinned_cpus", std::to_string(cpu));
    report.context("outstanding", static_cast<double>(window));

    std::string base = opts.workDir + "/gw-" + std::to_string(::getpid());
    fs::create_directories(base);
    report.context("data_dir_fs", filesystemType(base));
    Tracer tracer(opts.trace, "client");

    // Set up several times (daemon, client, preload, a fixed count of
    // warm-up requests); the last set-up is the one measured. The next
    // set-up kills the previous daemon; the first one's data directory
    // is kept for the timed restarts.
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<GatewayClient> client;
    std::unique_ptr<Traffic> traffic;
    std::string data_dir;
    std::vector<double> setup_s;
    for (int s = 0; s < kSetups; s++) {
        traffic.reset();
        client.reset();
        daemon.reset();
        if (s > 1)
            fs::remove_all(data_dir);
        data_dir = base + "/data" + std::to_string(s);
        std::int64_t t0 = wallNs();
        {
            Span span(tracer, "gateway.server_build");
            daemon = std::make_unique<Daemon>(daemonConfig(data_dir),
                                              cpu, opts.trace);
        }
        {
            Span span(tracer, "gateway.client_build");
            client = makeClient(daemon->port(), kSession);
        }
        traffic = std::make_unique<Traffic>(*client, opts.seed, window,
                                            report, tracer);
        traffic->preload();
        {
            Span span(tracer, "gateway.warmup");
            if (!traffic->runOps(kWarmupOps))
                report.fail("warm-up requests still in flight");
        }
        setup_s.push_back(static_cast<double>(wallNs() - t0) / 1e9);
    }
    report.set("setup_s", median(setup_s), "s");
    const std::string restart_source = base + "/data0";
    // The kept directory's dirty pages are written back now, not in
    // the measured phase.
    flushFilesystem(base);

    // Measured phase.
    const std::string journal = data_dir + "/log.journal";
    DaemonCounts d0 = daemon->counts();
    ClientCounts c0 = traffic->counts();
    FileIo io0 = processFileIo();
    Usage u0 = processUsage();
    std::uintmax_t journal0 = fileSize(journal);
    std::uint64_t sets0 = traffic->completedSets();
    std::int64_t wall0 = wallNs();
    Slices slices = traffic->measure(opts.seconds);
    std::int64_t wall = wallNs() - wall0;
    Usage u1 = processUsage();
    FileIo io1 = processFileIo();
    ClientCounts c1 = traffic->counts();
    DaemonCounts d = daemon->counts() - d0;
    double sets = static_cast<double>(traffic->completedSets() - sets0);
    double journal_bytes =
        static_cast<double>(fileSize(journal)) - static_cast<double>(journal0);

    double ops = static_cast<double>(slices.ops);
    report.set("ops_per_s", slices.sustainedOpsPerSecond(), "1/s");
    report.set("cpu_us_per_op", slices.sustainedCpuUsPerOp(), "us");
    report.set("gateway.set_p50_us", percentileUs(traffic->setNs(), 50),
               "us");
    report.set("gateway.get_p50_us", percentileUs(traffic->getNs(), 50),
               "us");
    report.set("gateway.set_p99_us", percentileUs(traffic->setNs(), 99), "us");
    report.set("gateway.get_p99_us", percentileUs(traffic->getNs(), 99), "us");
    report.set("gateway.set_p999_us", percentileUs(traffic->setNs(), 99.9),
               "us");
    report.set("gateway.get_p999_us", percentileUs(traffic->getNs(), 99.9),
               "us");
    report.set("gateway.set_samples",
               static_cast<double>(traffic->setNs().count()), "count");
    report.set("gateway.get_samples",
               static_cast<double>(traffic->getNs().count()), "count");

    double client_cpu_ns = c1.threadCpuNs - c0.threadCpuNs;
    double cpu_ns = static_cast<double>(u1.userNs - u0.userNs + u1.sysNs -
                                        u0.sysNs);
    report.set("gateway.daemon_cpu_us_per_op",
               perOp(d.threadCpuNs / 1000.0, ops), "us");
    report.set("gateway.client_cpu_us_per_op",
               perOp(client_cpu_ns / 1000.0, ops), "us");
    report.set("gateway.sys_frac",
               perOp(static_cast<double>(u1.sysNs - u0.sysNs), cpu_ns),
               "ratio");
    report.set("gateway.daemon_busy_frac",
               perOp(d.threadCpuNs, static_cast<double>(wall)), "ratio");
    report.set("gateway.wakeups_per_op", perOp(d.wakeups, ops), "count");
    report.set("gateway.timer_fires_per_op", perOp(d.timerFires, ops),
               "count");
    report.set("gateway.events_per_op", perOp(d.events, ops), "count");
    report.set("gateway.ctx_switches_per_op",
               perOp(static_cast<double>(u1.ctxSwitches - u0.ctxSwitches),
                     ops),
               "count");
    report.set("gateway.datagrams_per_op", perOp(d.datagrams, ops), "count");
    report.set("gateway.bytes_per_op", perOp(d.bytes, ops), "B");
    report.set("gateway.file_writes_per_set",
               perOp(static_cast<double>(io1.writeCalls - io0.writeCalls),
                     sets),
               "count");
    report.set("gateway.file_bytes_per_set",
               perOp(static_cast<double>(io1.writeBytes - io0.writeBytes),
                     sets),
               "B");
    report.set("gateway.journal_bytes_per_set", perOp(journal_bytes, sets),
               "B");

    report.set("sim.events_per_op", perOp(d.events + c1.events - c0.events, ops),
               "count");
    report.set("sim.ns_per_event", perOp(d.threadCpuNs, d.events), "ns");
    report.set("net.packets_per_op",
               perOp(d.packets + c1.packets - c0.packets, ops), "count");
    report.set("net.packet_allocs_per_op",
               perOp(d.packetAllocs + c1.packetAllocs - c0.packetAllocs, ops),
               "count");
    report.set("pmnet.cache_hit_ratio",
               perOp(d.cacheHits, d.cacheHits + d.cacheMisses), "ratio");
    report.set("pmnet.log_inserts_per_op", perOp(d.logInserts, ops), "count");
    report.set("pmnet.bypass_per_op", perOp(d.bypass, ops), "count");
    report.set("pmnet.reforwarded_per_op", perOp(d.reforwarded, ops), "count");
    report.set("pmnet.log_high_water", d.highWater, "count");
    report.set("stack.retrans_asks_per_op", perOp(d.retransAsks, ops),
               "count");
    report.set("stack.client_timeouts", c1.timeouts - c0.timeouts, "count");
    report.set("stack.packets_resent", c1.resent - c0.resent, "count");
    report.set("stack.duplicates_dropped", d.duplicates, "count");
    slices.describe(report);

    if (!traffic->drain())
        report.fail("requests still in flight after the measured phase");
    report.set("peak_rss_mb",
               static_cast<double>(processUsage().maxRssKb) / 1024.0, "MB");

    // Kill: drop the daemon with no syncDurable().
    daemon->stop();
    {
        std::int64_t t0 = wallNs();
        {
            Span span(tracer, "obs.snapshot");
            daemon->server().snapshot();
        }
        report.set("obs.snapshot_s", static_cast<double>(wallNs() - t0) / 1e9,
                   "s");
    }
    // Daemon tracers outlive their daemons until the trace is written.
    std::vector<std::unique_ptr<Tracer>> finished;
    auto retire = [&finished](std::unique_ptr<Daemon> &dead) {
        dead->stop();
        finished.push_back(std::make_unique<Tracer>(std::move(dead->tracer())));
        dead.reset();
    };
    std::vector<std::uint64_t> acked = traffic->ackedVersions();
    CommandTap tap = traffic->tap();
    traffic.reset();
    client.reset();
    retire(daemon);
    report.context("journal_bytes",
                   static_cast<double>(fileSize(data_dir + "/log.journal")));

    // restart_s and the journal replay work on copies of the first
    // set-up's data directory: preload and warm-up only, the same work
    // in every run.
    report.context("restart_journal_bytes",
                   static_cast<double>(
                       fileSize(restart_source + "/log.journal")));
    {
        const std::string copy = base + "/journal-copy";
        copyDir(restart_source, copy);
        std::int64_t t0 = wallNs();
        std::size_t entries = 0;
        {
            Span span(tracer, "gateway.journal_replay");
            gateway::LogJournal replay(copy + "/log.journal");
            entries = replay.replay([](net::PacketPtr) {});
        }
        report.set("gateway.journal_replay_s",
                   static_cast<double>(wallNs() - t0) / 1e9, "s");
        report.context("restart_journal_live_entries",
                       static_cast<double>(entries));
    }

    auto restart_dir = [&base](int r) {
        return base + "/restart" + std::to_string(r);
    };
    for (int r = 0; r < kRestarts; r++)
        copyDir(restart_source, restart_dir(r));
    // Start each restart as a fresh process would: no dirty pages to
    // write back and no freed heap pages to reuse (without the trim,
    // every other restart reused the previous one's journal buffers and
    // ran ~25 % faster).
    auto fresh_process = [&base] {
        flushFilesystem(base);
        ::malloc_trim(0);
    };
    std::vector<double> restart_s;
    for (int r = 0; r < kRestarts; r++) {
        fresh_process();
        std::int64_t t0 = wallNs();
        std::optional<std::string> first;
        {
            Span span(tracer, "gateway.restart");
            daemon = std::make_unique<Daemon>(daemonConfig(restart_dir(r)),
                                              cpu, opts.trace);
            client = makeClient(daemon->port(),
                                static_cast<std::uint16_t>(2 + r));
            first = client->get(keyName(0), kOpTimeout);
        }
        std::int64_t elapsed = wallNs() - t0;
        report.attempted++;
        if (first)
            restart_s.push_back(static_cast<double>(elapsed) / 1e9);
        else
            report.fail("restarted daemon did not serve");
        client.reset();
        retire(daemon);
    }
    report.set("restart_s", median(restart_s), "s");

    // Read-back: restarted on the killed daemon's own data directory,
    // every key holds its last acked value.
    fresh_process();
    std::int64_t live0 = wallNs();
    {
        Span span(tracer, "gateway.live_restart");
        daemon = std::make_unique<Daemon>(daemonConfig(data_dir), cpu,
                                          opts.trace);
    }
    report.context("live_restart_s",
                   static_cast<double>(wallNs() - live0) / 1e9);
    if (opts.corruptReadback) {
        auto vandal = makeClient(daemon->port(), 40);
        vandal->set(keyName(kKeys / 2), valueFor(kKeys / 2, 999999),
                    kOpTimeout);
    }
    {
        Span span(tracer, "gateway.readback");
        client = makeClient(daemon->port(), 41);
        for (std::uint64_t k = 0; k < kKeys; k++) {
            report.attempted++;
            std::optional<std::string> value =
                client->get(keyName(k), kOpTimeout);
            if (!value || *value != valueFor(k, acked[k]))
                report.fail("acked SET " + keyName(k) +
                            " did not survive the kill");
        }
    }
    client.reset();
    retire(daemon);

    replayLayers(
        opts, GatewayServer::Config{}.heapBytes, kv::KvKind::Hashmap,
        [](apps::CommandStore &store) {
            for (std::uint64_t k = 0; k < kKeys; k++)
                store.execute(
                    apps::Command{{"SET", keyName(k), valueFor(k, 0)}},
                    kSession);
        },
        tap, report, tracer);
    simNotApplicable(report);

    std::vector<const Tracer *> tracers{&tracer};
    for (const auto &t : finished)
        tracers.push_back(t.get());
    writeTrace(opts, tracers, report);
    fs::remove_all(base);
}

} // namespace

bool
runGatewayWorkload(const Options &opts, Report &report)
{
    if (opts.workload == "gw_sync")
        runGateway(opts, 1, report);
    else if (opts.workload == "gw_pipelined")
        runGateway(opts, 4, report);
    else
        return false;
    return true;
}

} // namespace perfbench
