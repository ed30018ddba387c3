#include "host.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <time.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::int64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

std::int64_t
timevalNs(const timeval &tv)
{
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
}

} // namespace

std::int64_t
wallNs()
{
    return clockNs(CLOCK_MONOTONIC);
}

std::int64_t
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

std::int64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

Usage
processUsage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage usage;
    usage.userNs = timevalNs(ru.ru_utime);
    usage.sysNs = timevalNs(ru.ru_stime);
    usage.ctxSwitches = ru.ru_nvcsw + ru.ru_nivcsw;
    usage.maxRssKb = ru.ru_maxrss;
    return usage;
}

FileIo
processFileIo()
{
    FileIo io;
    std::ifstream in("/proc/self/io");
    std::string key;
    std::uint64_t value = 0;
    while (in >> key >> value) {
        if (key == "wchar:")
            io.writeBytes = value;
        else if (key == "syscw:")
            io.writeCalls = value;
    }
    return io;
}

CpuJiffies
hostJiffies()
{
    CpuJiffies out;
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0)
        return out;
    std::istringstream fields(line.substr(4));
    // user nice system idle iowait irq softirq steal (guest time is
    // already folded into user/nice, so it is not added again).
    std::uint64_t value = 0;
    for (int i = 0; i < 8 && fields >> value; i++) {
        out.total += value;
        if (i == 7)
            out.steal = value;
    }
    return out;
}

double
stealShare(const CpuJiffies &from, const CpuJiffies &to)
{
    if (to.total <= from.total)
        return 0.0;
    return static_cast<double>(to.steal - from.steal) /
           static_cast<double>(to.total - from.total);
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
        if (CPU_ISSET(cpu, &set))
            cpus.push_back(cpu);
    }
    return cpus;
}

bool
pinThisThread(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

std::string
filesystemType(const std::string &path)
{
    struct statfs fs{};
    if (statfs(path.c_str(), &fs) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL:
        return "tmpfs";
    case 0xEF53UL:
        return "ext4";
    case 0x58465342UL:
        return "xfs";
    case 0x9123683EUL:
        return "btrfs";
    case 0x794C7630UL:
        return "overlayfs";
    case 0x01021997UL:
        return "9p";
    case 0x65735546UL:
        return "fuse";
    case 0x6A656A63UL:
        return "virtiofs";
    default:
        break;
    }
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%lx",
                  static_cast<unsigned long>(fs.f_type));
    return hex;
}

} // namespace perfbench
