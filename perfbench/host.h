/**
 * @file
 * Host-side measurement helpers for the benchmark binary: wall and CPU
 * clocks, rusage, /proc/self/io and /proc/stat readers, thread pinning
 * and the data directory's filesystem type. Everything here reads the
 * host, never the program under test.
 */

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock, ns. */
std::int64_t wallNs();

/** CPU time of the whole process (every thread, user + sys), ns. */
std::int64_t processCpuNs();

/** CPU time of the calling thread, ns. */
std::int64_t threadCpuNs();

/** getrusage(RUSAGE_SELF) fields the benchmark uses. */
struct Usage
{
    std::int64_t userNs = 0;
    std::int64_t sysNs = 0;
    std::int64_t ctxSwitches = 0; ///< voluntary + involuntary
    std::int64_t maxRssKb = 0;
};
Usage processUsage();

/** /proc/self/io write counters (files and pipes; not sendto). */
struct FileIo
{
    std::uint64_t writeCalls = 0; ///< syscw
    std::uint64_t writeBytes = 0; ///< wchar
};
FileIo processFileIo();

/** Aggregate jiffies of the first /proc/stat "cpu" line. */
struct CpuJiffies
{
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
};
CpuJiffies hostJiffies();

/** Steal share of the host's CPU time between two readings. */
double stealShare(const CpuJiffies &from, const CpuJiffies &to);

/** CPUs the process may run on, ascending. */
std::vector<int> allowedCpus();

/** Pin the calling thread to @p cpu. @return false on failure. */
bool pinThisThread(int cpu);

/** Filesystem type holding @p path ("tmpfs", "ext4", "0x..."). */
std::string filesystemType(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_HOST_H
