#include "common/rng.h"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "common/logging.h"

namespace pmnet {

namespace {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitmix64(sm);
}

std::uint64_t
Rng::operator()()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

std::uint64_t
Rng::nextUInt(std::uint64_t bound)
{
    if (bound == 0)
        panic("Rng::nextUInt: bound must be positive");
    // Lemire-style rejection to avoid modulo bias.
    std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = (*this)();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextInt(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::nextInt: empty range [%lld, %lld]",
              static_cast<long long>(lo), static_cast<long long>(hi));
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextUInt(span));
}

double
Rng::nextDouble()
{
    // 53 random mantissa bits.
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

Rng
Rng::split()
{
    return Rng((*this)());
}

double
ZipfianGenerator::zeta(std::uint64_t n, double theta)
{
    // One pow() per item: ~5 ms at n = 200,000, paid by every client
    // of every testbed a sweep builds. Sum each (n, theta) once per
    // process. runSweep builds testbeds on several threads, so the
    // memo is locked; the sum runs outside the lock, and a racing
    // duplicate computes the same value.
    static std::mutex mutex;
    static std::map<std::pair<std::uint64_t, std::uint64_t>, double> memo;
    const std::pair key{n, std::bit_cast<std::uint64_t>(theta)};
    {
        std::lock_guard lock(mutex);
        if (auto it = memo.find(key); it != memo.end())
            return it->second;
    }
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; i++)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    std::lock_guard lock(mutex);
    memo.emplace(key, sum);
    return sum;
}

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    if (n == 0)
        panic("ZipfianGenerator: item count must be positive");
    zetan_ = zeta(n, theta);
    double zeta2 = zeta(2, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
}

std::uint64_t
ZipfianGenerator::next(Rng &rng)
{
    double u = rng.nextDouble();
    double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    double v = static_cast<double>(n_) *
               std::pow(eta_ * u - eta_ + 1.0, alpha_);
    std::uint64_t item = static_cast<std::uint64_t>(v);
    return item >= n_ ? n_ - 1 : item;
}

ExponentialGenerator::ExponentialGenerator(double mean_ns) : mean_(mean_ns)
{
    if (mean_ns <= 0.0)
        panic("ExponentialGenerator: mean must be positive");
}

std::int64_t
ExponentialGenerator::next(Rng &rng)
{
    double u = rng.nextDouble();
    // Guard against log(0).
    if (u <= 0.0)
        u = 1e-18;
    double gap = -mean_ * std::log(u);
    std::int64_t ticks = static_cast<std::int64_t>(gap);
    return ticks < 1 ? 1 : ticks;
}

} // namespace pmnet
