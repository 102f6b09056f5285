#include "hostref.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "spans.hh"

namespace cbench {

namespace {

// The kernels cover what a cycle-level simulator spends its time on:
// dependent loads, independent integer work with unpredictable
// branches, interpreter-style dispatch, floating-point solves and
// standard-library containers. No single one tracks the simulator's
// speed from run to run; their geometric mean does so best.

uint64_t
lcg(uint64_t &s)
{
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s;
}

/** A random cyclic permutation of 2^bits slots. */
std::vector<uint32_t>
cycle(int bits)
{
    const uint32_t n = 1u << bits;
    std::vector<uint32_t> order(n), next(n);
    for (uint32_t i = 0; i < n; ++i)
        order[i] = i;
    uint64_t s = 0x9e3779b97f4a7c15ull;
    for (uint32_t i = n - 1; i > 0; --i)
        std::swap(order[i], order[(lcg(s) >> 33) % (i + 1)]);
    for (uint32_t i = 0; i < n; ++i)
        next[order[i]] = order[(i + 1) & (n - 1)];
    return next;
}

const std::vector<uint32_t> &
table1M()
{
    static const std::vector<uint32_t> t = cycle(18);
    return t;
}

const std::vector<uint32_t> &
table256K()
{
    static const std::vector<uint32_t> t = cycle(16);
    return t;
}

const std::vector<uint8_t> &
bytecode()
{
    static const std::vector<uint8_t> code = [] {
        std::vector<uint8_t> v(1 << 14);
        uint64_t s = 1;
        for (uint8_t &op : v)
            op = static_cast<uint8_t>(lcg(s) >> 56);
        return v;
    }();
    return code;
}

/** Dependent loads chasing a cycle through 1 MiB. */
uint64_t
chase(uint64_t seed)
{
    const uint32_t *next = table1M().data();
    const uint32_t mask = (1u << 18) - 1;
    uint64_t s = seed, sum = 0;
    uint32_t p = static_cast<uint32_t>(seed) & mask;
    for (int i = 0; i < 6000; ++i) {
        p = next[(p ^ static_cast<uint32_t>(lcg(s) >> 46)) & mask];
        sum += p;
    }
    return sum;
}

/** Four independent streams of loads, arithmetic and branches. */
uint64_t
streams(uint64_t seed)
{
    const uint32_t *t = table256K().data();
    const uint32_t mask = (1u << 16) - 1;
    uint64_t a = seed, b = seed * 3 + 1, c = seed * 5 + 7, d = seed * 7 + 3;
    uint64_t sum = 0;
    for (int i = 0; i < 4000; ++i) {
        a = a * 6364136223846793005ull + 1;
        b = b * 2862933555777941757ull + 3;
        c ^= c << 13;
        c ^= c >> 7;
        c ^= c << 17;
        d += 0x9e3779b97f4a7c15ull;
        uint32_t x = t[(a >> 48) & mask], y = t[(b >> 48) & mask];
        uint32_t z = t[c & mask], w = t[(d >> 40) & mask];
        if ((x ^ y) & 1)
            sum += static_cast<uint64_t>(x) * y;
        else
            sum ^= static_cast<uint64_t>(z) << 3;
        if ((z + w) & 2)
            sum += w;
        else
            sum -= x >> 2;
    }
    return sum;
}

/** A register machine dispatching random byte-code over 1 MiB. */
uint64_t
interpret(uint64_t seed)
{
    const uint8_t *code = bytecode().data();
    const uint32_t *mem = table1M().data();
    const uint32_t mask = (1u << 18) - 1;
    uint64_t r[16];
    for (int i = 0; i < 16; ++i)
        r[i] = seed + static_cast<uint64_t>(i) * 0x9e37;
    uint32_t pc = static_cast<uint32_t>(seed) & 0x3fff;
    for (int i = 0; i < 6000; ++i) {
        const uint8_t op = code[pc];
        uint64_t &a = r[op & 15];
        const uint64_t b = r[(op >> 4) & 15];
        switch (op & 7) {
          case 0: a += b; break;
          case 1: a ^= b >> 3; break;
          case 2: a = mem[b & mask]; break;
          case 3: a *= b | 1; break;
          case 4: if (a & 1) pc += b & 31; break;
          case 5: a -= b; break;
          case 6: a = (a << 1) | (b & 1); break;
          default: a += mem[(a + pc) & mask]; break;
        }
        pc = (pc + 1) & 0x3fff;
    }
    uint64_t sum = 0;
    for (uint64_t x : r)
        sum += x;
    return sum;
}

/** Repeated 64x64 matrix-vector solves, like an RC-network step. */
uint64_t
solve(uint64_t seed)
{
    constexpr int n = 64;
    std::vector<double> m(n * n), x(n), y(n);
    for (int i = 0; i < n * n; ++i)
        m[i] = static_cast<double>((static_cast<uint64_t>(i) * 7 + seed) %
                                   13) * 1e-3;
    for (int i = 0; i < n; ++i)
        x[i] = i * 1e-2;
    for (int it = 0; it < 40; ++it) {
        for (int i = 0; i < n; ++i) {
            double s = 0;
            for (int j = 0; j < n; ++j)
                s += m[i * n + j] * x[j];
            y[i] = s + 0.5 * x[i];
        }
        std::swap(x, y);
    }
    return static_cast<uint64_t>(x[3] * 1e6);
}

/** Sorting and hash-map lookups from the standard library. */
uint64_t
containers(uint64_t seed)
{
    std::vector<uint32_t> v(4096);
    uint64_t s = seed;
    for (uint32_t &x : v)
        x = static_cast<uint32_t>(lcg(s) >> 40);
    std::sort(v.begin(), v.end());
    std::unordered_map<uint32_t, uint32_t> m;
    for (uint32_t i = 0; i < 1024; ++i)
        m[v[i * 4]] = i;
    uint64_t sum = v[100];
    for (uint32_t x : v) {
        auto it = m.find(x);
        if (it != m.end())
            sum += it->second;
    }
    return sum;
}

struct Kernel
{
    uint64_t (*unit)(uint64_t seed);
    /** Units per second per thread on the reference host (the 4-vCPU
     *  virtual machine the benchmark was tuned on, all four threads
     *  busy). Fixed: changing one rescales every normalised metric. */
    double referenceRate;
};

const Kernel kKernels[] = {
    {chase, 12500}, {streams, 13000},   {interpret, 11500},
    {solve, 9500},  {containers, 1950},
};

/** Units per second per thread of @p k on @p threads threads. */
double
rate(const Kernel &k, int threads, double seconds)
{
    std::vector<double> perThread(static_cast<size_t>(threads), 0.0);
    std::atomic<uint64_t> sink{0};
    auto work = [&](size_t t) {
        uint64_t units = 0, sum = 0;
        const double t0 = now();
        double t1 = t0;
        while (t1 - t0 < seconds) {
            sum += k.unit(units * 31 + t);
            ++units;
            t1 = now();
        }
        perThread[t] = static_cast<double>(units) / (t1 - t0);
        sink.fetch_add(sum);
    };
    std::vector<std::thread> pool;
    for (size_t t = 1; t < perThread.size(); ++t)
        pool.emplace_back(work, t);
    work(0);
    for (std::thread &t : pool)
        t.join();
    double total = 0;
    for (double r : perThread)
        total += r;
    return total / static_cast<double>(threads);
}

} // namespace

double
hostSpeed(int threads, double seconds)
{
    const double each = seconds / static_cast<double>(std::size(kKernels));
    double logSum = 0;
    for (const Kernel &k : kKernels)
        logSum += std::log(rate(k, threads, each) / k.referenceRate);
    return std::exp(logSum / static_cast<double>(std::size(kKernels)));
}

} // namespace cbench
