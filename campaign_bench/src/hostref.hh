/**
 * @file
 * Host-speed reference for the campaign benchmark.
 *
 * The virtual machines this benchmark runs on share their physical
 * CPUs with other tenants, and the speed they give a process drifts by
 * a fifth or more between runs half a minute apart. A fixed mix of
 * reference kernels, which lives in this directory and never changes
 * with the library, is timed before the first pass and after every
 * pass on as many threads as the passes keep busy, and the gated host
 * times are scaled to a host on which the mix runs at its reference
 * rates: a slow moment of the host slows the passes and the mix alike
 * and largely cancels, while a slower library slows only the passes.
 */

#ifndef CAMPAIGN_BENCH_HOSTREF_HH
#define CAMPAIGN_BENCH_HOSTREF_HH

namespace cbench {

/**
 * Run the reference mix on @p threads threads at once for about
 * @p seconds and return the host's speed relative to the reference
 * host: the geometric mean, over the kernels, of each kernel's rate
 * per thread over its fixed reference rate (about 1 on the 4-vCPU
 * virtual machine the benchmark was tuned on).
 */
double hostSpeed(int threads, double seconds);

} // namespace cbench

#endif // CAMPAIGN_BENCH_HOSTREF_HH
