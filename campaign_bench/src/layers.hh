/**
 * @file
 * Per-layer probes of the traced run.
 *
 * Each probe drives one layer's public calls itself, on the cells of
 * the workload being measured, inside spans of the run's SpanLog; the
 * per-layer metrics are those spans' self times divided by the work
 * they covered.
 */

#ifndef CAMPAIGN_BENCH_LAYERS_HH
#define CAMPAIGN_BENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign.hh"
#include "sim/results.hh"

namespace cbench {

/** Tally of probe outputs checked against the measured passes. */
struct ProbeChecks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/**
 * Run every layer probe on @p c. @p results are the cells' results
 * from a measured pass (round trips and remote jobs must reproduce
 * them); @p sample picks the cells that get the costlier probes.
 * Fills @p out with one value per per-layer metric the probes own.
 */
void probeLayers(const Options &o, const Campaign &c,
                 const std::vector<hs::RunResult> &results,
                 const std::vector<size_t> &sample, SpanLog &log,
                 std::map<std::string, double> &out, ProbeChecks &checks);

} // namespace cbench

#endif // CAMPAIGN_BENCH_LAYERS_HH
