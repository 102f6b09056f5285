/**
 * @file
 * Workload generation and set-up for the campaign benchmark.
 *
 * The seed picks the cells (victim and partner profiles, threshold
 * grid offsets, sensor-noise values); the library under test only ever
 * receives the generated RunSpecs. The paper-reference cells of
 * policy_sweep are the same for every seed.
 */

#ifndef CAMPAIGN_BENCH_CAMPAIGN_HH
#define CAMPAIGN_BENCH_CAMPAIGN_HH

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/framing.hh"
#include "sim/disk_store.hh"
#include "sim/remote.hh"
#include "sim/run_spec.hh"
#include "spans.hh"

namespace cbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;       ///< smoke-check scale (not for timing)
    int jobs = 0;            ///< policy_sweep lanes (0 = nproc)
    std::string root = "."; ///< checkout root (holds attacks/*.s)
    std::string out = ".bench_out"; ///< scratch stores and span files
};

/** @return true if @p name is one of the benchmark's workloads. */
bool knownWorkload(const std::string &name);

/** CPUs this process may run on (what `nproc` prints). */
int hostCpus();

/** One generated campaign: the matrix handed to the runner. */
struct Campaign
{
    double scale = 0;      ///< HS_SCALE-equivalent time scale
    int localLanes = 1;    ///< ParallelRunner jobs
    /** Copies of the matrix run side by side, each by its own runner,
     *  one per CPU: a single-lane campaign lands on one CPU, and a
     *  shared host's CPUs run at different speeds for tens of seconds
     *  at a time, so the figures are medians over every copy. */
    int replicas = 1;
    bool warmPass = false; ///< rerun the matrix from the disk store
    std::vector<hs::RunSpec> specs;
    /** Paper-reference cells (policy_sweep only, seed-independent):
     *  variant 1 alone under stop-and-go (the Section 3.1 duty
     *  cycle), and (victim solo, victim + variant 2) under
     *  stop-and-go for the Figure 5 v2 degradation. */
    int dutyCell = -1;
    std::vector<std::pair<int, int>> fig5Cells;
};

/**
 * HSRP workers serving on ephemeral localhost ports from threads of
 * this process. The destructor asks each serve loop to return and
 * joins it.
 */
class LocalWorkers
{
  public:
    explicit LocalWorkers(int n);
    ~LocalWorkers();
    LocalWorkers(const LocalWorkers &) = delete;
    LocalWorkers &operator=(const LocalWorkers &) = delete;

    const std::vector<hs::Endpoint> &endpoints() const { return eps_; }

  private:
    struct Worker
    {
        hs::Socket listener;
        std::thread thread;
    };
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<hs::Endpoint> eps_;
};

/** Everything set-up produces for one pass over the matrix. */
struct Setup
{
    Campaign campaign;
    std::string storeDir;                    ///< store_campaign only
    std::unique_ptr<hs::DiskResultStore> disk; ///< store_campaign only
    double seconds = 0; ///< set-up wall time
};

/**
 * Set up one pass: generate and assemble the programs, build the
 * specs, open a fresh store and prepare its manifest (store_campaign),
 * and handshake every worker in @p workers. @p index names the store
 * directory. Throws std::runtime_error if a worker refuses.
 */
Setup runSetup(const Options &o, const std::vector<hs::Endpoint> &workers,
               int index, SpanLog &log);

} // namespace cbench

#endif // CAMPAIGN_BENCH_CAMPAIGN_HH
