/**
 * @file
 * Campaign benchmark: runs one named workload against the heatstroke
 * library with the engine defaults it ships, checks every result, and
 * prints each metric by name with its unit. The last stdout line is
 * one JSON object: end-to-end metrics when untraced, per-layer
 * metrics when traced. See README.md beside this file.
 *
 *   campaign_bench --workload W --seed N --seconds S --trace 0|1
 *                  [--root DIR] [--out DIR] [--tiny] [--jobs N]
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "hostref.hh"
#include "layers.hh"
#include "sim/manifest.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "sim/serialize.hh"

namespace cbench {
namespace {

using namespace hs;

struct Metric
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics every workload reports (BENCHMARK.json). */
const Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"cells_per_s", "1/s"},
    {"sim_mcps", "Mcycles/s"}, {"first_result_s", "s"},
    {"cell_s_p50", "s"},
};

/** Per-layer metrics of the traced run (BENCHMARK.json). */
const Metric kPerLayer[] = {
    {"smt.tick_ns", "ns"},
    {"smt.stall_ns", "ns"},
    {"power.window_us", "us"},
    {"thermal.step_us", "us"},
    {"thermal.stepbatch_mups", "Mupdates/s"},
    {"thermal.build_ms", "ms"},
    {"snapshot.save_us", "us"},
    {"snapshot.restore_us", "us"},
    {"snapshot.kib", "KiB"},
    {"engine.serial_s", "s"},
    {"engine.busy_frac", "frac"},
    {"engine.saved_cycle_frac", "frac"},
    {"engine.forked_cells", "count"},
    {"serialize.encode_us", "us"},
    {"serialize.decode_us", "us"},
    {"serialize.result_bytes", "B"},
    {"store.put_us", "us"},
    {"store.get_us", "us"},
    {"store.hit_frac", "frac"},
    {"store.corrupt", "count"},
    {"manifest.load_ms", "ms"},
    {"manifest.save_ms", "ms"},
    {"remote.job_overhead_ms_p50", "ms"},
    {"remote.handshake_ms", "ms"},
    {"remote.requeued_frac", "frac"},
    {"workload.generate_ms", "ms"},
    {"isa.assemble_ms", "ms"},
    {"sim.cycles", "count"},
    {"sim.committed", "count"},
    {"sim.emergencies", "count"},
    {"sim.stalled_frac", "frac"},
    {"mem.l1d_miss_rate", "frac"},
    {"mem.l2_miss_rate", "frac"},
    {"bench.trace_overhead_frac", "frac"},
};

std::string
loadAvg()
{
    std::ifstream in("/proc/loadavg");
    double a = 0, b = 0, c = 0;
    if (!(in >> a >> b >> c))
        return "unknown";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f,%.2f,%.2f", a, b, c);
    return buf;
}

/** What one pass of the matrix through a ParallelRunner measured. */
struct PassStats
{
    double wall = 0;        ///< run() call to return
    double firstResult = 0; ///< run() call to the first finished cell
    double firstStart = 0;  ///< run() call to the first started cell
    double busy = 0;        ///< summed cell durations across lanes
    int lanes = 0;
    bool traced = false;
    /** hostSpeed() around the pass: the geometric mean of the readings
     *  before and after it. */
    double hostSpeed = 1;
    /** (submission index, compute time) of the cells simulated from
     *  cycle 0. Cells forked from a shared prefix only run their tail
     *  (engine.forked_cells counts them); mixing the two would put the
     *  median on the boundary between tails and whole cells, where it
     *  flips. */
    std::vector<std::pair<size_t, double>> cellSeconds;
    uint64_t diskHits = 0;
    std::vector<RunResult> results;
    PrefixShareStats prefix;
    RemoteStats remote;
};

/**
 * Hand the whole matrix to a fresh ParallelRunner (closed loop: each
 * lane pulls its next cell when the previous one finishes). Engine
 * spans are rebuilt from the runner's CellObserver events when
 * @p traced.
 */
PassStats
runPass(const Campaign &c, ResultStore &store,
        const std::vector<Endpoint> &workers, SpanLog &log, bool traced)
{
    const size_t n = c.specs.size();
    ParallelRunner runner(c.localLanes, &store);
    runner.setWorkers(workers);

    PassStats p;
    p.traced = traced;
    std::vector<double> start(n, 0.0);
    std::vector<char> forked(n, 0);
    double t0 = 0, firstStart = -1, firstResult = -1;
    int runSpan = -1;
    runner.setCellObserver([&](const CellEvent &ev) {
        double t = now();
        switch (ev.kind) {
          case CellEvent::Kind::Queued:
            return;
          case CellEvent::Kind::PrefixForked:
            forked[ev.index] = 1;
            return;
          case CellEvent::Kind::Started:
            start[ev.index] = t;
            if (firstStart < 0)
                firstStart = t;
            return;
          case CellEvent::Kind::Finished:
          case CellEvent::Kind::RemoteFinished:
            if (!forked[ev.index])
                p.cellSeconds.push_back({ev.index, ev.hostSeconds});
            break;
          case CellEvent::Kind::DiskHit:
            ++p.diskHits;
            break;
          case CellEvent::Kind::CacheHit:
            break;
        }
        if (firstResult < 0)
            firstResult = t;
        p.busy += t - start[ev.index];
        if (traced)
            log.add("engine.cell", start[ev.index], t, runSpan,
                    long(ev.index));
    });

    if (traced)
        runSpan = log.begin("engine.run");
    t0 = now();
    p.results = runner.run(c.specs);
    p.wall = now() - t0;
    log.end(runSpan, n);
    if (traced)
        log.add("engine.serial", t0, firstStart, runSpan, -1);

    p.firstStart = firstStart - t0;
    p.firstResult = firstResult - t0;
    p.prefix = runner.prefixStats();
    p.remote = runner.remoteStats();
    p.lanes = std::min<int>(c.localLanes, static_cast<int>(n)) +
              static_cast<int>(p.remote.workers);
    return p;
}

/** Cold passes of every replica of @p c, run side by side. */
std::vector<PassStats>
runCopies(const Campaign &c, const Setup &s,
          const std::vector<Endpoint> &workers, SpanLog &log, bool traced)
{
    std::vector<PassStats> out(static_cast<size_t>(c.replicas));
    std::vector<std::exception_ptr> errors(out.size());
    auto one = [&](size_t r) {
        try {
            ResultStore mem;
            mem.attachDisk(s.disk.get());
            out[r] = runPass(c, mem, workers, log, traced);
        } catch (...) {
            errors[r] = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    for (size_t r = 1; r < out.size(); ++r)
        pool.emplace_back(one, r);
    one(0);
    for (std::thread &t : pool)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return out;
}

/** Results of @p cells computed by cold executeRunSpec() calls. */
std::map<size_t, RunResult>
coldResults(const Campaign &c, const std::vector<size_t> &cells)
{
    std::vector<RunResult> out(cells.size());
    std::atomic<size_t> next{0};
    auto work = [&] {
        for (size_t k; (k = next.fetch_add(1)) < cells.size();)
            out[k] = executeRunSpec(c.specs[cells[k]]);
    };
    std::vector<std::thread> pool;
    int threads = std::min<int>(hostCpus(), static_cast<int>(cells.size()));
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(work);
    for (std::thread &t : pool)
        t.join();
    std::map<size_t, RunResult> m;
    for (size_t k = 0; k < cells.size(); ++k)
        m.emplace(cells[k], std::move(out[k]));
    return m;
}

/**
 * FNV-1a over every simulated result's JSON form, host-time fields
 * zeroed. Not over encodeRunResult(): it copies SedationEvent structs
 * whole, padding bytes included, so its bytes differ between
 * processes for equal results.
 */
uint64_t
digest(const std::vector<RunResult> &results)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (RunResult r : results) {
        r.hostSeconds = 0;
        r.simCyclesPerHostSec = 0;
        std::ostringstream json;
        writeResultJson(json, r);
        const std::string s = json.str();
        h = fnv1a64(reinterpret_cast<const uint8_t *>(s.data()), s.size(),
                    h);
    }
    return h;
}

/** @p n distinct cell indices drawn from [0, total) by @p rng. */
std::vector<size_t>
sampleCells(size_t total, size_t n, Rng &rng)
{
    std::vector<size_t> idx(total);
    for (size_t i = 0; i < total; ++i)
        idx[i] = i;
    for (size_t i = total; i > 1; --i)
        std::swap(idx[i - 1], idx[rng.nextBounded(i)]);
    idx.resize(std::min(n, total));
    return idx;
}

const NamedHistogram *
findHistogram(const RunResult &r, const char *name)
{
    for (const NamedHistogram &h : r.histograms)
        if (h.name == name)
            return &h;
    return nullptr;
}

void
printMetric(const char *name, double value, const char *unit,
            const char *note = "")
{
    std::printf("metric %s = %.6g %s%s\n", name, value, unit, note);
}

void
printMissing(const char *name, const char *unit, const char *why)
{
    std::printf("metric %s = n/a %s (%s)\n", name, unit, why);
}

std::string
jsonMetrics(const Metric *table, size_t count,
            const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (size_t i = 0; i < count; ++i) {
        auto it = values.find(table[i].name);
        if (it == values.end() || !std::isfinite(it->second))
            throw std::runtime_error(std::string("metric ") +
                                     table[i].name + " was not measured");
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", table[i].name, it->second,
                      table[i].unit);
        out += buf;
    }
    return out + "}";
}

/**
 * Print the metrics only some workloads can report, or say why not:
 * the p90 cell time (needs 10 samples beyond it), the warm pass and
 * the paper-reference errors.
 */
void
printWorkloadMetrics(const Campaign &c, const std::vector<RunResult> &ref,
                     std::vector<double> cellSecs,
                     const std::vector<double> &warmCps)
{
    std::sort(cellSecs.begin(), cellSecs.end());
    size_t n = cellSecs.size();
    size_t k90 = n ? static_cast<size_t>(std::ceil(0.9 * double(n))) - 1 : 0;
    size_t beyond =
        n ? static_cast<size_t>(cellSecs.end() -
                                std::upper_bound(cellSecs.begin(),
                                                 cellSecs.end(),
                                                 cellSecs[k90]))
          : 0;
    char note[96];
    std::snprintf(note, sizeof(note), " (n=%zu, %zu beyond)", n, beyond);
    if (beyond >= 10)
        printMetric("cell_s_p90", cellSecs[k90], "s", note);
    else
        printMissing("cell_s_p90", "s", "fewer than 10 samples beyond p90");
    if (!warmCps.empty())
        printMetric("warm_cells_per_s", median(warmCps), "1/s");
    else
        printMissing("warm_cells_per_s", "1/s", "no warm pass");

    if (c.dutyCell < 0) {
        printMissing("paper_err_duty", "frac", "policy_sweep only");
        printMissing("paper_err_fig5_v2", "frac", "policy_sweep only");
        return;
    }
    const RunResult &d = ref[static_cast<size_t>(c.dutyCell)];
    const NamedHistogram *heat = findHistogram(d, "sim.episode_heat_cycles");
    const NamedHistogram *cool = findHistogram(d, "sim.episode_cool_cycles");
    double total = heat && cool ? heat->hist.sum() + cool->hist.sum() : 0.0;
    if (total > 0)
        printMetric("paper_err_duty",
                    std::fabs(heat->hist.sum() / total - 0.088), "frac");
    else
        printMissing("paper_err_duty", "frac", "no heat episodes");
    double solo = 0, attacked = 0;
    for (auto [a, b] : c.fig5Cells) {
        solo += ref[static_cast<size_t>(a)].threads[0].ipc;
        attacked += ref[static_cast<size_t>(b)].threads[0].ipc;
    }
    printMetric("paper_err_fig5_v2",
                std::fabs(degradationPct(solo, attacked) / 100.0 - 0.882),
                "frac");
}

/**
 * Per-layer metrics read off the measured passes: engine figures of
 * the traced cold passes, the simulated counts of the results,
 * and the tracing overhead.
 */
void
passMetrics(const std::vector<RunResult> &ref,
            const std::vector<PassStats> &cold,
            const std::vector<double> &plainWalls,
            const std::vector<double> &tracedWalls, bool remote,
            std::map<std::string, double> &out)
{
    const double n = static_cast<double>(ref.size());
    double cycles = 0, committed = 0, emergencies = 0, stalled = 0, l1 = 0,
           l2 = 0;
    for (const RunResult &r : ref) {
        cycles += static_cast<double>(r.cycles);
        for (const ThreadResult &t : r.threads)
            committed += static_cast<double>(t.committed);
        emergencies += static_cast<double>(r.emergencies);
        stalled += static_cast<double>(r.coolingStallCycles);
        l1 += r.threads[0].l1dMissRate;
        l2 += r.threads[0].l2MissRate;
    }

    std::vector<double> serial, busy, saved, forked, requeued;
    for (const PassStats &p : cold) {
        if (!p.traced)
            continue;
        serial.push_back(p.firstStart);
        busy.push_back(p.busy / (p.lanes * p.wall));
        saved.push_back(static_cast<double>(p.prefix.savedCycles) / cycles);
        forked.push_back(static_cast<double>(p.prefix.forkedRuns));
        requeued.push_back(static_cast<double>(p.remote.requeuedCells) / n);
    }
    out["engine.serial_s"] = median(serial);
    out["engine.busy_frac"] = median(busy);
    out["engine.saved_cycle_frac"] = median(saved);
    out["engine.forked_cells"] = median(forked);
    if (remote)
        out["remote.requeued_frac"] = median(requeued);

    out["sim.cycles"] = cycles;
    out["sim.committed"] = committed;
    out["sim.emergencies"] = emergencies;
    out["sim.stalled_frac"] = stalled / cycles;
    out["mem.l1d_miss_rate"] = l1 / n;
    out["mem.l2_miss_rate"] = l2 / n;
    out["bench.trace_overhead_frac"] =
        median(tracedWalls) / median(plainWalls) - 1.0;
}

int
run(const Options &o)
{
    std::filesystem::create_directories(o.out);
    setLogLevel(LogLevel::Quiet); // workers announce every connection
    std::printf("host nproc=%d loadavg=%s (start)\n", hostCpus(),
                loadAvg().c_str());
    const double begin = now();
    SpanLog log(o.trace);

    // store_campaign's cold pass runs one local lane plus two workers.
    const bool remote = o.workload == "store_campaign";
    LocalWorkers workers(remote ? 2 : 0);
    const std::vector<Endpoint> &eps = workers.endpoints();

    // Set-up is repeated and its median reported: five times before
    // the passes, once per pass and five times after them, because a
    // sub-millisecond set-up is at the mercy of the host's state of
    // the moment.
    std::vector<double> setupSecs;
    int setups = 0;
    auto extraSetups = [&] {
        for (int k = 0; k < 5; ++k) {
            Setup s = runSetup(o, eps, setups++, log);
            setupSecs.push_back(s.seconds);
            s.disk.reset();
            if (!s.storeDir.empty())
                std::filesystem::remove_all(s.storeDir);
        }
    };
    extraSetups();

    // The reference mix runs before the first pass and after every
    // set of passes, on as many threads as the passes keep busy.
    constexpr double kCalibrationSeconds = 0.25;
    std::vector<double> speeds;
    int busyThreads = 0;

    // Measured passes, each on a freshly set-up campaign. Traced runs
    // alternate untraced and traced passes so the tracing overhead is
    // measured under the same host conditions.
    Campaign c;
    std::vector<PassStats> cold, warm;
    std::vector<double> plainWalls, tracedWalls;
    std::vector<RunResult> ref;
    uint64_t attempted = 0, failed = 0;
    double repCost = 0, peakRssMb = 0;
    for (int rep = 0;; ++rep) {
        double r0 = now();
        Setup s = runSetup(o, eps, setups++, log);
        setupSecs.push_back(s.seconds);
        c = s.campaign;
        const size_t n = c.specs.size();
        const bool traced = o.trace && rep % 2 == 1;
        if (speeds.empty()) {
            busyThreads =
                c.localLanes * c.replicas + static_cast<int>(eps.size());
            speeds.push_back(hostSpeed(busyThreads, kCalibrationSeconds));
        }

        std::vector<PassStats> copies = runCopies(c, s, eps, log, traced);
        std::vector<PassStats *> passes;
        for (PassStats &p : copies) {
            (traced ? tracedWalls : plainWalls).push_back(p.wall);
            passes.push_back(&p);
        }
        PassStats w;
        if (c.warmPass) {
            // The campaign rerun: a new process-level memo over the
            // same store must find every cell already stored.
            attempted += 1;
            CampaignResume r = prepareCampaign(*s.disk, c.specs);
            if (!r.resumed || r.storedCells != n)
                ++failed;
            ResultStore mem2;
            mem2.attachDisk(s.disk.get());
            w = runPass(c, mem2, eps, log, traced);
            failed += n - std::min<uint64_t>(n, w.diskHits);
            failed += s.disk->corrupt();
            passes.push_back(&w);
        }
        if (s.disk && s.disk->writes() != n)
            failed += n - std::min<uint64_t>(n, s.disk->writes());
        speeds.push_back(hostSpeed(busyThreads, kCalibrationSeconds));
        for (PassStats *q : passes)
            q->hostSpeed =
                std::sqrt(speeds[speeds.size() - 2] * speeds.back());

        if (ref.empty()) {
            ref = copies[0].results;
            // Later passes only add allocator slack, so the high-water
            // mark is read once the first pass is done.
            peakRssMb = static_cast<double>(currentPeakRssKb()) / 1024.0;
        }
        for (PassStats *q : passes) {
            attempted += n;
            for (size_t i = 0; i < n; ++i)
                if (i >= q->results.size() || !(q->results[i] == ref[i]))
                    ++failed;
            q->results.clear();
        }
        for (PassStats &p : copies)
            cold.push_back(std::move(p));
        if (c.warmPass)
            warm.push_back(std::move(w));
        s.disk.reset();
        if (!s.storeDir.empty())
            std::filesystem::remove_all(s.storeDir);

        repCost = now() - r0;
        bool need = o.trace && rep < 1;
        if (!need && now() - begin + repCost > o.seconds)
            break;
    }
    extraSetups();
    const size_t n = c.specs.size();

    // Correctness against cold executeRunSpec(): every cell of the
    // store campaign (that covers remote == local), a seeded sample
    // of the others.
    Rng pick(o.seed ^ 0x5eedc0ffee);
    std::vector<size_t> checked =
        remote ? sampleCells(n, n, pick)
               : sampleCells(n, o.workload == "policy_sweep" ? 4 : 2, pick);
    for (const auto &[i, r] : coldResults(c, checked))
        if (!(r == ref[i]))
            failed += cold.size() + warm.size();

    std::printf("workload=%s seed=%llu scale=%g cells=%zu lanes=%d+%zu "
                "replicas=%d prefix=%s batch=%d passes=%zu\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                c.scale, n, c.localLanes, eps.size(), c.replicas,
                envPrefixSharing(true) ? "on" : "off", envBatchWidth(1),
                cold.size() + warm.size());
    std::printf("digest fnv1a64=%016llx cells=%zu\n",
                static_cast<unsigned long long>(digest(ref)), n);
    std::printf("checked %zu cells against cold executeRunSpec\n",
                checked.size());

    // Every host time is multiplied by the host speed around its pass
    // (hostref.hh): a time on a host running at 0.8 of the reference
    // becomes 0.8 of what was measured, the time the reference host
    // would have taken. Set-ups are short calls spread over the run and
    // are scaled by the run's median host speed. The run reports
    // medians over its passes; the raw medians are printed too.
    //
    // An attack_solo pass is one single-lane replica on one CPU, and
    // the CPUs of a shared virtual machine differ in speed for tens of
    // seconds at a time, so the median over all its cell runs reports
    // which CPUs each cell happened to get. Its cell_s_p50 is the
    // median over cells of each cell's fastest run instead. The
    // other workloads spread every pass over all CPUs through one
    // shared queue and use every cell run.
    const bool bestRuns = c.replicas > 1;
    std::vector<double> walls, first, allCells, bestCells, warmCps;
    std::vector<double> rawWalls, rawFirst, rawCells;
    std::map<size_t, double> bestCell;
    uint64_t cycles = 0;
    for (const RunResult &r : ref)
        cycles += r.cycles;
    for (const PassStats &p : cold) {
        const double k = p.hostSpeed;
        walls.push_back(p.wall * k);
        first.push_back(p.firstResult * k);
        rawWalls.push_back(p.wall);
        rawFirst.push_back(p.firstResult);
        for (auto [i, secs] : p.cellSeconds) {
            auto it = bestCell.emplace(i, secs * k).first;
            it->second = std::min(it->second, secs * k);
            allCells.push_back(secs * k);
            rawCells.push_back(secs);
        }
    }
    for (const auto &[i, secs] : bestCell)
        bestCells.push_back(secs);
    for (const PassStats &p : warm)
        warmCps.push_back(static_cast<double>(n) / (p.wall * p.hostSpeed));
    const double speed = median(speeds);
    std::vector<double> &cellSecs = bestRuns ? bestCells : allCells;

    const double cells = static_cast<double>(n);
    const double mcycles = static_cast<double>(cycles) / 1e6;
    std::map<std::string, double> e2e, raw;
    e2e["setup_s"] = median(setupSecs) * speed;
    e2e["cells_per_s"] = cells / median(walls);
    e2e["sim_mcps"] = mcycles / median(walls);
    e2e["first_result_s"] = median(first);
    e2e["cell_s_p50"] = median(cellSecs);
    raw["setup_s"] = median(setupSecs);
    raw["cells_per_s"] = cells / median(rawWalls);
    raw["sim_mcps"] = mcycles / median(rawWalls);
    raw["first_result_s"] = median(rawFirst);
    raw["cell_s_p50"] = median(rawCells);
    std::printf("host speed=%.4f of the reference (median of %zu readings "
                "on %d threads)\n",
                speed, speeds.size(), busyThreads);
    for (const Metric &m : kEndToEnd) {
        char note[96];
        std::snprintf(note, sizeof(note), " (raw median %.6g)", raw[m.name]);
        printMetric(m.name, e2e[m.name], m.unit, note);
    }
    if (bestRuns)
        printMetric("cell_s_p50_all_runs", median(allCells), "s",
                    " (not gated: median over every cell run)");
    // Every pass's figures, so a noisy run can be told from a noisy
    // pass.
    std::printf("passes wall_s=");
    for (size_t k = 0; k < cold.size(); ++k)
        std::printf("%s%.3f", k ? "," : "", cold[k].wall);
    std::printf(" first_result_s=");
    for (size_t k = 0; k < cold.size(); ++k)
        std::printf("%s%.3f", k ? "," : "", cold[k].firstResult);
    std::printf("\n");
    // Printed, not gated: glibc's per-thread arenas make the
    // high-water mark bimodal from run to run (policy_sweep: about
    // 17 MB or 27 MB).
    printMetric("peak_rss_mb", peakRssMb, "MB");

    printWorkloadMetrics(c, ref, cellSecs, warmCps);

    std::map<std::string, double> layers;
    if (o.trace) {
        ProbeChecks checks;
        Rng rng(o.seed ^ 0x1a7e45);
        probeLayers(o, c, ref, sampleCells(n, 3, rng), log, layers,
                    checks);
        attempted += checks.attempted;
        failed += checks.failed;

        passMetrics(ref, cold, plainWalls, tracedWalls, remote, layers);
        layers["workload.generate_ms"] =
            log.perUnit("workload.generate") * 1e3;
        layers["isa.assemble_ms"] = log.perUnit("isa.assemble") * 1e3;

        for (const Metric &m : kPerLayer)
            if (layers.count(m.name))
                printMetric(m.name, layers[m.name], m.unit);
        std::string path = o.out + "/spans_" + o.workload + "_seed" +
                           std::to_string(o.seed) + ".json";
        if (!log.write(path))
            throw std::runtime_error("cannot write " + path);
        std::printf("spans %zu written to %s\n", log.size(), path.c_str());
    }

    std::printf("metric failed_frac = %.6g frac (%llu of %llu)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::printf("host nproc=%d loadavg=%s (end) elapsed_s=%.1f\n",
                hostCpus(), loadAvg().c_str(), now() - begin);
    std::string metrics =
        o.trace ? jsonMetrics(kPerLayer, std::size(kPerLayer), layers)
                : jsonMetrics(kEndToEnd, std::size(kEndToEnd), e2e);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    std::fflush(stdout);
    return 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "campaign_bench: %s\nusage: campaign_bench --workload "
                 "policy_sweep|attack_solo|store_campaign --seed N "
                 "--seconds S --trace 0|1 [--root DIR] [--out DIR] "
                 "[--tiny] [--jobs N]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(o.seconds > 0))
                usage("--seconds must be a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            o.trace = v == "1";
        } else if (a == "--jobs") {
            o.jobs = std::atoi(v.c_str());
            if (o.jobs <= 0)
                usage("--jobs must be a positive integer");
        } else if (a == "--root") {
            o.root = v;
        } else if (a == "--out") {
            o.out = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
        if (end && *end)
            usage(("malformed value for " + a).c_str());
    }
    if (!haveWorkload || !knownWorkload(o.workload))
        usage("--workload must name a known workload");
    return o;
}

} // namespace
} // namespace cbench

int
main(int argc, char **argv)
{
    cbench::Options o = cbench::parseArgs(argc, argv);
    try {
        return cbench::run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaign_bench: %s\n", e.what());
        return 1;
    }
}
