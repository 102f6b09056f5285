#include "layers.hh"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "sim/manifest.hh"
#include "sim/runner.hh"
#include "sim/serialize.hh"
#include "sim/simulator.hh"
#include "thermal/thermal_model.hh"
#include "thermal/topology.hh"

namespace cbench {

using namespace hs;

namespace {

/**
 * Pipeline, power window and thermal step, driven the way one sensor
 * interval of Simulator::run() drives them: tick a window of cycles,
 * turn the window's activity into block power, step the RC network.
 * Then the stalled fast-forward and the multi-RHS kernel on the same
 * die.
 */
void
probeCore(const Options &o, const RunSpec &spec, long cell, int lanes,
          SpanLog &log)
{
    auto sim = makeSimulator(spec);
    Pipeline &pipe = sim->pipeline();
    const Cycles window = sim->config().sensorInterval;
    const double dt = sim->sensorDt();
    const size_t nb = static_cast<size_t>(numBlocks);
    const int windows = o.tiny ? 1 : 6;

    ActivityCounters::Snapshot activity(pipe.activity());
    std::vector<Watts> block, die(nb * static_cast<size_t>(sim->numCores()));
    for (int w = 0; w < windows; ++w) {
        Cycles active0 = pipe.activeCycles();
        int span = log.begin("smt.tick", -1, cell);
        for (Cycles c = 0; c < window; ++c)
            pipe.tick();
        log.end(span, window);

        span = log.begin("power.window", -1, cell);
        sim->energy().windowPowerInto(pipe.activity(), activity, window,
                                      pipe.activeCycles() - active0,
                                      block);
        log.end(span);
        for (size_t i = 0; i < die.size(); ++i)
            die[i] = block[i % nb];

        span = log.begin("thermal.step", -1, cell);
        sim->thermal().step(die, dt);
        log.end(span);
    }

    pipe.setGlobalStall(true);
    const int stalls = o.tiny ? 10 : 200;
    int span = log.begin("smt.stall", -1, cell);
    for (int k = 0; k < stalls; ++k)
        pipe.advanceStalled(window);
    log.end(span, static_cast<uint64_t>(stalls) * window);
    pipe.setGlobalStall(false);

    // One lane per cell of the spec's divergence group, as the batch
    // engine would step them.
    const RcNetwork &net = sim->thermal().network();
    const size_t nodes = static_cast<size_t>(net.numNodes());
    const size_t L = static_cast<size_t>(lanes);
    std::vector<Watts> power(nodes * L, 0.0);
    std::vector<Kelvin> temps(nodes * L);
    for (size_t i = 0; i < nodes; ++i)
        for (size_t l = 0; l < L; ++l) {
            if (i < die.size())
                power[i * L + l] = die[i] * (1.0 + 0.01 * l);
            temps[i * L + l] = 330.0 + 0.1 * static_cast<double>(l);
        }
    const int iters = o.tiny ? 5 : 100;
    span = log.begin("thermal.stepbatch", -1, cell);
    for (int it = 0; it < iters; ++it)
        net.stepBatch(power, temps, lanes, dt);
    log.end(span, nodes * L * static_cast<uint64_t>(iters));
}

/** ThermalModel construction for the 1- and 2-core dies of @p spec. */
void
probeThermalBuild(const Options &o, const RunSpec &spec, SpanLog &log)
{
    SimConfig cfg = runSpecConfig(spec);
    const int reps = o.tiny ? 1 : 10;
    for (int r = 0; r < reps; ++r)
        for (int cores : {1, 2}) {
            TopologyParams tp = cfg.topology;
            tp.numCores = cores;
            Topology topo(Floorplan::ev6(), tp);
            int span = log.begin("thermal.build");
            ThermalModel model(topo, cfg.thermal);
            log.end(span);
            if (model.network().numNodes() <= 0)
                throw std::runtime_error("empty thermal network");
        }
}

/** Simulator::save / restore at the first sensor boundary of @p spec,
 *  the point a prefix or batch scout first snapshots. */
double
probeSnapshot(const Options &o, const RunSpec &spec, long cell,
              SpanLog &log)
{
    auto scout = makePrefixSimulator(spec);
    scout->beginScout();
    if (scout->runScoutChunk() != Simulator::ScoutChunk::AtSensor)
        return 0.0;
    scout->thermal().step(scout->pendingThermalPower(), scout->sensorDt());
    scout->finishSensorSample();

    const int reps = o.tiny ? 2 : 20;
    SimSnapshot snap;
    for (int r = 0; r < reps; ++r) {
        int span = log.begin("snapshot.save", -1, cell);
        scout->save(snap);
        log.end(span);
    }
    for (int r = 0; r < reps; ++r) {
        auto fresh = makeSimulator(spec);
        int span = log.begin("snapshot.restore", -1, cell);
        fresh->restore(snap);
        log.end(span);
    }
    return static_cast<double>(snap.sizeBytes()) / 1024.0;
}

/** Result round trips through the serialiser. */
double
probeSerialize(const Options &o, const std::vector<RunResult> &results,
               SpanLog &log, ProbeChecks &checks)
{
    // At least ~1000 round trips so per-call times are not one sample.
    size_t rounds = o.tiny ? 1 : std::max<size_t>(1, 1000 / results.size());
    uint64_t bytes = 0;
    for (size_t r = 0; r < rounds; ++r)
        for (size_t i = 0; i < results.size(); ++i) {
            int span = log.begin("serialize.encode", -1, long(i));
            std::vector<uint8_t> enc = encodeRunResult(results[i]);
            log.end(span);
            span = log.begin("serialize.decode", -1, long(i));
            RunResult dec = decodeRunResult(enc);
            log.end(span);
            bytes += enc.size();
            ++checks.attempted;
            if (!(dec == results[i]))
                ++checks.failed;
        }
    return static_cast<double>(bytes) /
           static_cast<double>(rounds * results.size());
}

/** Disk store put/get and the campaign manifest over the matrix. */
void
probeStore(const Options &o, const Campaign &c,
           const std::vector<RunResult> &results, SpanLog &log,
           std::map<std::string, double> &out, ProbeChecks &checks)
{
    const std::string dir = o.out + "/probe_store";
    std::filesystem::remove_all(dir);
    {
        DiskResultStore disk(dir);
        for (size_t i = 0; i < results.size(); ++i) {
            int span = log.begin("store.put", -1, long(i));
            bool ok = disk.store(c.specs[i], results[i]);
            log.end(span);
            ++checks.attempted;
            if (!ok)
                ++checks.failed;
        }
        uint64_t loads = 0;
        for (size_t i = 0; i < results.size(); ++i) {
            RunResult back;
            int span = log.begin("store.get", -1, long(i));
            DiskResultStore::LoadStatus st = disk.load(c.specs[i], back);
            log.end(span);
            ++loads;
            ++checks.attempted;
            if (st != DiskResultStore::LoadStatus::Hit ||
                !(back == results[i]))
                ++checks.failed;
        }
        out["store.hit_frac"] =
            static_cast<double>(disk.hits()) / static_cast<double>(loads);
        out["store.corrupt"] = static_cast<double>(disk.corrupt());

        // The first prepareCampaign() writes the manifest; the second
        // is the restart that loads, validates and counts it.
        prepareCampaign(disk, c.specs);
        int span = log.begin("manifest.load");
        CampaignResume r = prepareCampaign(disk, c.specs);
        log.end(span);
        ++checks.attempted;
        if (!r.resumed || r.storedCells != c.specs.size())
            ++checks.failed;
        CampaignManifest m = makeManifest(c.specs);
        span = log.begin("manifest.save");
        bool ok = saveManifest(manifestPath(dir), m);
        log.end(span);
        ++checks.attempted;
        if (!ok)
            ++checks.failed;
    }
    std::filesystem::remove_all(dir);
}

/** Handshake and whole jobs against one in-process HSRP worker. */
void
probeRemote(const Campaign &c, const std::vector<RunResult> &results,
            const std::vector<size_t> &cells, SpanLog &log,
            std::map<std::string, double> &out, ProbeChecks &checks)
{
    LocalWorkers worker(1);
    RemoteWorker rw(worker.endpoints()[0]);
    int span = log.begin("remote.handshake");
    bool ok = rw.ensureConnected();
    log.end(span);
    if (!ok)
        throw std::runtime_error("in-process worker refused handshake");

    std::vector<double> overhead;
    uint64_t lost = 0;
    for (size_t i : cells) {
        double sim0 = rw.telemetry().simSeconds;
        double t0 = now();
        RunResult r;
        span = log.begin("remote.job", -1, long(i));
        bool done = rw.runJob(i, c.specs[i], nullptr, r);
        log.end(span);
        double wall = now() - t0;
        ++checks.attempted;
        if (!done) {
            ++lost;
            ++checks.failed;
            break;
        }
        if (!(r == results[i]))
            ++checks.failed;
        overhead.push_back(wall - (rw.telemetry().simSeconds - sim0));
    }
    out["remote.job_overhead_ms_p50"] = median(overhead) * 1e3;
    out["remote.requeued_frac"] =
        static_cast<double>(lost) / static_cast<double>(cells.size());
}

} // namespace

void
probeLayers(const Options &o, const Campaign &c,
            const std::vector<RunResult> &results,
            const std::vector<size_t> &sample, SpanLog &log,
            std::map<std::string, double> &out, ProbeChecks &checks)
{
    // Lane count of the multi-RHS kernel: the largest divergence
    // group, capped at the widths the batch engine is tested at.
    std::map<std::string, int> groups;
    int widest = 1;
    for (const RunSpec &s : c.specs)
        widest = std::max(widest, ++groups[s.divergenceKey()]);
    int lanes = std::clamp(widest, 2, 32);

    double kib = 0;
    for (size_t i : sample) {
        probeCore(o, c.specs[i], long(i), lanes, log);
        kib = std::max(kib, probeSnapshot(o, c.specs[i], long(i), log));
    }
    probeThermalBuild(o, c.specs[sample.front()], log);
    out["smt.tick_ns"] = log.perUnit("smt.tick") * 1e9;
    out["smt.stall_ns"] = log.perUnit("smt.stall") * 1e9;
    out["power.window_us"] = log.perUnit("power.window") * 1e6;
    out["thermal.step_us"] = log.perUnit("thermal.step") * 1e6;
    out["thermal.stepbatch_mups"] =
        1e-6 / log.perUnit("thermal.stepbatch");
    out["thermal.build_ms"] = log.perUnit("thermal.build") * 1e3;
    out["snapshot.save_us"] = log.perUnit("snapshot.save") * 1e6;
    out["snapshot.restore_us"] = log.perUnit("snapshot.restore") * 1e6;
    out["snapshot.kib"] = kib;

    out["serialize.result_bytes"] =
        probeSerialize(o, results, log, checks);
    out["serialize.encode_us"] = log.perUnit("serialize.encode") * 1e6;
    out["serialize.decode_us"] = log.perUnit("serialize.decode") * 1e6;

    probeStore(o, c, results, log, out, checks);
    out["store.put_us"] = log.perUnit("store.put") * 1e6;
    out["store.get_us"] = log.perUnit("store.get") * 1e6;
    out["manifest.load_ms"] = log.perUnit("manifest.load") * 1e3;
    out["manifest.save_ms"] = log.perUnit("manifest.save") * 1e3;

    // Whole jobs cost a full cell each: two are enough for the
    // per-job overhead, which does not depend on the cell.
    std::vector<size_t> jobs(sample.begin(),
                             sample.begin() +
                                 std::min<size_t>(2, sample.size()));
    probeRemote(c, results, jobs, log, out, checks);
    out["remote.handshake_ms"] = log.perUnit("remote.handshake") * 1e3;
}

} // namespace cbench
