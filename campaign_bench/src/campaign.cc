#include "campaign.hh"

#include <sched.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "common/rng.hh"
#include "isa/assembler.hh"
#include "sim/experiment.hh"
#include "sim/manifest.hh"
#include "sim/serialize.hh"
#include "workload/generator.hh"
#include "workload/malicious.hh"
#include "workload/spec_profiles.hh"

namespace cbench {

using namespace hs;

namespace {

/** SPEC profiles whose victim + variant cells cost about the same to
 *  simulate (within ~10% at HS_SCALE=800; vortex, ~15% cheaper, is
 *  left out), so a seed's choice among them moves host time little. */
const std::vector<std::string> kVictimPool = {"crafty", "eon", "gcc",
                                              "twolf"};

/** Low-power SPEC profiles: every pair of them stays below 352 K, far
 *  under any threshold, so a benign pair's cells all fork from one
 *  full-quantum prefix whatever the seed pairs up. Every pair also
 *  simulates faster than the fixed gcc solo cell (at HS_SCALE=800:
 *  0.13-0.18 s against 0.20 s; pairs with bzip2 or parser take up to
 *  0.26 s), so gcc's prefix, not the seed, sets the length of the
 *  serial prefix phase. */
const std::vector<std::string> kBenignPool = {"ammp", "art", "gap", "mcf"};

/** Fixed Figure 5 victims of the paper-reference cells. */
const std::vector<std::string> kFig5Victims = {"gcc", "vortex"};

/** Time scale of policy_sweep and attack_solo (HS_SCALE-equivalent):
 *  short enough that a 30-second run holds a dozen passes. */
constexpr double kSweepScale = 800;

const char *const kAttackFiles[] = {"figure1_hammer", "figure2_two_phase",
                                    "stealthy_burst"};

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBounded(i)]);
}

ExperimentOptions
baseOptions(double scale)
{
    ExperimentOptions o;
    o.timeScale = scale;
    o.sink = SinkType::Realistic;
    return o;
}

RunSpec
withPolicy(RunSpec s, DtmMode mode, double upper = 356.0)
{
    s.opts.dtm = mode;
    s.opts.upperThreshold = upper;
    s.opts.lowerThreshold = upper - 1.0;
    return s;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Label of a spec's mix, e.g. "gcc+variant2". */
std::string
mixName(const RunSpec &s)
{
    std::string out;
    for (const WorkloadSpec &w : s.workloads) {
        if (!out.empty())
            out += "+";
        out += w.kind == WorkloadSpec::Kind::Variant
                   ? "variant" + std::to_string(w.variant)
                   : w.name;
    }
    return out;
}

/** Every policy lane of the paper sweep for one mix. */
void
addSweep(std::vector<RunSpec> &out, const RunSpec &mix,
         const std::vector<double> &uppers)
{
    for (DtmMode m : {DtmMode::None, DtmMode::StopAndGo,
                      DtmMode::DvfsThrottle, DtmMode::FetchGating})
        out.push_back(withPolicy(mix, m));
    for (double u : uppers)
        out.push_back(withPolicy(mix, DtmMode::SelectiveSedation, u));
}

/** policy_sweep: a Figure 4/5-style matrix at HS_SCALE=kSweepScale. */
Campaign
policySweep(const Options &o, Rng &rng)
{
    Campaign c;
    c.scale = o.tiny ? 20000 : kSweepScale;
    c.localLanes = o.jobs > 0 ? o.jobs : hostCpus();
    ExperimentOptions opts = baseOptions(c.scale);

    std::vector<std::string> pool = kVictimPool;
    shuffle(pool, rng);
    double offset = (static_cast<double>(rng.nextBounded(11)) - 5) * 0.05;
    std::vector<double> uppers = {355.5 + offset, 356.5 + offset};
    const double noises[] = {0.05, 0.1, 0.15, 0.2};
    auto noisy = [&](RunSpec s) {
        s.sensorNoiseK = noises[rng.nextBounded(4)];
        return s;
    };

    // The fixed paper-reference cells open the matrix. Each victim's
    // solo cell also runs without DTM, which makes it a two-cell
    // group with a full-quantum prefix; gcc's is the longest job of
    // the serial prefix phase, so first_result_s measures that phase
    // the same way for every seed. The benign
    // cells fork from full-quantum prefixes too and cost almost
    // nothing after it. Each seeded victim role gets its own profile,
    // so one profile's cost moves the total less.
    std::vector<RunSpec> &m = c.specs;
    ExperimentOptions sg = opts;
    sg.dtm = DtmMode::StopAndGo;
    c.dutyCell = static_cast<int>(m.size());
    m.push_back(maliciousSoloSpec(1, sg));
    for (const std::string &v : kFig5Victims) {
        c.fig5Cells.push_back({static_cast<int>(m.size()),
                               static_cast<int>(m.size()) + 2});
        m.push_back(soloSpec(v, sg));
        m.push_back(withPolicy(soloSpec(v, sg), DtmMode::None));
        m.push_back(withVariantSpec(v, 2, sg));
    }

    std::vector<std::string> benign = kBenignPool;
    shuffle(benign, rng);
    addSweep(m, noisy(specPairSpec(benign[0], benign[1], opts)), uppers);
    addSweep(m, noisy(specPairSpec(benign[2], benign[3], opts)), uppers);
    RunSpec die = withVariantSpec(kFig5Victims[0], 2, opts);
    for (std::vector<int> place : {std::vector<int>{0, 0},
                                   std::vector<int>{0, 1}}) {
        RunSpec s = die.withTopology(2, place);
        m.push_back(withPolicy(s, DtmMode::StopAndGo));
        m.push_back(withPolicy(s, DtmMode::SelectiveSedation));
    }
    addSweep(m, noisy(withVariantSpec(pool[0], 1, opts)), uppers);
    addSweep(m, noisy(withVariantSpec(pool[1], 2, opts)), uppers);
    return c;
}

/** attack_solo: one cell per divergence group, --jobs 1. */
Campaign
attackSolo(const Options &o, Rng &rng)
{
    Campaign c;
    c.scale = o.tiny ? 20000 : kSweepScale;
    c.localLanes = 1;
    c.replicas = hostCpus();
    ExperimentOptions opts = baseOptions(c.scale);

    std::vector<WorkloadSpec> mixes = {WorkloadSpec::maliciousVariant(2),
                                       WorkloadSpec::maliciousVariant(3)};
    for (const char *f : kAttackFiles)
        mixes.push_back(WorkloadSpec::assembly(
            f, readFile(o.root + "/attacks/" + f + ".s")));

    // Variant 1 alone under stop-and-go opens every matrix, so the
    // first result costs the same whatever the seed. Which mixes run
    // with a victim, and under which policy, is fixed too: the seed
    // picks the victims and noise values, which move host time
    // little, not the shape of the matrix.
    ExperimentOptions sg = opts;
    sg.dtm = DtmMode::StopAndGo;
    c.specs.push_back(maliciousSoloSpec(1, sg));

    std::vector<std::string> victims = kVictimPool;
    shuffle(victims, rng);
    const bool withVictim[] = {true, true, false, true, false};
    const DtmMode policy[] = {DtmMode::StopAndGo,
                              DtmMode::SelectiveSedation,
                              DtmMode::SelectiveSedation,
                              DtmMode::StopAndGo,
                              DtmMode::SelectiveSedation};
    const double noises[] = {0.0, 0.05, 0.1};
    for (size_t i = 0; i < mixes.size(); ++i) {
        RunSpec s;
        s.opts = opts;
        s.workloads.push_back(mixes[i]);
        if (withVictim[i])
            s.workloads.insert(s.workloads.begin(),
                               WorkloadSpec::spec(victims[i]));
        s.sensorNoiseK = noises[rng.nextBounded(3)];
        c.specs.push_back(withPolicy(s, policy[i]));
    }
    return c;
}

/** store_campaign: 1000 tiny distinct cells, cold then warm. */
Campaign
storeCampaign(const Options &o, Rng &rng)
{
    Campaign c;
    c.scale = 20000;
    c.localLanes = 1;
    c.warmPass = true;
    ExperimentOptions opts = baseOptions(c.scale);

    std::vector<WorkloadSpec> firsts, seconds = {WorkloadSpec{}};
    for (const SpecProfile &p : specSuite()) {
        firsts.push_back(WorkloadSpec::spec(p.name));
        seconds.push_back(WorkloadSpec::spec(p.name));
    }
    for (int v = 1; v <= 3; ++v)
        firsts.push_back(WorkloadSpec::maliciousVariant(v));
    const DtmMode modes[] = {DtmMode::None, DtmMode::StopAndGo,
                             DtmMode::SelectiveSedation,
                             DtmMode::DvfsThrottle, DtmMode::FetchGating};
    const double noises[] = {0.0, 0.05, 0.1, 0.2};

    // The seed draws every cell, but the shape of the divergence
    // groups is the same for every seed: 400 cells alone in theirs,
    // 150 pairs and 100 triples (tiny: 18, 6 and 6). With one local
    // lane the serial prefix phase scouts every shared group in turn,
    // so its length follows the number of shared groups; a free draw
    // let that number, and first_result_s with it, move by a fifth
    // from seed to seed.
    const std::pair<int, int> shape[] = {
        {1, o.tiny ? 18 : 400}, {2, o.tiny ? 6 : 150}, {3, o.tiny ? 6 : 100}};
    std::unordered_set<std::string> mixes;
    std::unordered_set<uint64_t> seen;
    for (auto [size, groups] : shape) {
        for (int g = 0; g < groups; ++g) {
            RunSpec mix;
            do {
                mix = RunSpec{};
                mix.opts = opts;
                mix.workloads.push_back(
                    firsts[rng.nextBounded(firsts.size())]);
                const WorkloadSpec &b =
                    seconds[rng.nextBounded(seconds.size())];
                if (!b.name.empty())
                    mix.workloads.push_back(b);
                mix.sensorNoiseK = noises[rng.nextBounded(4)];
            } while (!mixes.insert(mix.divergenceKey()).second);
            for (int k = 0; k < size;) {
                DtmMode mode = modes[rng.nextBounded(5)];
                double upper = mode == DtmMode::SelectiveSedation
                                   ? 355.0 + 0.25 * static_cast<double>(
                                                        rng.nextBounded(13))
                                   : 356.0;
                RunSpec s = withPolicy(mix, mode, upper);
                if (seen.insert(s.hash()).second) {
                    c.specs.push_back(std::move(s));
                    ++k;
                }
            }
        }
    }
    shuffle(c.specs, rng);
    return c;
}

/** Generate (or assemble) every distinct program of @p c once. */
void
buildPrograms(const Campaign &c, SpanLog &log, int parent)
{
    std::unordered_set<std::string> done;
    for (const RunSpec &s : c.specs) {
        for (const WorkloadSpec &w : s.workloads) {
            std::string key = w.name + "/" + std::to_string(w.variant) +
                              "/" + w.asmText;
            if (!done.insert(key).second)
                continue;
            if (w.kind == WorkloadSpec::Kind::Spec) {
                int span = log.begin("workload.generate", parent);
                Program p = synthesizeSpec(w.name);
                log.end(span);
                if (p.size() == 0)
                    throw std::runtime_error("empty program " + w.name);
                continue;
            }
            std::string text = w.asmText;
            if (w.kind == WorkloadSpec::Kind::Variant) {
                MaliciousParams mp = makeMaliciousParams(s.opts);
                text = w.variant == 1   ? variant1Asm(mp)
                       : w.variant == 2 ? variant2Asm(mp)
                                        : variant3Asm(mp);
            }
            int span = log.begin("isa.assemble", parent);
            Program p = assemble(text, w.name);
            log.end(span);
            if (p.size() == 0)
                throw std::runtime_error("empty kernel " + w.name);
        }
    }
}

} // namespace

int
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return static_cast<int>(std::thread::hardware_concurrency());
    return CPU_COUNT(&set);
}

bool
knownWorkload(const std::string &name)
{
    return name == "policy_sweep" || name == "attack_solo" ||
           name == "store_campaign";
}

LocalWorkers::LocalWorkers(int n)
{
    for (int i = 0; i < n; ++i) {
        auto w = std::make_unique<Worker>();
        w->listener = tcpListen(0);
        eps_.push_back(Endpoint{"127.0.0.1", localPort(w->listener)});
        Worker *raw = w.get();
        w->thread = std::thread([raw] { serveWorker(raw->listener); });
        workers_.push_back(std::move(w));
    }
}

LocalWorkers::~LocalWorkers()
{
    for (size_t i = 0; i < workers_.size(); ++i) {
        RemoteWorker handle(eps_[i]);
        if (handle.ensureConnected())
            handle.sendShutdown();
        workers_[i]->thread.join();
    }
}

Setup
runSetup(const Options &o, const std::vector<Endpoint> &workers,
         int index, SpanLog &log)
{
    Setup s;
    if (o.workload == "store_campaign") {
        s.storeDir = o.out + "/store_" + std::to_string(index);
        std::filesystem::remove_all(s.storeDir);
    }

    double t0 = now();
    int root = log.begin("setup");
    Rng rng(fnv1a64(reinterpret_cast<const uint8_t *>(o.workload.data()),
                    o.workload.size(), o.seed));
    int span = log.begin("spec.build", root);
    if (o.workload == "policy_sweep")
        s.campaign = policySweep(o, rng);
    else if (o.workload == "attack_solo")
        s.campaign = attackSolo(o, rng);
    else
        s.campaign = storeCampaign(o, rng);
    std::unordered_set<std::string> keys;
    for (RunSpec &spec : s.campaign.specs) {
        spec.label = mixName(spec) + "/" + dtmModeName(spec.opts.dtm);
        if (!keys.insert(spec.canonicalKey()).second)
            throw std::runtime_error("duplicate cell " + spec.label);
    }
    log.end(span, s.campaign.specs.size());

    buildPrograms(s.campaign, log, root);

    if (!s.storeDir.empty()) {
        span = log.begin("store.open", root);
        s.disk = std::make_unique<DiskResultStore>(s.storeDir);
        log.end(span);
        span = log.begin("manifest.load", root);
        CampaignResume r = prepareCampaign(*s.disk, s.campaign.specs);
        log.end(span);
        if (r.storedCells != 0)
            throw std::runtime_error("fresh store is not empty");
    }
    for (const Endpoint &ep : workers) {
        span = log.begin("remote.handshake", root);
        RemoteWorker probe(ep);
        bool ok = probe.ensureConnected();
        log.end(span);
        if (!ok)
            throw std::runtime_error("worker " + ep.str() +
                                     " refused the handshake");
    }
    log.end(root);
    s.seconds = now() - t0;
    return s;
}

} // namespace cbench
