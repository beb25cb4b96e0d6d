/**
 * @file
 * HetSim host-speed benchmark program.
 *
 * Runs one workload through the library's public entry points for a
 * fixed host-time window, checks every simulated result, and prints
 * one JSON result line as the last line of stdout:
 *
 *   hetbench --workload cpu_paper --seed 3 --seconds 20 --trace 0
 *            --refs perfbench/refs --work .bench_build/work
 *
 * Workloads: cpu_paper, cpu_contention and gpu_paper run their cells
 * serially in this process through core::runCpuExperiment /
 * runGpuExperiment; regen_store issues the paper figures' request
 * pattern through core::runSweep with fork isolation, several jobs and
 * one shared ResultStore. With --trace 1 the program alternates untimed
 * end-to-end passes with traced passes that call each layer's public
 * functions directly and record spans around them; it then prints the
 * per-layer metrics instead of the end-to-end ones. README.md lists
 * every workload and metric.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/report.hh"
#include "common/serialize.hh"
#include "core/checkpoint.hh"
#include "core/configs.hh"
#include "core/dvfs.hh"
#include "core/experiment.hh"
#include "core/result_store.hh"
#include "core/sweep.hh"
#include "cpu/multicore.hh"
#include "gpu/gpu.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "power/accountant.hh"
#include "workload/cpu_profiles.hh"
#include "workload/cpu_trace_gen.hh"
#include "workload/gpu_kernel_gen.hh"
#include "workload/gpu_profiles.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HETBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define HETBENCH_SANITIZED 1
#endif
#endif

namespace fs = std::filesystem;
using namespace hetsim;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU seconds this thread has run. Time the host stole from the VM
 *  or gave to another thread is not counted. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** CPU seconds of this process and of its children that have been
 *  waited for. */
double
processCpuSeconds()
{
    double s = 0.0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        s += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                        ru.ru_stime.tv_usec);
    }
    return s;
}

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
div0(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

uint64_t
fnv(const std::string &s)
{
    return core::storeFnv1a(s.data(), s.size());
}

std::string
hex64(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

// ---------------------------------------------------------------------
// Workloads

/** CPU design point of every cell (the paper's 2 GHz). */
constexpr double kFreqGhz = 2.0;

/** One requested (configuration, workload) cell. */
struct Cell
{
    bool gpu = false;
    core::CpuConfig cpuCfg = core::CpuConfig::BaseCmos;
    core::GpuConfig gpuCfg = core::GpuConfig::BaseCmos;
    std::string workload;
    double scale = 1.0;

    std::string config() const
    {
        return gpu ? core::gpuConfigName(gpuCfg)
                   : core::cpuConfigName(cpuCfg);
    }
    std::string name() const
    {
        return (gpu ? "gpu/" : "cpu/") + config() + "/" + workload;
    }
};

/** The request set of one workload. In-process workloads list their
 *  cells; regen_store lists the unique cells of its two matrices and
 *  requests each matrix kRegenRepeats times. */
struct Plan
{
    bool regen = false;
    std::vector<Cell> cells;
    std::vector<Cell> regenCpu; ///< figure7Configs() x 14 apps.
    std::vector<Cell> regenGpu; ///< figure10Configs() x 10 kernels.
};

constexpr double kCpuPaperScale = 0.1;
constexpr double kContentionScale = 0.5;
constexpr double kGpuPaperScale = 0.5;
constexpr double kRegenCpuScale = 0.02;
constexpr double kRegenGpuScale = 0.1;
/** Mid-run checkpoint cadence of regen_store cells (chip cycles). */
constexpr uint64_t kRegenCheckpointEvery = 20000;
/** Figures 7/8/9 and 10/11/12 each request the same matrix. */
constexpr int kRegenRepeats = 3;
constexpr long kMaxJobs = 4;

const std::vector<core::CpuConfig> kPaperCpuConfigs = {
    core::CpuConfig::BaseCmos, core::CpuConfig::BaseTfet,
    core::CpuConfig::BaseHet, core::CpuConfig::AdvHet,
    core::CpuConfig::AdvHet2X};
const std::vector<core::GpuConfig> kPaperGpuConfigs = {
    core::GpuConfig::BaseCmos, core::GpuConfig::BaseTfet,
    core::GpuConfig::BaseHet, core::GpuConfig::AdvHet,
    core::GpuConfig::AdvHet2X};

Cell
cpuCell(core::CpuConfig cfg, const std::string &app, double scale)
{
    Cell c;
    c.cpuCfg = cfg;
    c.workload = app;
    c.scale = scale;
    return c;
}

Cell
gpuCell(core::GpuConfig cfg, const std::string &kernel, double scale)
{
    Cell c;
    c.gpu = true;
    c.gpuCfg = cfg;
    c.workload = kernel;
    c.scale = scale;
    return c;
}

std::optional<Plan>
makePlan(const std::string &name)
{
    Plan p;
    if (name == "cpu_paper") {
        for (auto cfg : kPaperCpuConfigs)
            for (const char *app : {"water-sp", "blackscholes", "lu",
                                    "canneal", "radix", "raytrace"})
                p.cells.push_back(cpuCell(cfg, app, kCpuPaperScale));
    } else if (name == "cpu_contention") {
        for (auto cfg : {core::CpuConfig::BaseCmos,
                         core::CpuConfig::AdvHet})
            for (const char *app : {"lock_heavy", "false_share",
                                    "prodcons", "barrier_sync"})
                p.cells.push_back(cpuCell(cfg, app, kContentionScale));
    } else if (name == "gpu_paper") {
        for (auto cfg : kPaperGpuConfigs)
            for (const char *k : {"matrixmul", "nbody", "reduction",
                                  "matrixtranspose", "bitonicsort",
                                  "histogram"})
                p.cells.push_back(gpuCell(cfg, k, kGpuPaperScale));
    } else if (name == "regen_store") {
        p.regen = true;
        for (auto cfg : core::figure7Configs())
            for (const auto &app : workload::cpuApps())
                p.regenCpu.push_back(
                    cpuCell(cfg, app.name, kRegenCpuScale));
        for (auto cfg : core::figure10Configs())
            for (const auto &k : workload::gpuKernels())
                p.regenGpu.push_back(gpuCell(cfg, k.name, kRegenGpuScale));
        p.cells = p.regenCpu;
        p.cells.insert(p.cells.end(), p.regenGpu.begin(),
                       p.regenGpu.end());
    } else {
        return std::nullopt;
    }
    return p;
}

/** Simulated outcome of one cell, whichever way it was produced. */
struct CellRec
{
    std::string name;
    bool gpu = false;
    std::string config;
    std::string workload;
    bool ok = false;
    uint64_t cycles = 0;
    uint64_t ops = 0;
    double seconds = 0.0;
    double energyJ = 0.0;
    double ms = 0.0;      ///< Host latency.
    uint64_t hash = 0;    ///< FNV-64 of the result bytes.
};

// ---------------------------------------------------------------------
// Paper reference values (EXPERIMENTS.md, normalized to BaseCMOS)

struct PaperPoint
{
    const char *config;
    double time;
    double energy;
};

const PaperPoint kPaperCpu[] = {{"BaseTFET", 1.96, 0.24},
                                {"BaseHet", 1.40, 0.65},
                                {"AdvHet", 1.10, 0.61},
                                {"AdvHet-2X", 0.68, 0.66}};
const PaperPoint kPaperGpu[] = {{"BaseTFET", 2.0, 0.25},
                                {"BaseHet", 1.28, 0.65},
                                {"AdvHet", 1.20, 0.60},
                                {"AdvHet-2X", 0.70, 0.66}};

/** Mean absolute deviation (%) of the mean normalized time and energy
 *  of each configuration from the paper's value; -1 when no cell has
 *  a paper counterpart. */
double
paperErrPct(const std::vector<CellRec> &recs)
{
    double err = 0.0;
    int terms = 0;
    for (bool gpu : {false, true}) {
        std::map<std::string, const CellRec *> base;
        for (const auto &r : recs)
            if (r.gpu == gpu && r.config == "BaseCMOS")
                base[r.workload] = &r;
        for (const PaperPoint &pp : gpu ? kPaperGpu : kPaperCpu) {
            double t = 0.0, e = 0.0;
            int n = 0;
            for (const auto &r : recs) {
                if (r.gpu != gpu || r.config != pp.config)
                    continue;
                const auto b = base.find(r.workload);
                if (b == base.end() || b->second->seconds <= 0.0 ||
                    b->second->energyJ <= 0.0)
                    continue;
                t += r.seconds / b->second->seconds;
                e += r.energyJ / b->second->energyJ;
                ++n;
            }
            if (n == 0)
                continue;
            err += std::fabs(t / n - pp.time) / pp.time;
            err += std::fabs(e / n - pp.energy) / pp.energy;
            terms += 2;
        }
    }
    return terms ? 100.0 * err / terms : -1.0;
}

// ---------------------------------------------------------------------
// Spans

/** In-memory span recorder. A span has a name, start, end, the span
 *  that caused it, and the id of the cell it belongs to; aggregated
 *  spans (per-call timings folded into one) also carry a call count. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        int cell = -1;
        double startUs = 0.0;
        double durUs = 0.0;
        uint64_t calls = 1;
    };

    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    int open(const std::string &name, int cell)
    {
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.cell = cell;
        s.startUs = usSinceEpoch(Clock::now());
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int id)
    {
        spans_[id].durUs = usSinceEpoch(Clock::now()) - spans_[id].startUs;
        if (!stack_.empty() && stack_.back() == id)
            stack_.pop_back();
    }

    /** Fold `calls` timed calls of `ns` total into one child span of
     *  `parent`, placed at the parent's start. */
    void aggregate(const std::string &name, int parent, double ns,
                   uint64_t calls)
    {
        Span s;
        s.name = name;
        s.parent = parent;
        s.cell = parent >= 0 ? spans_[parent].cell : -1;
        s.startUs = parent >= 0 ? spans_[parent].startUs : 0.0;
        s.durUs = ns / 1000.0;
        s.calls = calls;
        spans_.push_back(std::move(s));
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time (span minus its children), in ms, summed by name. */
    std::map<std::string, double> selfMsByName() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[s.parent] += s.durUs;
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] += (spans_[i].durUs - child[i]) / 1000.0;
        return out;
    }

    /** Total duration in ms, summed by name. */
    std::map<std::string, double> totalMsByName() const
    {
        std::map<std::string, double> out;
        for (const Span &s : spans_)
            out[s.name] += s.durUs / 1000.0;
        return out;
    }

    /** Append every span as a chrome://tracing "X" event. */
    void writeEvents(std::ostream &os, int pass, bool &first) const
    {
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << pass
               << ",\"ts\":" << obs::jsonDouble(s.startUs)
               << ",\"dur\":" << obs::jsonDouble(s.durUs)
               << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
               << ",\"cell\":" << s.cell << ",\"calls\":" << s.calls
               << "}}";
            first = false;
        }
    }

  private:
    double usSinceEpoch(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tr, const std::string &name, int cell)
        : tr_(tr), id_(tr.open(name, cell))
    {
    }
    ~Scope() { tr_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int id() const { return id_; }

  private:
    Tracer &tr_;
    int id_;
};

// ---------------------------------------------------------------------
// Timing decorators for the workload layer

/** One captured memory access, replayed through the mem layer. */
struct MemOp
{
    uint64_t addr;
    uint32_t unit; ///< Core (CPU) or compute unit (GPU).
    bool store;
};

/** Accesses kept per cell for the mem-layer replay. */
constexpr size_t kMaxCapture = 1u << 18;

/** Shared by the decorators of one cell. */
struct WorkloadTiming
{
    double nextNs = 0.0;
    uint64_t ops = 0;
    double wavefrontBuildNs = 0.0;
    uint64_t wavefronts = 0;
    std::vector<MemOp> capture;
};

/**
 * Times a cpu::TraceSource from outside. Ops are pulled from the
 * wrapped source in chunks, so two clock reads cover a chunk of next()
 * calls; the op sequence the core sees is unchanged. Memory ops are
 * captured for the mem-layer replay.
 */
class TimedTrace : public cpu::TraceSource
{
  public:
    TimedTrace(cpu::TraceSource &inner, uint32_t core, WorkloadTiming &t)
        : inner_(inner), core_(core), timing_(t)
    {
        buf_.reserve(kChunk);
    }

    bool next(cpu::MicroOp &op) override
    {
        if (pos_ == buf_.size()) {
            if (done_)
                return false;
            refill();
            if (buf_.empty())
                return false;
        }
        op = buf_[pos_++];
        return true;
    }

  private:
    static constexpr size_t kChunk = 256;

    void refill()
    {
        buf_.clear();
        pos_ = 0;
        cpu::MicroOp op;
        const auto t0 = Clock::now();
        while (buf_.size() < kChunk) {
            if (!inner_.next(op)) {
                done_ = true;
                break;
            }
            buf_.push_back(op);
        }
        timing_.nextNs += nsBetween(t0, Clock::now());
        timing_.ops += buf_.size();
        for (const cpu::MicroOp &m : buf_)
            if (cpu::isMemClass(m.cls) &&
                timing_.capture.size() < kMaxCapture)
                timing_.capture.push_back(
                    {m.addr, core_, m.cls == cpu::OpClass::Store});
    }

    cpu::TraceSource &inner_;
    uint32_t core_;
    WorkloadTiming &timing_;
    std::vector<cpu::MicroOp> buf_;
    size_t pos_ = 0;
    bool done_ = false;
};

/** TimedTrace's counterpart for one GPU wavefront program. */
class TimedProgram : public gpu::WavefrontProgram
{
  public:
    TimedProgram(std::unique_ptr<gpu::WavefrontProgram> inner,
                 uint32_t unit, WorkloadTiming &t)
        : inner_(std::move(inner)), unit_(unit), timing_(t)
    {
    }

    bool next(gpu::GpuOp &op) override
    {
        if (pos_ == buf_.size()) {
            if (done_)
                return false;
            refill();
            if (buf_.empty())
                return false;
        }
        op = buf_[pos_++];
        return true;
    }

  private:
    static constexpr size_t kChunk = 64;

    void refill()
    {
        buf_.clear();
        pos_ = 0;
        gpu::GpuOp op;
        const auto t0 = Clock::now();
        while (buf_.size() < kChunk) {
            if (!inner_->next(op)) {
                done_ = true;
                break;
            }
            buf_.push_back(op);
        }
        timing_.nextNs += nsBetween(t0, Clock::now());
        timing_.ops += buf_.size();
        for (const gpu::GpuOp &g : buf_) {
            if (g.cls != gpu::GpuOpClass::VLoad &&
                g.cls != gpu::GpuOpClass::VStore)
                continue;
            for (uint32_t l = 0; l < g.numLines &&
                                 timing_.capture.size() < kMaxCapture;
                 ++l)
                timing_.capture.push_back(
                    {g.addr + 64ull * l, unit_,
                     g.cls == gpu::GpuOpClass::VStore});
        }
    }

    std::unique_ptr<gpu::WavefrontProgram> inner_;
    uint32_t unit_;
    WorkloadTiming &timing_;
    std::vector<gpu::GpuOp> buf_;
    size_t pos_ = 0;
    bool done_ = false;
};

/** Times gpu::GpuKernel::makeWavefront and wraps each program. */
class TimedKernel : public gpu::GpuKernel
{
  public:
    TimedKernel(gpu::GpuKernel &inner, uint32_t num_cus,
                WorkloadTiming &t)
        : inner_(inner), numCus_(num_cus), timing_(t)
    {
    }

    uint32_t numWorkgroups() const override
    {
        return inner_.numWorkgroups();
    }
    uint32_t wavefrontsPerGroup() const override
    {
        return inner_.wavefrontsPerGroup();
    }

    std::unique_ptr<gpu::WavefrontProgram>
    makeWavefront(uint32_t workgroup, uint32_t wavefront) override
    {
        const auto t0 = Clock::now();
        auto prog = inner_.makeWavefront(workgroup, wavefront);
        timing_.wavefrontBuildNs += nsBetween(t0, Clock::now());
        ++timing_.wavefronts;
        return std::make_unique<TimedProgram>(
            std::move(prog), workgroup % numCus_, timing_);
    }

  private:
    gpu::GpuKernel &inner_;
    uint32_t numCus_;
    WorkloadTiming &timing_;
};

// ---------------------------------------------------------------------
// Run reports, filled from a chip the way core/experiment fills them.
// Those fill functions are internal to core/experiment, so the traced
// path mirrors them to time report filling as a span of its own. The
// traced report must hash equal to the untraced one, which keeps the
// mirror in step with the library.

const char *const kEnergyGroupNames[power::kNumEnergyGroups] = {
    "core", "l2", "l3"};

void
fillHeader(obs::RunReport &rep, const std::string &config, uint64_t seed,
           double scale, uint64_t cycles, bool timed_out, double seconds,
           const power::EnergyBreakdown &energy)
{
    rep.config = config;
    rep.seed = seed;
    rep.scale = scale;
    rep.freqGhz = kFreqGhz;
    rep.cycles = cycles;
    rep.timedOut = timed_out;
    rep.seconds = seconds;
    rep.energyJ = energy.totalJ();
    for (int g = 0; g < power::kNumEnergyGroups; ++g)
        rep.energyGroups.push_back({kEnergyGroupNames[g],
                                    energy.groupDynamicJ[g],
                                    energy.groupLeakageJ[g]});
}

obs::GroupSnapshot
snapshotAs(const StatGroup &group, uint32_t core)
{
    obs::GroupSnapshot snap = obs::snapshotGroup(group);
    snap.name = "core." + std::to_string(core) + "." + snap.name;
    return snap;
}

template <typename Activity, typename UnitFn>
void
fillUnits(obs::RunReport &rep, const Activity &activity,
          const power::EnergyBreakdown &energy, UnitFn unit_name)
{
    for (size_t i = 0; i < activity.size(); ++i) {
        obs::UnitEnergy u;
        u.name = unit_name(static_cast<int>(i));
        u.activity = activity[i];
        u.dynamicJ = energy.dynamicJ[i];
        u.leakageJ = energy.leakageJ[i];
        rep.units.push_back(std::move(u));
    }
}

void
fillCpuGroups(obs::RunReport &rep, cpu::Multicore &mc)
{
    for (uint32_t c = 0; c < mc.numCores(); ++c) {
        cpu::OooCore &core = mc.core(c);
        rep.groups.push_back(obs::snapshotGroup(core.stats()));
        rep.groups.push_back(snapshotAs(core.fuPool().stats(), c));
        rep.groups.push_back(
            snapshotAs(core.branchPredictor().stats(), c));
    }
    mem::MemHierarchy &h = mc.hierarchy();
    for (uint32_t c = 0; c < mc.numCores(); ++c) {
        rep.groups.push_back(obs::snapshotGroup(h.il1(c).stats()));
        rep.groups.push_back(obs::snapshotGroup(h.dl1(c).stats()));
        rep.groups.push_back(obs::snapshotGroup(h.l2(c).stats()));
    }
    rep.groups.push_back(obs::snapshotGroup(h.l3().stats()));
    rep.groups.push_back(obs::snapshotGroup(h.ring().stats()));
    rep.groups.push_back(obs::snapshotGroup(h.dram().stats()));
    rep.groups.push_back(obs::snapshotGroup(h.stats()));
    rep.groups.push_back(obs::snapshotGroup(mc.sync().stats()));
    if (h.scratchpad())
        rep.groups.push_back(obs::snapshotGroup(h.scratchpad()->stats()));
}

void
fillGpuGroups(obs::RunReport &rep, gpu::Gpu &g)
{
    gpu::GpuMemSystem &mem = g.memSystem();
    for (uint32_t c = 0; c < g.numCus(); ++c) {
        rep.groups.push_back(obs::snapshotGroup(g.cu(c).stats()));
        rep.groups.push_back(obs::snapshotGroup(mem.l1(c).stats()));
    }
    rep.groups.push_back(obs::snapshotGroup(mem.l2().stats()));
    rep.groups.push_back(obs::snapshotGroup(mem.dram().stats()));
}

/** Sums over the stat groups of many reports, keyed "group:counter"
 *  with the per-instance index of the group name dropped. */
class StatSums
{
  public:
    void add(const obs::RunReport &rep)
    {
        for (const obs::GroupSnapshot &g : rep.groups) {
            const std::string key = stripIndex(g.name);
            for (const auto &[name, v] : g.counters)
                sums_[key + ":" + name] += static_cast<double>(v);
            for (const obs::DistributionSnapshot &d : g.distributions) {
                sums_[key + ":" + d.name + ".count"] +=
                    static_cast<double>(d.count);
                sums_[key + ":" + d.name + ".sum"] +=
                    d.mean * static_cast<double>(d.count);
            }
        }
    }

    double get(const std::string &key) const
    {
        const auto it = sums_.find(key);
        return it == sums_.end() ? 0.0 : it->second;
    }

    double ratio(const std::string &num, const std::string &den) const
    {
        const double d = get(den);
        return d > 0.0 ? get(num) / d : 0.0;
    }

    /** Count-weighted mean of a distribution across reports. */
    double mean(const std::string &dist) const
    {
        return ratio(dist + ".sum", dist + ".count");
    }

    /** Sum of every counter of `group` whose name matches `pred`. */
    template <typename Pred>
    double sumMatching(const std::string &group, Pred pred) const
    {
        double s = 0.0;
        for (const auto &[k, v] : sums_)
            if (k.rfind(group + ":", 0) == 0 &&
                pred(k.substr(group.size() + 1)))
                s += v;
        return s;
    }

  private:
    /** "core.3" -> "core", "core.3.fu_pool" -> "core.fu_pool",
     *  "gpu.l1.5" -> "gpu.l1". */
    static std::string stripIndex(const std::string &name)
    {
        std::string out;
        size_t i = 0;
        while (i <= name.size()) {
            const size_t dot = name.find('.', i);
            const std::string part =
                name.substr(i, dot == std::string::npos ? std::string::npos
                                                        : dot - i);
            const bool numeric =
                !part.empty() &&
                part.find_first_not_of("0123456789") == std::string::npos;
            if (!numeric)
                out += (out.empty() ? "" : ".") + part;
            if (dot == std::string::npos)
                break;
            i = dot + 1;
        }
        return out;
    }

    std::map<std::string, double> sums_;
};

// ---------------------------------------------------------------------
// End-to-end execution through the public entry points

/** The CPUs this process was started on. */
const cpu_set_t &
startCpus()
{
    static const cpu_set_t set = [] {
        cpu_set_t s;
        CPU_ZERO(&s);
        sched_getaffinity(0, sizeof(s), &s);
        return s;
    }();
    return set;
}

/**
 * Move this thread to the next CPU it may run on. In-process cells
 * rotate over the CPUs one cell at a time: on a shared host the cores
 * run at different speeds that change every few hundred ms, and a
 * single-threaded run left on one core would measure that core.
 * regen_store rotates only its probes and calls releaseCpu() before a
 * sweep, whose forked jobs inherit the affinity.
 */
void
rotateCpu()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &startCpus()))
                v.push_back(c);
        return v;
    }();
    static size_t next = 0;
    if (cpus.size() < 2)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[next++ % cpus.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
}

/** Let this thread run on every CPU it started on again. */
void
releaseCpu()
{
    sched_setaffinity(0, sizeof(cpu_set_t), &startCpus());
}

/** Iterations of one host-speed probe call. */
constexpr int kProbeIters = 150000;
/** CPU seconds of one probe call on the reference host, an Intel Xeon
 *  VM core that was otherwise idle. */
constexpr double kProbeRefS = 1.6e-3;
/** Probe calls before each regen_store pass, over all CPUs. */
constexpr int kRegenProbes = 16;

volatile uint32_t g_probeSink;

/**
 * Fixed integer work that never changes with the simulator: a
 * dependent chain of loads, stores, multiplies and data-dependent
 * branches over a 16 KiB table. Its CPU time tracks how fast the host
 * runs this thread right now (clock, a busy sibling hyperthread), which
 * CPU time alone does not show. Returns the call's thread CPU seconds.
 */
double
hostProbe()
{
    static std::vector<uint32_t> table(4096);
    const double t0 = threadCpuSeconds();
    uint64_t x = 0x9e3779b97f4a7c15ull;
    uint32_t acc = 0;
    const uint32_t mask = static_cast<uint32_t>(table.size() - 1);
    for (int i = 0; i < kProbeIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint32_t idx = (static_cast<uint32_t>(x) ^ acc) & mask;
        const uint32_t v = table[idx];
        if ((v ^ static_cast<uint32_t>(x >> 32)) & 4)
            acc += v * 2654435761u;
        else
            acc ^= v >> 3;
        table[idx] = v + static_cast<uint32_t>(x);
    }
    g_probeSink = acc;
    return threadCpuSeconds() - t0;
}

/** One cell through runCpuExperiment / runGpuExperiment, with its
 *  RunReport serialized as a `hetsim_cli run --report-json` would. */
CellRec
runCell(const Cell &c, uint64_t seed)
{
    core::ExperimentOptions opts;
    opts.seed = seed;
    opts.scale = c.scale;
    opts.freqGhz = kFreqGhz;
    obs::RunReport rep;
    CellRec r;
    r.name = c.name();
    r.gpu = c.gpu;
    r.config = c.config();
    r.workload = c.workload;
    const auto t0 = Clock::now();
    std::string json;
    if (c.gpu) {
        const core::GpuOutcome out = core::runGpuExperiment(
            c.gpuCfg, workload::gpuKernel(c.workload), opts, &rep);
        json = rep.toJson();
        r.ok = !out.timedOut;
        r.cycles = out.cycles;
        r.ops = out.issuedOps;
        r.seconds = out.metrics.seconds;
        r.energyJ = out.metrics.energyJ;
    } else {
        const core::CpuOutcome out = core::runCpuExperiment(
            c.cpuCfg, workload::cpuApp(c.workload), opts, &rep);
        json = rep.toJson();
        r.ok = !out.timedOut;
        r.cycles = out.cycles;
        r.ops = out.committedOps;
        r.seconds = out.metrics.seconds;
        r.energyJ = out.metrics.energyJ;
    }
    r.ms = nsBetween(t0, Clock::now()) / 1e6;
    r.hash = fnv(json);
    return r;
}

/** Result bytes of a sweep cell: everything the sweep reports. */
uint64_t
sweepCellHash(const core::CellResult &r)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s|%" PRIu64 "|%" PRIu64 "|%a|%a",
                  core::cellOutcomeName(r.outcome), r.cycles, r.ops,
                  r.seconds, r.energyJ);
    return fnv(buf);
}

std::vector<core::SweepCell>
toSweepCells(const std::vector<Cell> &cells)
{
    std::vector<core::SweepCell> out;
    for (const Cell &c : cells)
        out.push_back(c.gpu ? core::gpuKernelCell(c.gpuCfg, c.workload,
                                                  c.scale)
                            : core::cpuAppCell(c.cpuCfg, c.workload,
                                               c.scale));
    return out;
}

core::SweepOptions
regenOptions(uint64_t seed, unsigned jobs, core::ResultStore *store,
             const std::string &ckpt_dir)
{
    core::SweepOptions so;
    so.exp.seed = seed;
    so.exp.freqGhz = kFreqGhz;
    so.exp.checkpointEveryCycles = kRegenCheckpointEvery;
    so.isolate = true;
    so.jobs = jobs;
    so.store = store;
    so.resume = true;
    so.checkpointDir = ckpt_dir;
    return so;
}

/** One runSweep call of regen_store and what it returned. */
struct SweepCall
{
    bool gpu = false;
    int repeat = 0;
    double wallMs = 0.0;
    core::SweepReport report;
};

struct RegenPass
{
    double wallS = 0.0;
    std::vector<SweepCall> calls;
    /** Store counters right after the last call. */
    core::ResultStore::Counters counters;
    std::optional<core::ResultStore> store;
};

/** The figures' request pattern against one fresh store in `dir`.
 *  The store is left in place for the caller to inspect. */
RegenPass
runRegen(const Plan &plan, uint64_t seed, unsigned jobs,
         const std::string &dir, Tracer *tr)
{
    fs::remove_all(dir);
    RegenPass pass;
    const auto t0 = Clock::now();
    auto store = core::ResultStore::open(dir + "/store");
    if (!store.ok()) {
        std::fprintf(stderr, "hetbench: store open failed: %s\n",
                     store.status().toString().c_str());
        return pass;
    }
    const std::string ckpt_dir = dir + "/ckpt";
    fs::create_directories(ckpt_dir);
    const core::SweepOptions so =
        regenOptions(seed, jobs, &store.value(), ckpt_dir);
    const auto cpu_cells = toSweepCells(plan.regenCpu);
    const auto gpu_cells = toSweepCells(plan.regenGpu);
    for (bool gpu : {false, true}) {
        for (int rep = 0; rep < kRegenRepeats; ++rep) {
            SweepCall call;
            call.gpu = gpu;
            call.repeat = rep;
            const auto c0 = Clock::now();
            std::optional<Scope> span;
            if (tr)
                span.emplace(*tr, "sweep.call", -1);
            call.report = core::runSweep(gpu ? gpu_cells : cpu_cells, so);
            span.reset();
            call.wallMs = nsBetween(c0, Clock::now()) / 1e6;
            pass.calls.push_back(std::move(call));
        }
    }
    pass.wallS = secondsSince(t0);
    pass.counters = store.value().counters();
    pass.store.emplace(std::move(store.value()));
    return pass;
}

// ---------------------------------------------------------------------
// Traced decomposition of one cell

/** Per-cell layer accounting of a traced pass. */
struct LayerAcc
{
    StatSums stats;
    uint64_t cpuOps = 0, cpuCycles = 0, cpuSkipped = 0;
    uint64_t gpuOps = 0, gpuCycles = 0, gpuSkipped = 0;
    double nextNs = 0.0;
    uint64_t nextOps = 0;
    double wavefrontBuildNs = 0.0;
    uint64_t wavefronts = 0;
    double energyNs = 0.0;
    double jsonNs = 0.0;
    double reportBytes = 0.0;
    uint64_t cells = 0;
    double memNs = 0.0, cacheNs = 0.0;
    uint64_t memAccesses = 0;
    double ckptSaveNs = 0.0, ckptLoadNs = 0.0, ckptBytes = 0.0;
    uint64_t ckptSaves = 0, ckptLoads = 0;
    double storePutNs = 0.0, storeGetNs = 0.0;
    uint64_t storePuts = 0, storeGets = 0;
    uint64_t replaySink = 0; ///< Keeps the replays observable.
};

/** Replay a cell's captured accesses through a fresh memory system of
 *  its configuration and through one DL1-shaped cache array. */
template <typename MemSystem>
void
replayMem(const std::vector<MemOp> &ops, MemSystem &sys,
          const mem::CacheParams &l1, LayerAcc &acc)
{
    if (ops.empty())
        return;
    uint64_t sink = 0;
    mem::Cycle now = 0;
    auto t0 = Clock::now();
    for (const MemOp &m : ops) {
        if constexpr (std::is_same_v<MemSystem, mem::MemHierarchy>)
            sink += sys.access(m.unit, m.addr,
                               m.store ? mem::AccessType::Store
                                       : mem::AccessType::Load,
                               now)
                        .latency;
        else
            sink += sys.access(m.unit, m.addr, m.store, now);
        now += 4;
    }
    acc.memNs += nsBetween(t0, Clock::now());
    mem::Cache cache(l1);
    t0 = Clock::now();
    for (const MemOp &m : ops) {
        const mem::LookupResult r = cache.access(m.addr);
        if (!r.hit)
            cache.fill(m.addr, m.store ? mem::CoherenceState::Modified
                                       : mem::CoherenceState::Exclusive);
        sink += r.hit;
    }
    acc.cacheNs += nsBetween(t0, Clock::now());
    acc.memAccesses += ops.size();
    acc.replaySink += sink;
}

/** Checkpoint hook whose save is timed into `acc`; the payload of the
 *  last save is kept for the load measurement. */
CheckpointHook
timedHook(uint64_t every, const std::string &path, const std::string &key,
          Tracer &tr, int cell, LayerAcc &acc, uint64_t *saves)
{
    CheckpointHook hook;
    hook.everyCycles = every;
    hook.save = [&tr, &acc, path, key, cell,
                 saves](uint64_t cycle, const std::string &payload) {
        Scope s(tr, "ckpt.save", cell);
        const auto t0 = Clock::now();
        const Status st = core::saveCheckpoint(path, key, cycle, payload);
        acc.ckptSaveNs += nsBetween(t0, Clock::now());
        acc.ckptBytes += static_cast<double>(payload.size());
        ++acc.ckptSaves;
        ++*saves;
        if (!st.ok())
            std::fprintf(stderr, "hetbench: checkpoint save failed: %s\n",
                         st.toString().c_str());
    };
    return hook;
}

/** Time loadCheckpoint + restoreState of a chip built by `make`. */
template <typename MakeChip>
void
timeRestore(const std::string &path, const std::string &key,
            MakeChip make, Tracer &tr, int cell, LayerAcc &acc)
{
    auto chip = make();
    Scope s(tr, "ckpt.load", cell);
    const auto t0 = Clock::now();
    auto loaded = core::loadCheckpoint(path, key);
    bool ok = loaded.ok();
    if (ok) {
        Deserializer des(loaded.value().payload);
        ok = chip->restoreState(des);
    }
    acc.ckptLoadNs += nsBetween(t0, Clock::now());
    ++acc.ckptLoads;
    if (!ok)
        std::fprintf(stderr, "hetbench: checkpoint restore failed\n");
    core::removeCheckpoint(path);
}


/** Header of a decomposed cell's outcome. */
CellRec
startRec(const Cell &c)
{
    CellRec r;
    r.name = c.name();
    r.gpu = c.gpu;
    r.config = c.config();
    r.workload = c.workload;
    return r;
}

/** Fold a finished decomposition into the pass's accounting. */
void
finishRec(CellRec &r, const obs::RunReport &rep, const std::string &json,
          const WorkloadTiming &timing, LayerAcc &acc)
{
    r.hash = fnv(json);
    acc.stats.add(rep);
    acc.nextNs += timing.nextNs;
    acc.nextOps += timing.ops;
    acc.wavefrontBuildNs += timing.wavefrontBuildNs;
    acc.wavefronts += timing.wavefronts;
    acc.reportBytes += static_cast<double>(json.size());
    ++acc.cells;
}

/** RunReport::toJson, timed. */
std::string
timedJson(const obs::RunReport &rep, Tracer &tr, int cell_id,
          LayerAcc &acc)
{
    Scope s(tr, "report.json", cell_id);
    const auto t0 = Clock::now();
    std::string json = rep.toJson();
    acc.jsonNs += nsBetween(t0, Clock::now());
    return json;
}

/**
 * Run one CPU cell by calling each layer's public functions in the
 * order runCpuBundle calls them, with a span around each call. The
 * "cell" span covers exactly that path. With `ckpt_every` > 0 the chip
 * checkpoints at that cadence, as a regen_store sweep cell does, and
 * the last checkpoint is restored into a fresh chip afterwards. The
 * captured memory accesses are then replayed through the mem layer.
 */
CellRec
decomposeCpu(const Cell &c, uint64_t seed, uint64_t ckpt_every,
             const std::string &ckpt_path, Tracer &tr, int cell_id,
             LayerAcc &acc)
{
    CellRec r = startRec(c);
    WorkloadTiming timing;
    const std::string key = "hetbench|" + r.name;
    uint64_t saves = 0;
    const auto &app = workload::cpuApp(c.workload);
    std::optional<Scope> cell;
    cell.emplace(tr, "cell", cell_id);
    const auto t0 = Clock::now();

    core::CpuConfigBundle bundle;
    {
        Scope s(tr, "core.config", cell_id);
        bundle = core::makeCpuConfig(c.cpuCfg, kFreqGhz);
    }
    bundle.sim.watchdogCycles = 0;
    bundle.sim.skipEnabled = true;
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    {
        Scope s(tr, "workload.build", cell_id);
        traces = workload::makeCpuWorkload(app, bundle.numCores, seed,
                                           c.scale);
    }
    std::vector<std::unique_ptr<TimedTrace>> timed;
    std::vector<cpu::TraceSource *> ptrs;
    for (size_t i = 0; i < traces.size(); ++i) {
        timed.push_back(std::make_unique<TimedTrace>(
            *traces[i], static_cast<uint32_t>(i), timing));
        ptrs.push_back(timed.back().get());
    }
    std::unique_ptr<cpu::Multicore> mc;
    {
        Scope s(tr, "cpu.chip_build", cell_id);
        mc = std::make_unique<cpu::Multicore>(bundle.sim, ptrs);
    }
    if (ckpt_every > 0)
        mc->setCheckpointHook(timedHook(ckpt_every, ckpt_path, key, tr,
                                        cell_id, acc, &saves));
    cpu::MulticoreResult run;
    {
        Scope s(tr, "cpu.run", cell_id);
        run = mc->run();
        tr.aggregate("workload.next", s.id(), timing.nextNs, timing.ops);
    }
    power::CpuActivity activity = run.activity;
    if (bundle.sim.core.fu.dualSpeedAlu) {
        uint64_t fast = 0;
        for (uint32_t i = 0; i < mc->numCores(); ++i)
            fast += mc->core(i).fuPool().stats().value("fast_alu_ops");
        activity[static_cast<int>(power::CpuUnit::Alu)] -= fast;
        activity[static_cast<int>(power::CpuUnit::AluFast)] += fast;
    }
    power::EnergyBreakdown energy;
    {
        Scope s(tr, "power.energy", cell_id);
        const auto e0 = Clock::now();
        const core::OperatingPoint op = core::cpuOperatingPoint(kFreqGhz);
        energy = power::computeCpuEnergy(activity, bundle.units,
                                         run.seconds, bundle.numCores,
                                         op.scales);
        acc.energyNs += nsBetween(e0, Clock::now());
    }
    obs::RunReport rep;
    {
        Scope s(tr, "report.fill", cell_id);
        rep.kind = "cpu";
        rep.workload = c.workload;
        rep.ops = run.committedOps;
        fillHeader(rep, r.config, seed, c.scale, run.cycles, run.timedOut,
                   run.seconds, energy);
        fillUnits(rep, activity, energy, [](int i) {
            return power::cpuUnitPower(static_cast<power::CpuUnit>(i)).name;
        });
        fillCpuGroups(rep, *mc);
    }
    const std::string json = timedJson(rep, tr, cell_id, acc);
    r.ms = nsBetween(t0, Clock::now()) / 1e6;
    cell.reset();

    r.ok = !run.timedOut;
    r.cycles = run.cycles;
    r.ops = run.committedOps;
    r.seconds = run.seconds;
    r.energyJ = energy.totalJ();
    acc.cpuOps += run.committedOps;
    acc.cpuCycles += run.cycles;
    acc.cpuSkipped += run.skippedCycles;
    finishRec(r, rep, json, timing, acc);

    // The restored chip replays its consumed ops from fresh traces,
    // which must outlive it.
    std::vector<std::unique_ptr<cpu::TraceSource>> fresh;
    if (saves > 0)
        timeRestore(
            ckpt_path, key,
            [&] {
                fresh = workload::makeCpuWorkload(app, bundle.numCores,
                                                  seed, c.scale);
                std::vector<cpu::TraceSource *> fresh_ptrs;
                for (auto &t : fresh)
                    fresh_ptrs.push_back(t.get());
                return std::make_unique<cpu::Multicore>(bundle.sim,
                                                        fresh_ptrs);
            },
            tr, cell_id, acc);
    Scope s(tr, "mem.replay", cell_id);
    mem::MemHierarchy replay(bundle.sim.mem);
    mem::CacheParams l1;
    l1.name = "replay.dl1";
    l1.sizeBytes = bundle.sim.mem.dl1SizeBytes;
    l1.ways = bundle.sim.mem.dl1Ways;
    l1.asymmetric = bundle.sim.mem.asymDl1;
    replayMem(timing.capture, replay, l1, acc);
    return r;
}

/** decomposeCpu's counterpart along runGpuBundle's path. */
CellRec
decomposeGpu(const Cell &c, uint64_t seed, uint64_t ckpt_every,
             const std::string &ckpt_path, Tracer &tr, int cell_id,
             LayerAcc &acc)
{
    CellRec r = startRec(c);
    WorkloadTiming timing;
    const std::string key = "hetbench|" + r.name;
    uint64_t saves = 0;
    const auto &profile = workload::gpuKernel(c.workload);
    std::optional<Scope> cell;
    cell.emplace(tr, "cell", cell_id);
    const auto t0 = Clock::now();

    core::GpuConfigBundle bundle;
    {
        Scope s(tr, "core.config", cell_id);
        bundle = core::makeGpuConfig(c.gpuCfg, kFreqGhz / 2.0);
    }
    bundle.sim.watchdogCycles = 0;
    bundle.sim.skipEnabled = true;
    std::unique_ptr<workload::SyntheticKernel> kernel;
    {
        Scope s(tr, "workload.build", cell_id);
        kernel = std::make_unique<workload::SyntheticKernel>(profile, seed,
                                                             c.scale);
    }
    TimedKernel timed(*kernel, bundle.sim.numCus, timing);
    std::unique_ptr<gpu::Gpu> g;
    {
        Scope s(tr, "gpu.chip_build", cell_id);
        g = std::make_unique<gpu::Gpu>(bundle.sim);
    }
    if (ckpt_every > 0)
        g->setCheckpointHook(timedHook(ckpt_every, ckpt_path, key, tr,
                                       cell_id, acc, &saves));
    gpu::GpuResult run;
    {
        Scope s(tr, "gpu.run", cell_id);
        run = g->run(timed);
        tr.aggregate("workload.next", s.id(), timing.nextNs, timing.ops);
        tr.aggregate("workload.wavefront_build", s.id(),
                     timing.wavefrontBuildNs, timing.wavefronts);
    }
    power::EnergyBreakdown energy;
    {
        Scope s(tr, "power.energy", cell_id);
        const auto e0 = Clock::now();
        energy = power::computeGpuEnergy(run.activity, bundle.units,
                                         run.seconds, bundle.numCus);
        acc.energyNs += nsBetween(e0, Clock::now());
    }
    obs::RunReport rep;
    {
        Scope s(tr, "report.fill", cell_id);
        rep.kind = "gpu";
        rep.workload = c.workload;
        rep.ops = run.issuedOps;
        fillHeader(rep, r.config, seed, c.scale, run.cycles, run.timedOut,
                   run.seconds, energy);
        fillUnits(rep, run.activity, energy, [](int i) {
            return power::gpuUnitPower(static_cast<power::GpuUnit>(i)).name;
        });
        fillGpuGroups(rep, *g);
    }
    const std::string json = timedJson(rep, tr, cell_id, acc);
    r.ms = nsBetween(t0, Clock::now()) / 1e6;
    cell.reset();

    r.ok = !run.timedOut;
    r.cycles = run.cycles;
    r.ops = run.issuedOps;
    r.seconds = run.seconds;
    r.energyJ = energy.totalJ();
    acc.gpuOps += run.issuedOps;
    acc.gpuCycles += run.cycles;
    acc.gpuSkipped += run.skippedCycles;
    finishRec(r, rep, json, timing, acc);

    if (saves > 0)
        timeRestore(
            ckpt_path, key,
            [&] { return std::make_unique<gpu::Gpu>(bundle.sim); }, tr,
            cell_id, acc);
    Scope s(tr, "mem.replay", cell_id);
    gpu::GpuMemSystem replay(bundle.sim);
    mem::CacheParams l1;
    l1.name = "replay.l1";
    l1.sizeBytes = bundle.sim.l1SizeBytes;
    l1.ways = bundle.sim.l1Ways;
    replayMem(timing.capture, replay, l1, acc);
    return r;
}

CellRec
decomposeCell(const Cell &c, uint64_t seed, uint64_t ckpt_every,
              const std::string &ckpt_path, Tracer &tr, int cell_id,
              LayerAcc &acc)
{
    return c.gpu ? decomposeGpu(c, seed, ckpt_every, ckpt_path, tr,
                                cell_id, acc)
                 : decomposeCpu(c, seed, ckpt_every, ckpt_path, tr,
                                cell_id, acc);
}

// ---------------------------------------------------------------------
// Correctness gate

/** Reference result hashes of one workload, keyed (seed, cell name). */
using Refs = std::map<std::pair<uint64_t, std::string>, uint64_t>;

Refs
loadRefs(const std::string &path)
{
    Refs refs;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        uint64_t seed = 0;
        std::string name, hash;
        if (ls >> seed >> name >> hash)
            refs[{seed, name}] = std::strtoull(hash.c_str(), nullptr, 16);
    }
    return refs;
}

/**
 * Counts attempted and failed cells. A cell fails when it did not
 * complete or when its result bytes differ from the expected hash:
 * the shipped reference for its seed, or else the first result this
 * run observed for the same cell.
 */
class Checker
{
  public:
    Checker(const Refs &refs, uint64_t seed)
    {
        for (const auto &[k, h] : refs)
            if (k.first == seed)
                expected_[k.second] = h;
        shipped_ = !expected_.empty();
    }

    bool shipped() const { return shipped_; }

    void check(const CellRec &r, const char *what)
    {
        ++attempted_;
        if (!r.ok) {
            fail(r.name, what, "did not complete");
            return;
        }
        const auto it = expected_.find(r.name);
        if (it == expected_.end()) {
            if (shipped_)
                fail(r.name, what, "has no reference result");
            else
                expected_[r.name] = r.hash;
        } else if (it->second != r.hash) {
            fail(r.name, what, "result differs from the reference");
        }
    }

    /** A traced decomposition must reproduce the untraced cell. */
    void checkSame(const CellRec &traced, const CellRec *untraced)
    {
        ++attempted_;
        if (untraced == nullptr)
            fail(traced.name, "traced", "has no untraced counterpart");
        else if (traced.cycles != untraced->cycles ||
                 traced.ops != untraced->ops ||
                 traced.hash != untraced->hash)
            fail(traced.name, "traced", "differs from the untraced cell");
    }

    void fail(const std::string &name, const char *what, const char *why)
    {
        ++failed_;
        if (failed_ <= 20)
            std::fprintf(stderr, "hetbench: FAILED %s cell %s %s\n", what,
                         name.c_str(), why);
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    std::map<std::string, uint64_t> expected_;
    bool shipped_ = false;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/**
 * Run `c` layer by layer and require the result of its untraced
 * request. Sweep cells carry outcome and metrics rather than a report,
 * so for regen_store those are compared. Returns the cell span's
 * seconds.
 */
double
checkDecomposed(const Plan &plan, const Cell &c, const CellRec *untraced,
                uint64_t seed, const std::string &work, Tracer &tr, int id,
                LayerAcc &acc, Checker &chk)
{
    CellRec r = decomposeCell(c, seed,
                              plan.regen ? kRegenCheckpointEvery : 0,
                              work + "/bench.hckp", tr, id, acc);
    if (plan.regen) {
        core::CellResult res;
        res.outcome =
            r.ok ? core::CellOutcome::Ok : core::CellOutcome::TimedOut;
        res.cycles = r.cycles;
        res.ops = r.ops;
        res.seconds = r.seconds;
        res.energyJ = r.energyJ;
        r.hash = sweepCellHash(res);
    }
    chk.checkSame(r, untraced);
    return r.ms / 1e3;
}

// ---------------------------------------------------------------------
// Passes

/** One end-to-end pass over the workload's request set. */
struct Pass
{
    double wallS = 0.0; ///< Wall time of the cells or sweep calls.
    /** CPU time of the pass: the cells' thread CPU time in process;
     *  the process and its jobs for regen_store. */
    double cpuS = 0.0;
    uint64_t execOps = 0;
    uint64_t execCycles = 0;
    /** Host ms of each executed cell: thread CPU time in process; for
     *  regen_store the pass's CPU time shared out by wallMs. */
    std::vector<double> execMs;
    std::vector<double> probeS; ///< hostProbe() calls of the pass.
    /** One record per unique cell: the first request's result. */
    std::vector<CellRec> recs;
    RegenPass regen;
};

/** Sweep results of a regen_store pass as cell records. */
void
collectRegen(Pass &pass, const Plan &plan, Checker &chk)
{
    for (const SweepCall &call : pass.regen.calls) {
        const auto &cells = call.gpu ? plan.regenGpu : plan.regenCpu;
        for (size_t i = 0; i < call.report.results.size(); ++i) {
            const core::CellResult &res = call.report.results[i];
            CellRec r;
            r.name = cells[i].name();
            r.gpu = cells[i].gpu;
            r.config = cells[i].config();
            r.workload = cells[i].workload;
            r.ok = res.outcome == core::CellOutcome::Ok;
            r.cycles = res.cycles;
            r.ops = res.ops;
            r.seconds = res.seconds;
            r.energyJ = res.energyJ;
            r.ms = res.wallMs;
            r.hash = sweepCellHash(res);
            chk.check(r, "sweep");
            if (call.repeat > 0 && !res.fromStore)
                chk.fail(r.name, "sweep",
                         "warm request was not served from the store");
            if (res.fromStore)
                continue;
            pass.execOps += res.ops;
            pass.execCycles += res.cycles;
            pass.execMs.push_back(res.wallMs);
            if (call.repeat == 0)
                pass.recs.push_back(r);
        }
    }
}

Pass
runPass(const Plan &plan, uint64_t seed, unsigned jobs,
        const std::string &work, Checker &chk, Tracer *tr)
{
    Pass pass;
    if (plan.regen) {
        // The jobs run on every CPU, so probe each CPU in turn before
        // the pass.
        for (int i = 0; i < kRegenProbes; ++i) {
            rotateCpu();
            pass.probeS.push_back(hostProbe());
        }
        releaseCpu();
        const double cpu0 = processCpuSeconds();
        pass.regen = runRegen(plan, seed, jobs, work + "/regen", tr);
        pass.cpuS = processCpuSeconds() - cpu0;
        pass.wallS = pass.regen.wallS;
        collectRegen(pass, plan, chk);
        // A job's wallMs includes time its CPU ran something else;
        // give each executed cell its wallMs share of the CPU time.
        double sum_ms = 0.0;
        for (double ms : pass.execMs)
            sum_ms += ms;
        for (double &ms : pass.execMs)
            ms *= div0(pass.cpuS * 1e3, sum_ms);
        return pass;
    }
    for (const Cell &c : plan.cells) {
        rotateCpu();
        const double cpu0 = threadCpuSeconds();
        pass.recs.push_back(runCell(c, seed));
        const double cell_s = threadCpuSeconds() - cpu0;
        // On the CPU the cell ran on, while it is still busy.
        pass.probeS.push_back(hostProbe());
        pass.cpuS += cell_s;
        pass.wallS += pass.recs.back().ms / 1e3;
        pass.execMs.push_back(cell_s * 1e3);
    }
    for (const CellRec &r : pass.recs) {
        chk.check(r, "untraced");
        pass.execOps += r.ops;
        pass.execCycles += r.cycles;
    }
    return pass;
}

/**
 * Set-up of every executed cell, without simulating: configuration
 * bundle, workload construction and chip construction (plus the store
 * open for regen_store). Returns thread CPU seconds.
 */
double
setupPass(const Plan &plan, uint64_t seed, const std::string &work)
{
    double total = 0.0;
    if (plan.regen) {
        const std::string dir = work + "/setup-store";
        fs::remove_all(dir);
        const double t0 = threadCpuSeconds();
        auto store = core::ResultStore::open(dir);
        total += threadCpuSeconds() - t0;
        fs::remove_all(dir);
    }
    for (const Cell &c : plan.cells) {
        if (!plan.regen)
            rotateCpu();
        const double t0 = threadCpuSeconds();
        if (c.gpu) {
            const core::GpuConfigBundle b =
                core::makeGpuConfig(c.gpuCfg, kFreqGhz / 2.0);
            workload::SyntheticKernel k(workload::gpuKernel(c.workload),
                                        seed, c.scale);
            gpu::Gpu g(b.sim);
            total += threadCpuSeconds() - t0;
        } else {
            const core::CpuConfigBundle b =
                core::makeCpuConfig(c.cpuCfg, kFreqGhz);
            auto traces = workload::makeCpuWorkload(
                workload::cpuApp(c.workload), b.numCores, seed, c.scale);
            std::vector<cpu::TraceSource *> ptrs;
            for (auto &t : traces)
                ptrs.push_back(t.get());
            cpu::Multicore mc(b.sim, ptrs);
            total += threadCpuSeconds() - t0;
        }
    }
    return total;
}

/** Set-up passes per run: at least kMinSetupPasses, more while the
 *  run has spent less than kSetupSeconds on them. */
constexpr size_t kMinSetupPasses = 11;
constexpr size_t kMaxSetupPasses = 101;
constexpr double kSetupSeconds = 0.5;

/** Per-layer figures of one traced pass. */
using Metrics = std::map<std::string, double>;

/** Time ResultStore::get of every unique cell's real payload from the
 *  pass's store, and ResultStore::put of it into a scratch store. */
void
measureStore(const Plan &plan, uint64_t seed, unsigned jobs,
             const std::string &work, RegenPass &rp, Tracer &tr,
             LayerAcc &acc)
{
    if (!rp.store)
        return;
    const std::string dir = work + "/regen/scratch-store";
    auto scratch = core::ResultStore::open(dir);
    if (!scratch.ok())
        return;
    const core::SweepOptions so =
        regenOptions(seed, jobs, nullptr, work + "/regen/ckpt");
    const auto cells = toSweepCells(plan.cells);
    for (size_t i = 0; i < cells.size(); ++i) {
        const std::string key = core::cellStoreKey(cells[i], so);
        std::optional<Result<std::string>> payload;
        {
            Scope s(tr, "store.get", static_cast<int>(i));
            const auto t0 = Clock::now();
            payload.emplace(rp.store->get(key));
            acc.storeGetNs += nsBetween(t0, Clock::now());
            ++acc.storeGets;
        }
        if (!payload->ok())
            continue;
        Scope s(tr, "store.put", static_cast<int>(i));
        const auto t0 = Clock::now();
        const Status st = scratch.value().put(key, payload->value());
        acc.storePutNs += nsBetween(t0, Clock::now());
        ++acc.storePuts;
        if (!st.ok())
            std::fprintf(stderr, "hetbench: store put failed: %s\n",
                         st.toString().c_str());
    }
}

/** Cells whose layer spans cover less than this share are flagged. */
constexpr double kMinCoverage = 0.9;

/** Share of each cell span covered by its direct child spans; cells
 *  below kMinCoverage are reported on stderr. */
std::vector<double>
cellCoverage(const Tracer &tr)
{
    const auto &spans = tr.spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const auto &s : spans)
        if (s.parent >= 0)
            child[s.parent] += s.durUs;
    std::vector<double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name != "cell" || spans[i].durUs <= 0.0)
            continue;
        out.push_back(child[i] / spans[i].durUs);
        if (out.back() < kMinCoverage)
            std::fprintf(stderr,
                         "hetbench: cell %d: layer spans cover only "
                         "%.1f%% of its wall time\n",
                         spans[i].cell, 100.0 * out.back());
    }
    return out;
}

Metrics
layerMetrics(const Tracer &tr, const LayerAcc &a, const RegenPass *rp,
             unsigned jobs)
{
    Metrics m;
    const auto self = tr.selfMsByName();
    const auto total = tr.totalMsByName();
    auto get = [](const std::map<std::string, double> &mm,
                  const char *k) {
        const auto it = mm.find(k);
        return it == mm.end() ? 0.0 : it->second;
    };
    const StatSums &st = a.stats;
    const double cpu_ops = static_cast<double>(a.cpuOps);
    const double gpu_ops = static_cast<double>(a.gpuOps);
    const double cell_ms = get(total, "cell");

    m["workload.ops"] = static_cast<double>(a.nextOps);
    m["workload.next_ns"] = div0(a.nextNs, static_cast<double>(a.nextOps));
    m["workload.share"] =
        div0(get(total, "workload.next") + get(total, "workload.build") +
                 get(total, "workload.wavefront_build"),
             cell_ms);
    m["workload.build_ms"] = get(total, "workload.build");
    m["workload.wavefront_build_us"] =
        div0(a.wavefrontBuildNs, static_cast<double>(a.wavefronts)) / 1e3;

    m["cpu.run_ms"] = get(self, "cpu.run");
    m["cpu.ns_per_op"] = div0(get(self, "cpu.run") * 1e6, cpu_ops);
    m["cpu.ipc"] = div0(cpu_ops, static_cast<double>(a.cpuCycles));
    m["cpu.skipped_frac"] = div0(static_cast<double>(a.cpuSkipped),
                                 static_cast<double>(a.cpuCycles));
    m["cpu.rob_full_stalls_pko"] =
        div0(1e3 * st.get("core:rob_full_stalls"), cpu_ops);
    m["cpu.iq_full_stalls_pko"] =
        div0(1e3 * st.get("core:iq_full_stalls"), cpu_ops);
    m["cpu.lsq_full_stalls_pko"] =
        div0(1e3 * st.get("core:lsq_full_stalls"), cpu_ops);
    m["cpu.mispredicts_pko"] =
        div0(1e3 * st.get("core.branch_pred:mispredictions"), cpu_ops);
    m["cpu.chip_build_ms"] = get(total, "cpu.chip_build");
    m["cpu.sync_lock_blocked_frac"] =
        st.ratio("sync:lock_acquires_blocked", "sync:lock_acquires");
    m["cpu.sync_lock_wait_mean"] = st.mean("sync:lock_wait_cycles");
    m["cpu.sync_barrier_wait_mean"] = st.mean("sync:barrier_wait_cycles");
    m["cpu.sync_ops"] = st.get("core:sync_ops");

    m["mem.dl1_hit_ratio"] = st.ratio("dl1:hits", "dl1:accesses");
    m["mem.l2_hit_ratio"] = st.ratio("l2:hits", "l2:accesses");
    m["mem.l3_hit_ratio"] = st.ratio("l3:hits", "l3:accesses");
    m["mem.l3_accesses"] = st.get("l3:accesses");
    m["mem.invalidations"] = st.sumMatching(
        "hierarchy", [](const std::string &k) {
            return k.rfind("core", 0) == 0 &&
                   k.find("_invalidations_received") != std::string::npos;
        });
    m["mem.false_sharing_misses"] = st.get("hierarchy:false_sharing_misses");
    m["mem.ring_messages"] = st.get("ring:messages");
    m["mem.dram_reads"] = a.cpuOps > 0 ? st.get("dram:reads") : 0.0;
    m["mem.dram_queue_delay_mean"] =
        a.cpuOps > 0 ? st.mean("dram:queue_delay") : 0.0;
    m["mem.access_ns"] = div0(a.memNs, static_cast<double>(a.memAccesses));
    m["mem.cache_access_ns"] =
        div0(a.cacheNs, static_cast<double>(a.memAccesses));

    m["gpu.run_ms"] = get(self, "gpu.run");
    m["gpu.ns_per_op"] = div0(get(self, "gpu.run") * 1e6, gpu_ops);
    m["gpu.ipc"] = div0(gpu_ops, static_cast<double>(a.gpuCycles));
    m["gpu.skipped_frac"] = div0(static_cast<double>(a.gpuSkipped),
                                 static_cast<double>(a.gpuCycles));
    m["gpu.rf_cache_hit_ratio"] = div0(
        st.get("cu:rf_cache_read_hits"),
        st.get("cu:rf_cache_read_hits") + st.get("cu:rf_cache_read_misses"));
    m["gpu.l1_hit_ratio"] = st.ratio("gpu.l1:hits", "gpu.l1:accesses");
    m["gpu.l2_hit_ratio"] = st.ratio("gpu.l2:hits", "gpu.l2:accesses");
    m["gpu.chip_build_ms"] = get(total, "gpu.chip_build");

    const double cells = static_cast<double>(a.cells);
    m["power.energy_us"] = div0(a.energyNs, cells) / 1e3;
    m["report.json_us"] = div0(a.jsonNs, cells) / 1e3;
    m["report.bytes"] = div0(a.reportBytes, cells);

    m["store.put_ms"] =
        div0(a.storePutNs, static_cast<double>(a.storePuts)) / 1e6;
    m["store.get_us"] =
        div0(a.storeGetNs, static_cast<double>(a.storeGets)) / 1e3;
    m["ckpt.save_ms"] =
        div0(a.ckptSaveNs, static_cast<double>(a.ckptSaves)) / 1e6;
    m["ckpt.load_ms"] =
        div0(a.ckptLoadNs, static_cast<double>(a.ckptLoads)) / 1e6;
    m["ckpt.bytes"] = div0(a.ckptBytes, static_cast<double>(a.ckptSaves));

    double exec_ms_sum = 0.0, call_ms_sum = 0.0, from_store = 0.0,
           retries = 0.0;
    std::vector<double> exec_ms, replay_ms;
    core::ResultStore::Counters sc;
    if (rp != nullptr) {
        sc = rp->counters;
        for (const SweepCall &call : rp->calls) {
            call_ms_sum += call.wallMs;
            for (const core::CellResult &res : call.report.results) {
                retries += res.retries;
                if (res.fromStore) {
                    from_store += 1.0;
                    replay_ms.push_back(res.wallMs);
                } else {
                    exec_ms.push_back(res.wallMs);
                    exec_ms_sum += res.wallMs;
                }
            }
        }
    }
    m["store.hits"] = static_cast<double>(sc.hits);
    m["store.misses"] = static_cast<double>(sc.misses);
    m["store.puts"] = static_cast<double>(sc.puts);
    m["store.quarantined"] = static_cast<double>(sc.quarantined);
    m["store.hit_ratio"] = div0(static_cast<double>(sc.hits),
                                static_cast<double>(sc.hits + sc.misses));
    m["sweep.cell_ms_p50"] = median(exec_ms);
    m["sweep.replay_ms"] = median(replay_ms);
    m["sweep.parallel_eff"] = div0(exec_ms_sum, jobs * call_ms_sum);
    m["sweep.from_store"] = from_store;
    m["sweep.retries"] = retries;

    const std::vector<double> cov = cellCoverage(tr);
    double cov_sum = 0.0, cov_min = cov.empty() ? 0.0 : 1.0, low = 0.0;
    for (double c : cov) {
        cov_sum += c;
        cov_min = std::min(cov_min, c);
        low += c < kMinCoverage;
    }
    m["trace.coverage_min"] = cov_min;
    m["trace.coverage_mean"] = div0(cov_sum, static_cast<double>(cov.size()));
    m["trace.low_coverage_cells"] = low;
    m["trace.spans"] = static_cast<double>(tr.spans().size());
    return m;
}

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"cpu_s", "s"},           {"setup_s", "s"},
    {"sim_ops_per_s", "ops/s"}, {"sim_cycles_per_s", "cycles/s"},
    {"cell_ms_p50", "ms"},    {"peak_rss_mb", "MB"},
    {"paper_err_pct", "%"},
};

const MetricDef kPerLayer[] = {
    {"workload.ops", "count"},
    {"workload.next_ns", "ns"},
    {"workload.share", "ratio"},
    {"workload.build_ms", "ms"},
    {"workload.wavefront_build_us", "us"},
    {"cpu.run_ms", "ms"},
    {"cpu.ns_per_op", "ns"},
    {"cpu.ipc", "ops/cycle"},
    {"cpu.skipped_frac", "ratio"},
    {"cpu.rob_full_stalls_pko", "1/kop"},
    {"cpu.iq_full_stalls_pko", "1/kop"},
    {"cpu.lsq_full_stalls_pko", "1/kop"},
    {"cpu.mispredicts_pko", "1/kop"},
    {"cpu.chip_build_ms", "ms"},
    {"cpu.sync_lock_blocked_frac", "ratio"},
    {"cpu.sync_lock_wait_mean", "cycles"},
    {"cpu.sync_barrier_wait_mean", "cycles"},
    {"cpu.sync_ops", "count"},
    {"mem.dl1_hit_ratio", "ratio"},
    {"mem.l2_hit_ratio", "ratio"},
    {"mem.l3_hit_ratio", "ratio"},
    {"mem.l3_accesses", "count"},
    {"mem.invalidations", "count"},
    {"mem.false_sharing_misses", "count"},
    {"mem.ring_messages", "count"},
    {"mem.dram_reads", "count"},
    {"mem.dram_queue_delay_mean", "cycles"},
    {"mem.access_ns", "ns"},
    {"mem.cache_access_ns", "ns"},
    {"gpu.run_ms", "ms"},
    {"gpu.ns_per_op", "ns"},
    {"gpu.ipc", "ops/cycle"},
    {"gpu.skipped_frac", "ratio"},
    {"gpu.rf_cache_hit_ratio", "ratio"},
    {"gpu.l1_hit_ratio", "ratio"},
    {"gpu.l2_hit_ratio", "ratio"},
    {"gpu.chip_build_ms", "ms"},
    {"power.energy_us", "us"},
    {"report.json_us", "us"},
    {"report.bytes", "B"},
    {"store.put_ms", "ms"},
    {"store.get_us", "us"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.puts", "count"},
    {"store.quarantined", "count"},
    {"store.hit_ratio", "ratio"},
    {"ckpt.save_ms", "ms"},
    {"ckpt.load_ms", "ms"},
    {"ckpt.bytes", "B"},
    {"sweep.cell_ms_p50", "ms"},
    {"sweep.replay_ms", "ms"},
    {"sweep.parallel_eff", "ratio"},
    {"sweep.from_store", "count"},
    {"sweep.retries", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage_min", "ratio"},
    {"trace.coverage_mean", "ratio"},
    {"trace.low_coverage_cells", "count"},
    {"trace.spans", "count"},
};

double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss,
                                        children.ru_maxrss)) /
           1024.0;
}

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const MetricDef *defs, size_t n, const Metrics &values)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (size_t i = 0; i < n; ++i) {
        const auto it = values.find(defs[i].name);
        double v = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0.0;
        out += std::string(i ? ", " : "") + "\"" + defs[i].name +
               "\": {\"value\": " + obs::jsonDouble(v) + ", \"unit\": \"" +
               defs[i].unit + "\"}";
    }
    return out + "}}";
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string refs;
    std::string work = ".bench_build/work";
    std::string spans;
    std::string recordRefs;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hetbench: %s\n"
                 "usage: hetbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--refs DIR] [--work DIR] [--spans FILE] "
                 "[--record-refs FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--refs")
            a.refs = v;
        else if (flag == "--work")
            a.work = v;
        else if (flag == "--spans")
            a.spans = v;
        else if (flag == "--record-refs")
            a.recordRefs = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
#if defined(HETBENCH_SANITIZED) || !defined(NDEBUG)
    std::fprintf(stderr, "hetbench: refusing to measure a sanitizer or "
                         "assertion-enabled build; rebuild in Release\n");
    return 2;
#endif
    const Args args = parseArgs(argc, argv);
    const std::optional<Plan> plan = makePlan(args.workload);
    if (!plan)
        usage(("unknown workload " + args.workload).c_str());
    // regen_store's sweep jobs: one per core, at most kMaxJobs.
    const unsigned jobs = static_cast<unsigned>(
        std::clamp(sysconf(_SC_NPROCESSORS_ONLN), 1L, kMaxJobs));
    fs::create_directories(args.work);

    Checker chk(args.refs.empty()
                    ? Refs{}
                    : loadRefs(args.refs + "/" + args.workload + ".tsv"),
                args.seed);

    if (!args.recordRefs.empty()) {
        // One pass; write this seed's result hashes.
        const Pass pass =
            runPass(*plan, args.seed, jobs, args.work, chk, nullptr);
        std::ofstream out(args.recordRefs, std::ios::app);
        for (const CellRec &r : pass.recs)
            out << args.seed << ' ' << r.name << ' ' << hex64(r.hash)
                << '\n';
        fs::remove_all(args.work + "/regen");
        return chk.failed() == 0 && out ? 0 : 1;
    }

    std::printf("workload %s, seed %" PRIu64 " (%s), %.0f s, trace %d, "
                "jobs %u\n",
                args.workload.c_str(), args.seed,
                chk.shipped() ? "shipped reference results"
                              : "no shipped reference; checking "
                                "repeatability and traced equality",
                args.seconds, args.trace ? 1 : 0, jobs);

    const auto epoch = Clock::now();
    std::vector<Pass> passes;
    std::vector<Metrics> traced;
    std::vector<double> traced_wall;
    std::vector<Tracer> tracers;
    do {
        passes.push_back(
            runPass(*plan, args.seed, jobs, args.work, chk, nullptr));
        std::printf("pass %zu: wall %.4f s, cpu %.4f s\n", passes.size(),
                    passes.back().wallS, passes.back().cpuS);
        if (!args.trace)
            continue;
        const Pass &base = passes.back();
        Tracer &tr = tracers.emplace_back(epoch);
        LayerAcc acc;
        std::map<std::string, const CellRec *> untraced;
        for (const CellRec &r : base.recs)
            untraced[r.name] = &r;
        RegenPass rp;
        double wall = 0.0;
        if (plan->regen) {
            Pass tp = runPass(*plan, args.seed, jobs, args.work, chk, &tr);
            wall = tp.wallS;
            rp = std::move(tp.regen);
            measureStore(*plan, args.seed, jobs, args.work, rp, tr, acc);
        }
        for (size_t i = 0; i < plan->cells.size(); ++i) {
            const Cell &c = plan->cells[i];
            if (!plan->regen)
                rotateCpu();
            const auto it = untraced.find(c.name());
            const double cell_s = checkDecomposed(
                *plan, c, it == untraced.end() ? nullptr : it->second,
                args.seed, args.work, tr, static_cast<int>(i), acc, chk);
            if (!plan->regen)
                wall += cell_s;
        }
        fs::remove_all(args.work + "/regen");
        traced_wall.push_back(wall);
        traced.push_back(layerMetrics(tr, acc, plan->regen ? &rp : nullptr,
                                      jobs));
    } while (secondsSince(epoch) < args.seconds);

    // Results of executed cells must not depend on how they were run:
    // re-derive one cell of each kind layer by layer.
    if (!args.trace) {
        Tracer tr(epoch);
        LayerAcc acc;
        for (bool gpu : {false, true}) {
            const auto it =
                std::find_if(passes[0].recs.begin(), passes[0].recs.end(),
                             [&](const CellRec &r) { return r.gpu == gpu; });
            if (it == passes[0].recs.end())
                continue;
            const Cell &c = *std::find_if(
                plan->cells.begin(), plan->cells.end(),
                [&](const Cell &x) { return x.name() == it->name; });
            checkDecomposed(*plan, c, &*it, args.seed, args.work, tr, 0,
                            acc, chk);
        }
    }
    fs::remove_all(args.work + "/regen");

    // Host time is CPU time scaled to the reference host's speed: a
    // host that runs the fixed probe slower runs the simulator slower.
    // The host's speed changes every few hundred ms, so the run's mean
    // probe time is a steadier estimate than one pass's.
    std::vector<double> probes;
    for (const Pass &p : passes)
        probes.insert(probes.end(), p.probeS.begin(), p.probeS.end());
    const double speed = div0(kProbeRefS, mean(probes));
    std::vector<double> walls, raw_cpus, cpus, ops_rate, cyc_rate, cell_ms;
    for (const Pass &p : passes) {
        const double cpu_s = p.cpuS * speed;
        walls.push_back(p.wallS);
        raw_cpus.push_back(p.cpuS);
        cpus.push_back(cpu_s);
        ops_rate.push_back(div0(static_cast<double>(p.execOps), cpu_s));
        cyc_rate.push_back(div0(static_cast<double>(p.execCycles), cpu_s));
        for (double ms : p.execMs)
            cell_ms.push_back(ms * speed);
    }
    std::printf("host: probe %.4f ms (reference %.4f ms), speed factor "
                "%.4f; pass wall %.4f s, cpu %.4f s unscaled\n",
                mean(probes) * 1e3, kProbeRefS * 1e3, speed,
                median(walls), median(raw_cpus));

    Metrics values;
    const MetricDef *defs = kEndToEnd;
    size_t ndefs = std::size(kEndToEnd);
    if (args.trace) {
        defs = kPerLayer;
        ndefs = std::size(kPerLayer);
        for (const MetricDef &d : kPerLayer) {
            std::vector<double> v;
            for (const Metrics &m : traced) {
                const auto it = m.find(d.name);
                if (it != m.end())
                    v.push_back(it->second);
            }
            values[d.name] = median(v);
        }
        values["trace.overhead_pct"] =
            100.0 * (div0(median(traced_wall), median(walls)) - 1.0);
        if (!args.spans.empty()) {
            fs::create_directories(fs::path(args.spans).parent_path());
            std::ofstream out(args.spans);
            out << "{\"traceEvents\":[";
            bool first = true;
            for (size_t i = 0; i < tracers.size(); ++i)
                tracers[i].writeEvents(out, static_cast<int>(i), first);
            out << "\n],\"displayTimeUnit\":\"ms\"}\n";
        }
    } else {
        // Set-up is short, so repeat it and take the median.
        std::vector<double> setups;
        const auto s0 = Clock::now();
        while (setups.size() < kMinSetupPasses ||
               (secondsSince(s0) < kSetupSeconds &&
                setups.size() < kMaxSetupPasses))
            setups.push_back(setupPass(*plan, args.seed, args.work));
        values["cpu_s"] = median(cpus);
        values["setup_s"] = median(setups) * speed;
        values["sim_ops_per_s"] = median(ops_rate);
        values["sim_cycles_per_s"] = median(cyc_rate);
        values["cell_ms_p50"] = median(cell_ms);
        values["peak_rss_mb"] = peakRssMb();
        values["paper_err_pct"] = paperErrPct(passes[0].recs);
    }

    std::printf("passes %zu, cells attempted %" PRIu64 ", failed %" PRIu64
                ", failed_frac %.6g\n",
                passes.size(), chk.attempted(), chk.failed(),
                div0(static_cast<double>(chk.failed()),
                     static_cast<double>(chk.attempted())));
    for (size_t i = 0; i < ndefs; ++i)
        std::printf("  %-30s %16.6g %s\n", defs[i].name,
                    values[defs[i].name], defs[i].unit);
    std::printf("%s\n", resultJson(chk.failed() == 0, chk.attempted(),
                                   chk.failed(), defs, ndefs, values)
                            .c_str());
    return 0;
}
