#include "core/sweep.hh"

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/envelope.hh"
#include "common/file.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/checkpoint.hh"
#include "cpu/multicore.hh"
#include "workload/trace_file.hh"

namespace hetsim::core
{

namespace
{

/** Host monotonic clock in milliseconds (watchdogs and deadlines;
 *  never part of a report). */
double
monotonicMs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

/** Fixed-size prefix of a cell payload: the result a child sends up
 *  its pipe and the journaled entry in the ResultStore (the store's
 *  envelope supplies versioning and checksums). */
#pragma pack(push, 1)
struct WireResult
{
    uint8_t outcome;
    uint8_t code;
    uint64_t cycles;
    uint64_t ops;
    double seconds;
    double energyJ;
    double groupDynamicJ[power::kNumEnergyGroups];
    double groupLeakageJ[power::kNumEnergyGroups];
    uint32_t msgLen;
};
#pragma pack(pop)

/** Cell payload: WireResult + the status message bytes. */
std::string
encodeCellPayload(const CellResult &res)
{
    WireResult wire;
    wire.outcome = static_cast<uint8_t>(res.outcome);
    wire.code = static_cast<uint8_t>(res.status.code());
    wire.cycles = res.cycles;
    wire.ops = res.ops;
    wire.seconds = res.seconds;
    wire.energyJ = res.energyJ;
    std::memcpy(wire.groupDynamicJ, res.groupDynamicJ,
                sizeof(wire.groupDynamicJ));
    std::memcpy(wire.groupLeakageJ, res.groupLeakageJ,
                sizeof(wire.groupLeakageJ));
    const std::string &msg = res.status.message();
    wire.msgLen = static_cast<uint32_t>(msg.size());
    std::string payload(reinterpret_cast<const char *>(&wire),
                        sizeof(wire));
    payload += msg;
    return payload;
}

/** Inverse of encodeCellPayload; false on a malformed payload (a
 *  journal entry is then re-executed, a pipe message counts as a
 *  crash). */
bool
decodeCellPayload(const std::string &payload, CellResult *res)
{
    WireResult wire;
    if (payload.size() < sizeof(wire))
        return false;
    std::memcpy(&wire, payload.data(), sizeof(wire));
    if (payload.size() != sizeof(wire) + wire.msgLen)
        return false;
    if (wire.outcome > static_cast<uint8_t>(CellOutcome::TimedOut))
        return false;
    res->outcome = static_cast<CellOutcome>(wire.outcome);
    const auto code = static_cast<ErrorCode>(wire.code);
    const std::string msg = payload.substr(sizeof(wire), wire.msgLen);
    res->status = code == ErrorCode::Ok
        ? Status()
        : Status::error(code, "%s", msg.c_str());
    res->cycles = wire.cycles;
    res->ops = wire.ops;
    res->seconds = wire.seconds;
    res->energyJ = wire.energyJ;
    std::memcpy(res->groupDynamicJ, wire.groupDynamicJ,
                sizeof(res->groupDynamicJ));
    std::memcpy(res->groupLeakageJ, wire.groupLeakageJ,
                sizeof(res->groupLeakageJ));
    // A preempted child saved a checkpoint and stopped: keep the
    // never-journal / never-retry semantics across the pipe (and for
    // a journal entry claiming preemption, should one ever appear).
    if (code == ErrorCode::Preempted) {
        res->transient = true;
        res->preempted = true;
    }
    return true;
}

/** The options one cell runs with: the sweep's, with the cell's
 *  scale and watchdog overrides applied. */
ExperimentOptions
cellOptions(const SweepCell &cell, const SweepOptions &opts)
{
    ExperimentOptions exp = opts.exp;
    if (cell.scaleOverride > 0.0)
        exp.scale = cell.scaleOverride;
    if (cell.watchdogCycles != ~0ull)
        exp.watchdogCycles = cell.watchdogCycles;
    return exp;
}

/** Mid-run checkpoint file of one cell, named by the FNV-64 of its
 *  durable key so any workload name maps to a flat filename. */
std::string
cellCheckpointPath(const std::string &cell_key,
                   const SweepOptions &opts)
{
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(cell_key)));
    return opts.checkpointDir + "/cell-" + hex + kCheckpointSuffix;
}

/** Mark a result as preempted-at-checkpoint: never journaled, never
 *  retried; a resumed sweep re-executes (and mid-run-restores) it. */
void
markPreempted(CellResult *res, const char *what)
{
    res->outcome = CellOutcome::Failed;
    res->status = Status::error(ErrorCode::Preempted, "%s", what);
    res->transient = true;
    res->preempted = true;
}

/** The result of a run that finished or stopped: Ok, TimedOut when
 *  the cycle watchdog cut it short, or preempted at a checkpoint. */
CellResult
runResult(bool preempted, bool timed_out, uint64_t cycles, uint64_t ops,
          double seconds, const power::EnergyBreakdown &energy)
{
    CellResult res;
    res.cycles = cycles;
    if (preempted) {
        markPreempted(&res, "preempted at a mid-run checkpoint");
        return res;
    }
    res.outcome = timed_out ? CellOutcome::TimedOut : CellOutcome::Ok;
    if (timed_out)
        res.status = Status::error(
            ErrorCode::Timeout, "cycle watchdog fired at %llu cycles",
            static_cast<unsigned long long>(cycles));
    res.ops = ops;
    res.seconds = seconds;
    res.energyJ = energy.totalJ();
    std::memcpy(res.groupDynamicJ, energy.groupDynamicJ,
                sizeof(res.groupDynamicJ));
    std::memcpy(res.groupLeakageJ, energy.groupLeakageJ,
                sizeof(res.groupLeakageJ));
    return res;
}

/** The bundle a CPU cell simulates: its free-form design, else its
 *  Table IV configuration. */
Result<CpuConfigBundle>
cellCpuBundle(const SweepCell &cell, const ExperimentOptions &exp)
{
    if (cell.cpuDesign)
        return synthesizeCpuBundle(*cell.cpuDesign, exp.freqGhz);
    return makeCpuConfig(cell.cpuCfg, exp.freqGhz);
}

/** Execute one cell in this process. Input errors come back as a
 *  Failed result; internal invariants still panic (isolation turns
 *  that into a contained child death). */
CellResult
runCellInProcess(const SweepCell &cell, const SweepOptions &opts)
{
    CellResult res;
    ExperimentOptions exp = cellOptions(cell, opts);
    // Per-cell mid-run checkpoints (synthetic cells only: a trace
    // cell's progress is its file cursor, which the journal already
    // covers at cell granularity). The run derives the checkpoint's
    // identity key from these same per-cell options.
    if (!opts.checkpointDir.empty() &&
        cell.kind != SweepCell::Kind::CpuTrace)
        exp.checkpointPath =
            cellCheckpointPath(cellStoreKey(cell, opts), opts);

    switch (cell.kind) {
      case SweepCell::Kind::CpuApp:
      {
        const auto app = workload::findCpuApp(cell.workload);
        Result<CpuConfigBundle> bundle = cellCpuBundle(cell, exp);
        if (!app.ok() || !bundle.ok()) {
            res.status = app.ok() ? bundle.status() : app.status();
            return res;
        }
        const CpuOutcome out = runCpuBundle(
            bundle.value(), cellConfigName(cell), *app.value(), exp);
        return runResult(out.preempted, out.timedOut, out.cycles,
                         out.committedOps, out.metrics.seconds,
                         out.energy);
      }

      case SweepCell::Kind::CpuTrace:
      {
        auto trace = workload::FileTrace::open(cell.workload);
        Result<CpuConfigBundle> bundle = cellCpuBundle(cell, exp);
        if (!trace.ok() || !bundle.ok()) {
            res.status = trace.ok() ? bundle.status() : trace.status();
            return res;
        }
        cpu::MulticoreParams sim = bundle.value().sim;
        sim.mem.numCores = 1;
        sim.watchdogCycles = exp.watchdogCycles;
        cpu::Multicore mc(sim, {trace.value().get()});
        const cpu::MulticoreResult run = mc.run();
        if (!trace.value()->status().ok()) {
            res.status = trace.value()->status();
            return res;
        }
        return runResult(run.preempted, run.timedOut, run.cycles,
                         run.committedOps, run.seconds, {});
      }

      case SweepCell::Kind::GpuKernel:
      {
        // The GPU design point is half the CPU frequency.
        const auto kernel = workload::findGpuKernel(cell.workload);
        Result<GpuConfigBundle> bundle = cell.gpuDesign
            ? synthesizeGpuBundle(*cell.gpuDesign, exp.freqGhz / 2.0)
            : makeGpuConfig(cell.gpuCfg, exp.freqGhz / 2.0);
        if (!kernel.ok() || !bundle.ok()) {
            res.status = kernel.ok() ? bundle.status() : kernel.status();
            return res;
        }
        const GpuOutcome out = runGpuBundle(
            bundle.value(), cellConfigName(cell), *kernel.value(), exp);
        return runResult(out.preempted, out.timedOut, out.cycles,
                         out.issuedOps, out.metrics.seconds,
                         out.energy);
      }
    }
    res.status = Status::error(ErrorCode::Internal,
                               "unhandled cell kind %d",
                               static_cast<int>(cell.kind));
    return res;
}

/** Child side: run the cell and ship its encoded result up the pipe
 *  (a short write leaves the parent a short payload: a crash). */
[[noreturn]] void
childRunCell(int fd, const SweepCell &cell, const SweepOptions &opts)
{
    const std::string payload =
        encodeCellPayload(runCellInProcess(cell, opts));
    (void)writeAllFd(fd, payload.data(), payload.size(), "result pipe");
    // _exit keeps the child from re-running parent atexit hooks.
    ::_exit(0);
}

/** True once `buf` holds a whole encodeCellPayload() message. */
bool
cellPayloadComplete(const std::string &buf)
{
    WireResult wire;
    if (buf.size() < sizeof(wire))
        return false;
    std::memcpy(&wire, buf.data(), sizeof(wire));
    return buf.size() >= sizeof(wire) + wire.msgLen;
}

std::string
describeChildDeath(int wstatus)
{
    if (WIFSIGNALED(wstatus))
        return std::string("killed by signal ") +
            strsignal(WTERMSIG(wstatus));
    if (WIFEXITED(wstatus))
        return "exited with code " +
            std::to_string(WEXITSTATUS(wstatus));
    return "died abnormally";
}

/** Result of a reaped child: the payload it delivered, or a contained
 *  (retryable: crashes may be environmental) crash when it died
 *  without delivering one. */
CellResult
childResult(const std::string &buf, int wstatus)
{
    CellResult res;
    if (decodeCellPayload(buf, &res))
        return res;
    res.outcome = CellOutcome::Failed;
    res.status = Status::error(ErrorCode::Crashed, "cell process %s",
                               describeChildDeath(wstatus).c_str());
    res.transient = true;
    return res;
}

/** A child killed at the wall-clock limit (host-load dependent, so
 *  retryable). */
CellResult
wallClockTimeout(const SweepOptions &opts)
{
    CellResult res;
    res.outcome = CellOutcome::TimedOut;
    res.status = Status::error(ErrorCode::Timeout,
                               "wall-clock watchdog fired after %.0f ms",
                               opts.wallLimitMs);
    res.transient = true;
    return res;
}

/** Run a cell in this process: every cell of an inline sweep, and an
 *  isolated cell whose fork failed. Without a child process the cell
 *  cannot be killed, so the wall-clock limit is a *soft* deadline:
 *  an overrun is reported loudly instead of silently dropping the
 *  guarantee. */
CellResult
runInline(const SweepCell &cell, const SweepOptions &opts)
{
    const double start = monotonicMs();
    CellResult res = runCellInProcess(cell, opts);
    const double elapsed = monotonicMs() - start;
    if (opts.wallLimitMs > 0.0 && elapsed > opts.wallLimitMs &&
        res.outcome == CellOutcome::Ok) {
        res.outcome = CellOutcome::TimedOut;
        res.status = Status::error(
            ErrorCode::Timeout,
            "soft wall-clock deadline (%.0f ms) exceeded: inline "
            "cell ran %.0f ms to completion (no preemption without "
            "isolation)",
            opts.wallLimitMs, elapsed);
        res.transient = true;
    }
    return res;
}

/**
 * Bounded exponential backoff before retry `attempt` (1-based),
 * scaled by a deterministic jitter factor in [0.5, 1.0) hashed from
 * (seed, attempt). Jitter decorrelates the retry herd when many cells
 * fail together (e.g. a shared resource blip under high -j), and
 * seeding it from the cell key keeps every run of the same sweep
 * sleeping the same schedule — no hidden wall-clock nondeterminism.
 */
double
backoffMs(double first_ms, uint32_t attempt, uint64_t seed)
{
    double ms = first_ms;
    for (uint32_t i = 1; i < attempt; ++i)
        ms *= 2.0;
    // splitmix64-style finalizer over (seed, attempt).
    uint64_t h = seed + 0x9e3779b97f4a7c15ull * attempt;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    ms *= 0.5 + 0.5 * static_cast<double>(h >> 11) * 0x1.0p-53;
    if (ms > 5000.0)
        ms = 5000.0;
    return ms > 0.0 ? ms : 0.0;
}

/** Resume: the cell's journaled result, when the store holds a
 *  decodable one. */
bool
replayCell(const std::string &key, const SweepOptions &opts,
           CellResult *res)
{
    if (opts.store == nullptr || !opts.resume)
        return false;
    const Result<std::string> hit = opts.store->get(key);
    if (!hit.ok() || !decodeCellPayload(hit.value(), res))
        return false;
    res->fromStore = true;
    return true;
}

/** Journal a freshly executed result. Only deterministic terminal
 *  outcomes are written: a replayed crash or wall-clock kill would
 *  freeze a nondeterministic failure into every future resume. */
void
journalCell(const std::string &key, const CellResult &res,
            const SweepOptions &opts)
{
    if (opts.store == nullptr || res.transient || res.fromStore)
        return;
    const Status put = opts.store->put(key, encodeCellPayload(res));
    if (!put.ok())
        warn("sweep journal write failed: %s", put.toString().c_str());
}

} // namespace

const char *
cellOutcomeName(CellOutcome outcome)
{
    switch (outcome) {
      case CellOutcome::Ok:
        return "ok";
      case CellOutcome::Failed:
        return "failed";
      case CellOutcome::TimedOut:
        return "timeout";
      default:
        return "?";
    }
}

SweepCell
cpuAppCell(CpuConfig cfg, const std::string &app, double scale)
{
    SweepCell c;
    c.kind = SweepCell::Kind::CpuApp;
    c.cpuCfg = cfg;
    c.workload = app;
    c.scaleOverride = scale;
    return c;
}

SweepCell
cpuTraceCell(CpuConfig cfg, const std::string &path)
{
    SweepCell c;
    c.kind = SweepCell::Kind::CpuTrace;
    c.cpuCfg = cfg;
    c.workload = path;
    return c;
}

SweepCell
gpuKernelCell(GpuConfig cfg, const std::string &kernel, double scale)
{
    SweepCell c;
    c.kind = SweepCell::Kind::GpuKernel;
    c.gpuCfg = cfg;
    c.workload = kernel;
    c.scaleOverride = scale;
    return c;
}

Result<SweepCell>
parseWorkloadSpec(const std::string &spec)
{
    SweepCell cell;
    std::string body = spec;

    if (body.rfind("trace:", 0) == 0) {
        cell.kind = SweepCell::Kind::CpuTrace;
        cell.workload = body.substr(6);
        if (cell.workload.empty())
            return Status::error(ErrorCode::InvalidArgument,
                                 "empty trace path in spec '%s'",
                                 spec.c_str());
        return cell;
    }

    if (body.rfind("kernel:", 0) == 0) {
        cell.kind = SweepCell::Kind::GpuKernel;
        body = body.substr(7);
    } else if (body.rfind("app:", 0) == 0) {
        cell.kind = SweepCell::Kind::CpuApp;
        body = body.substr(4);
    } else {
        cell.kind = SweepCell::Kind::CpuApp;
    }

    const size_t at = body.find('@');
    if (at != std::string::npos) {
        const std::string opt = body.substr(at + 1);
        body = body.substr(0, at);
        if (opt.rfind("scale=", 0) != 0)
            return Status::error(ErrorCode::InvalidArgument,
                                 "bad workload option '%s' in '%s' "
                                 "(expected scale=<x>)",
                                 opt.c_str(), spec.c_str());
        // A finite number above zero, as the CLI's --scale.
        char *end = nullptr;
        errno = 0;
        const double scale =
            std::strtod(opt.c_str() + 6, &end);
        if (end == opt.c_str() + 6 || *end != '\0' ||
            errno == ERANGE || !std::isfinite(scale) || scale <= 0.0)
            return Status::error(ErrorCode::InvalidArgument,
                                 "bad scale value in spec '%s'",
                                 spec.c_str());
        cell.scaleOverride = scale;
    }
    if (body.empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "empty workload name in spec '%s'",
                             spec.c_str());
    cell.workload = body;
    return cell;
}

Result<std::vector<SweepCell>>
crossCpuCells(const std::vector<CpuConfig> &cfgs,
              const std::vector<std::string> &specs)
{
    std::vector<SweepCell> cells;
    cells.reserve(cfgs.size() * specs.size());
    for (CpuConfig cfg : cfgs) {
        for (const std::string &spec : specs) {
            Result<SweepCell> cell = parseWorkloadSpec(spec);
            if (!cell.ok())
                return cell.status();
            if (cell.value().kind == SweepCell::Kind::GpuKernel)
                return Status::error(
                    ErrorCode::InvalidArgument,
                    "GPU kernel spec '%s' in a CPU config cross",
                    spec.c_str());
            cell.value().cpuCfg = cfg;
            cells.push_back(std::move(cell.value()));
        }
    }
    return cells;
}

std::vector<std::string>
splitCsvList(const std::string &list)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const size_t end =
            comma == std::string::npos ? list.size() : comma;
        if (end > start)
            out.push_back(list.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

Result<std::vector<CpuConfig>>
cpuConfigsFromList(const std::string &list)
{
    std::vector<CpuConfig> cfgs;
    if (list == "all") {
        for (int i = 0; i < kNumCpuConfigs; ++i)
            cfgs.push_back(static_cast<CpuConfig>(i));
        return cfgs;
    }
    for (const std::string &name : splitCsvList(list)) {
        Result<CpuConfig> cfg = cpuConfigFromName(name);
        if (!cfg.ok())
            return cfg.status();
        cfgs.push_back(cfg.value());
    }
    if (cfgs.empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "empty CPU configuration list '%s'",
                             list.c_str());
    return cfgs;
}

Result<SweepCell>
parseCellEntry(const std::string &config, const std::string &spec)
{
    Result<SweepCell> cell = parseWorkloadSpec(spec);
    if (!cell.ok())
        return cell.status();
    if (cell.value().kind == SweepCell::Kind::GpuKernel) {
        Result<GpuConfig> cfg = gpuConfigFromName(config);
        if (!cfg.ok())
            return cfg.status();
        cell.value().gpuCfg = cfg.value();
    } else {
        Result<CpuConfig> cfg = cpuConfigFromName(config);
        if (!cfg.ok())
            return cfg.status();
        cell.value().cpuCfg = cfg.value();
    }
    return cell;
}

size_t
SweepReport::count(CellOutcome outcome) const
{
    size_t n = 0;
    for (const CellResult &r : results)
        if (r.outcome == outcome)
            ++n;
    return n;
}

size_t
SweepReport::fromStoreCount() const
{
    size_t n = 0;
    for (const CellResult &r : results)
        if (r.fromStore)
            ++n;
    return n;
}

uint64_t
SweepReport::totalRetries() const
{
    uint64_t n = 0;
    for (const CellResult &r : results)
        n += r.retries;
    return n;
}

bool
SweepReport::preempted() const
{
    for (const CellResult &r : results)
        if (r.preempted)
            return true;
    return false;
}

std::string
cellStoreKey(const SweepCell &cell, const SweepOptions &opts)
{
    const char *kind = "cpu";
    if (cell.kind == SweepCell::Kind::CpuTrace)
        kind = "trace";
    else if (cell.kind == SweepCell::Kind::GpuKernel)
        kind = "gpu";
    return "sweep-cell-v2|" + runKey(kind, cellConfigName(cell),
                                     cell.workload,
                                     cellOptions(cell, opts));
}

std::string
cellConfigName(const SweepCell &cell)
{
    if (cell.kind == SweepCell::Kind::GpuKernel)
        return cell.gpuDesign ? designName(*cell.gpuDesign)
                              : gpuConfigName(cell.gpuCfg);
    return cell.cpuDesign ? designName(*cell.cpuDesign)
                          : cpuConfigName(cell.cpuCfg);
}

std::string
cellWorkloadName(const SweepCell &cell)
{
    switch (cell.kind) {
      case SweepCell::Kind::CpuTrace:
        return "trace:" + cell.workload;
      case SweepCell::Kind::GpuKernel:
        return "kernel:" + cell.workload;
      default:
        return cell.workload;
    }
}

/**
 * The one scheduler. Up to `jobs` forked cells are in flight at once,
 * multiplexed over their result pipes from the calling thread, so
 * children are only ever forked from here, never from worker threads.
 * An inline cell (isolate == false), and an isolated cell whose fork
 * fails, runs to completion inside its launch step. Results land in
 * plan order, so the report is byte-identical for any job count and
 * either isolation mode. A transient failure parks its cell until the
 * backoff elapses; the poll wait doubles as the sleep. A pending
 * preemption stops new launches, forwards SIGTERM to *every*
 * in-flight child (each drains to its own resumable checkpoint), and
 * marks unlaunched cells preempted-without-running.
 */
SweepReport
runSweep(const std::vector<SweepCell> &cells,
         const SweepOptions &opts)
{
    if (!opts.isolate && opts.wallLimitMs > 0.0)
        warn("sweep: inline cells honor the wall-clock limit as a "
             "soft deadline only (no preemption without isolation); "
             "pair it with a cycle watchdog to bound hung cells");
    if (opts.resume && opts.store == nullptr)
        warn("sweep: resume requested without a result store; "
             "every cell will re-execute");
    if (opts.jobs > 1 && !opts.isolate)
        warn("sweep: --jobs > 1 needs process isolation (inline "
             "cells share one address space); running serially");
    const unsigned jobs = std::max(opts.jobs, 1u);

    struct Task
    {
        enum class Phase
        {
            Pending, ///< Not launched (or relaunching after backoff).
            Running, ///< Forked child in flight.
            Backoff, ///< Transient failure; waiting out the delay.
            Done,
        };

        Phase phase = Phase::Pending;
        uint32_t attempt = 0; ///< Execution attempts started.
        double readyAt = 0.0; ///< Backoff release (monotonic ms).
        double startMs = 0.0; ///< First launch (for wallMs).
        pid_t pid = -1;
        int fd = -1;
        std::string buf;
        double deadline = 0.0; ///< Wall-clock kill time (0 = none).
        bool preemptSent = false;
        CellResult res;
    };
    using Phase = Task::Phase;

    std::vector<Task> tasks(cells.size());
    std::vector<std::string> keys;
    keys.reserve(cells.size());
    for (const SweepCell &cell : cells)
        keys.push_back(cellStoreKey(cell, opts));

    size_t done = 0;
    size_t running = 0;

    const auto preemptPending = [&opts] {
        return opts.exp.preempt && *opts.exp.preempt;
    };

    // One execution attempt of cell i finished with result r: either
    // retire the task (journaling a deterministic outcome) or park it
    // for a retry. Preemption is deliberate, not a fault: never
    // retried. A pending preemption also stops retries of ordinary
    // transient failures — the sweep is shutting down, not healing.
    const auto settle = [&](size_t i, CellResult r) {
        Task &t = tasks[i];
        const double now = monotonicMs();
        r.retries = t.attempt - 1;
        if (!r.preempted && r.transient &&
            t.attempt - 1 < opts.maxRetries && !preemptPending()) {
            t.res = std::move(r);
            t.phase = Phase::Backoff;
            t.readyAt = now + backoffMs(opts.retryBackoffMs, t.attempt,
                                        fnv1a(keys[i]));
            return;
        }
        r.wallMs = now - t.startMs;
        journalCell(keys[i], r, opts);
        if (opts.verbose)
            inform("sweep [%zu/%zu] %s / %s: %s%s%s%s", i + 1,
                   cells.size(), cellConfigName(cells[i]).c_str(),
                   cellWorkloadName(cells[i]).c_str(),
                   cellOutcomeName(r.outcome),
                   r.fromStore ? " (replayed)" : "",
                   r.status.ok() ? "" : " - ",
                   r.status.ok() ? ""
                                 : r.status.toString().c_str());
        t.res = std::move(r);
        t.phase = Phase::Done;
        ++done;
    };

    // Start one attempt of cell i: replay its journaled result, fork
    // a child into the poll set, or run it inline to completion.
    const auto launch = [&](size_t i, double now) {
        Task &t = tasks[i];
        if (t.attempt == 0) {
            t.startMs = now;
            CellResult replay;
            if (replayCell(keys[i], opts, &replay)) {
                ++t.attempt;
                settle(i, std::move(replay));
                return;
            }
        }
        ++t.attempt;
        if (opts.isolate) {
            int fds[2];
            if (::pipe(fds) == 0) {
                const pid_t pid = ::fork();
                if (pid == 0) {
                    ::close(fds[0]);
                    childRunCell(fds[1], cells[i], opts);
                }
                if (pid > 0) {
                    ::close(fds[1]);
                    t.pid = pid;
                    t.fd = fds[0];
                    t.buf.clear();
                    t.preemptSent = false;
                    t.deadline = opts.wallLimitMs > 0.0
                        ? now + opts.wallLimitMs : 0.0;
                    t.phase = Phase::Running;
                    ++running;
                    return;
                }
                const int err = errno;
                ::close(fds[0]);
                ::close(fds[1]);
                errno = err;
            }
            warn("cannot fork a cell process (%s); running cell "
                 "in-process", std::strerror(errno));
        }
        settle(i, runInline(cells[i], opts));
    };

    // The child delivered (full payload / EOF) or overran its
    // wall-clock deadline: reap it and settle the attempt.
    const auto finishRunning = [&](size_t i, bool timed_out) {
        Task &t = tasks[i];
        ::close(t.fd);
        t.fd = -1;
        --running;
        t.phase = Phase::Pending; // settle() decides Done/Backoff.
        if (timed_out)
            ::kill(t.pid, SIGKILL);
        int wstatus = 0;
        ::waitpid(t.pid, &wstatus, 0);
        t.pid = -1;
        CellResult r = timed_out ? wallClockTimeout(opts)
                                 : childResult(t.buf, wstatus);
        t.buf.clear();
        settle(i, std::move(r));
    };

    while (done < tasks.size()) {
        double now = monotonicMs();

        // Preemption: stop launching, tell every in-flight child to
        // drain to its checkpoint, retire everything not yet started.
        if (preemptPending()) {
            for (Task &t : tasks) {
                if (t.phase == Phase::Pending) {
                    if (t.attempt == 0)
                        markPreempted(&t.res, "sweep preempted "
                                              "before this cell ran");
                    // else keep the last transient failure.
                    t.res.retries =
                        t.attempt > 0 ? t.attempt - 1 : 0;
                    t.phase = Phase::Done;
                    ++done;
                } else if (t.phase == Phase::Backoff) {
                    t.phase = Phase::Done;
                    ++done;
                } else if (t.phase == Phase::Running &&
                           !t.preemptSent &&
                           !opts.checkpointDir.empty()) {
                    // Only with mid-run checkpoints on does a SIGTERM
                    // preserve (rather than discard) progress. The
                    // child inherited the caller's signal disposition,
                    // so its own handler sets its preempt flag.
                    ::kill(t.pid, SIGTERM);
                    t.preemptSent = true;
                }
            }
        }

        // Release elapsed backoffs back into the launch queue.
        for (Task &t : tasks)
            if (t.phase == Phase::Backoff && t.readyAt <= now)
                t.phase = Phase::Pending;

        // Launch pending cells, plan order first, up to the cap.
        for (size_t i = 0;
             i < tasks.size() && running < jobs && !preemptPending();
             ++i)
            if (tasks[i].phase == Phase::Pending)
                launch(i, monotonicMs());

        if (done >= tasks.size())
            break;

        // Wait for the earliest of: child output, a wall-clock
        // deadline, or a backoff release. A SIGTERM to the sweep
        // interrupts the poll (EINTR), so preemption is noticed
        // immediately.
        now = monotonicMs();
        double wake = 0.0; // 0 = wait for output only.
        std::vector<struct pollfd> pfds;
        std::vector<size_t> pfd_task;
        for (size_t i = 0; i < tasks.size(); ++i) {
            const Task &t = tasks[i];
            if (t.phase == Phase::Running) {
                pfds.push_back({t.fd, POLLIN, 0});
                pfd_task.push_back(i);
                if (t.deadline > 0.0 &&
                    (wake == 0.0 || t.deadline < wake))
                    wake = t.deadline;
            } else if (t.phase == Phase::Backoff &&
                       (wake == 0.0 || t.readyAt < wake)) {
                wake = t.readyAt;
            }
        }
        int wait_ms = -1;
        if (wake > 0.0)
            wait_ms = std::max(0, static_cast<int>(wake - now)) + 1;
        // With a preempt flag registered, bound the wait: a flag set
        // without a signal delivery to this thread (e.g. from another
        // thread, or a signal handled elsewhere in the process) must
        // still be noticed promptly.
        if (opts.exp.preempt && (wait_ms < 0 || wait_ms > 100))
            wait_ms = 100;
        int ready = 0;
        if (!pfds.empty())
            ready = ::poll(pfds.data(),
                           static_cast<nfds_t>(pfds.size()),
                           wait_ms);
        else if (wait_ms > 0)
            ready = ::poll(nullptr, 0, wait_ms);
        if (ready < 0 && errno != EINTR)
            warn("sweep: poll() failed: %s", std::strerror(errno));

        now = monotonicMs();
        for (size_t k = 0; k < pfds.size(); ++k) {
            const size_t i = pfd_task[k];
            Task &t = tasks[i];
            if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char chunk[4096];
            const ssize_t r = ::read(t.fd, chunk, sizeof(chunk));
            if (r > 0)
                t.buf.append(chunk, static_cast<size_t>(r));
            const bool eof = r == 0 ||
                (r < 0 && errno != EINTR && errno != EAGAIN);
            if (eof || cellPayloadComplete(t.buf))
                finishRunning(i, false);
        }
        // Deadlines fire even for children producing no output.
        for (size_t i = 0; i < tasks.size(); ++i) {
            Task &t = tasks[i];
            if (t.phase == Phase::Running && t.deadline > 0.0 &&
                now >= t.deadline)
                finishRunning(i, true);
        }
    }

    SweepReport report;
    report.cells = cells;
    report.results.reserve(cells.size());
    for (Task &t : tasks)
        report.results.push_back(std::move(t.res));
    return report;
}

Status
printSweepReport(const SweepReport &report,
                 const std::string &csv_path)
{
    TablePrinter t("sweep summary",
                   {"config", "workload", "outcome", "cycles",
                    "sim ms", "energy mJ", "wall ms", "detail"});
    for (size_t i = 0; i < report.cells.size(); ++i) {
        const SweepCell &cell = report.cells[i];
        const CellResult &res = report.results[i];
        std::string detail =
            res.status.ok() ? "" : res.status.toString();
        if (detail.size() > 72)
            detail = detail.substr(0, 69) + "...";
        t.addRow({cellConfigName(cell), cellWorkloadName(cell),
                  cellOutcomeName(res.outcome),
                  std::to_string(res.cycles),
                  formatDouble(res.seconds * 1e3, 4),
                  formatDouble(res.energyJ * 1e3, 4),
                  formatDouble(res.wallMs, 1), detail});
    }
    t.print();
    std::printf("cells: %zu ok, %zu failed, %zu timed out "
                "(of %zu)\n",
                report.okCount(), report.failedCount(),
                report.timedOutCount(), report.results.size());
    if (report.fromStoreCount() > 0 || report.totalRetries() > 0)
        std::printf("journal: %zu cells replayed from the store, "
                    "%llu transient-failure retries\n",
                    report.fromStoreCount(),
                    static_cast<unsigned long long>(
                        report.totalRetries()));
    if (!csv_path.empty() && !t.writeCsv(csv_path))
        return ioError("cannot write csv", csv_path, errno);
    return Status();
}

std::string
sweepReportToJson(const SweepReport &report)
{
    std::string j;
    j += "{\n";
    j += "  \"schema\": \"hetsim-sweep-report-v1\",\n";
    j += "  \"cells\": [\n";
    for (size_t i = 0; i < report.cells.size(); ++i) {
        const SweepCell &cell = report.cells[i];
        const CellResult &res = report.results[i];
        j += "    {\n";
        j += "      \"config\": \"" +
             obs::jsonEscape(cellConfigName(cell)) + "\",\n";
        j += "      \"workload\": \"" +
             obs::jsonEscape(cellWorkloadName(cell)) + "\",\n";
        j += "      \"outcome\": \"";
        j += cellOutcomeName(res.outcome);
        j += "\",\n";
        j += "      \"detail\": \"" +
             obs::jsonEscape(res.status.ok() ? ""
                                             : res.status.toString()) +
             "\",\n";
        j += "      \"cycles\": " + std::to_string(res.cycles) + ",\n";
        j += "      \"ops\": " + std::to_string(res.ops) + ",\n";
        j += "      \"seconds\": " + obs::jsonDouble(res.seconds) +
             ",\n";
        j += "      \"energy_j\": " + obs::jsonDouble(res.energyJ) +
             "\n";
        j += i + 1 < report.cells.size() ? "    },\n" : "    }\n";
    }
    j += "  ]\n";
    j += "}\n";
    return j;
}

Status
writeSweepReportJson(const SweepReport &report,
                     const std::string &path)
{
    const std::string j = sweepReportToJson(report);
    Result<FileHandle> f = openFile(path, "wb");
    if (!f.ok())
        return f.status();
    if (std::fwrite(j.data(), 1, j.size(), f.value().get()) !=
        j.size())
        return ioError("short write to sweep report", path, errno);
    return Status();
}

} // namespace hetsim::core
