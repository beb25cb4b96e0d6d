/**
 * @file
 * hetsim_cli — the command-line front end to the library.
 *
 *   hetsim_cli list
 *       Print every configuration, application, and GPU kernel.
 *   hetsim_cli run --config AdvHet --app fft [--scale S] [--freq F]
 *                  [--cores N] [--seed K] [--no-skip 1]
 *                  [--csv out.csv] [--report-json report.json]
 *                  [--trace-out t.json] [--trace-capacity N]
 *                  [--checkpoint ck.hckp] [--checkpoint-every N]
 *       Simulate one CPU experiment and print its metrics.
 *       --checkpoint enables checkpoint/restore: the run saves a
 *       verified, atomically-rotated checkpoint every N cycles
 *       (--checkpoint-every; 0 = only on SIGTERM), drains to one on
 *       SIGTERM (exit 3), auto-resumes when the file exists, and
 *       removes it on completion. A run killed at any point and
 *       re-invoked identically produces byte-identical --report-json
 *       output to an uninterrupted run with the same flags.
 *       --no-skip 1 disables event-horizon cycle skipping (the
 *       slower reference path; reports are byte-identical either
 *       way — run/gpu/sweep/dse all accept it).
 *       --report-json writes the machine-readable RunReport (every
 *       stat counter and distribution, per-unit energy, config
 *       identity); two identical runs produce byte-identical files.
 *       --trace-out records the last N (default 65536) pipeline and
 *       cache events into a chrome://tracing JSON.
 *   hetsim_cli gpu --config AdvHet --kernel matrixmul [--scale S]
 *                  [--report-json report.json] [--trace-out t.json]
 *       Simulate one GPU experiment (trace records wavefront issue).
 *   hetsim_cli record --app fft [--thread T] [--threads N]
 *                     [--scale S] [--max M] --out trace.bin
 *       Record a synthetic trace to a binary file.
 *   hetsim_cli replay --trace trace.bin [--config BaseCMOS]
 *       Replay a recorded trace through a single core (one inline
 *       trace cell of the sweep runner).
 *   hetsim_cli sweep [--configs all|A,B] [--workloads w1,w2]
 *                    [--scale S] [--seed K] [--freq F]
 *                    [--jobs N] [--timeout-ms T]
 *                    [--watchdog-cycles N]
 *                    [--no-isolate 1] [--csv out.csv]
 *                    [--store DIR] [--resume 1] [--retries N]
 *                    [--retry-backoff-ms B]
 *       Run a batch (config x workload) sweep; each cell executes in
 *       an isolated child process with watchdogs, so corrupt traces,
 *       crashes, and runaway cells are recorded per cell while the
 *       rest of the sweep completes. --jobs N keeps up to N cells in
 *       flight at once (results stay in plan order, so the report is
 *       byte-identical to a serial run). Workload specs: "fft",
 *       "app:fft@scale=2", "trace:file.bin", "kernel:dct" (kernel
 *       cells use GPU configs named via --gpu-configs).
 *       --report-json writes the deterministic per-cell JSON report.
 *       --store DIR journals each cell's terminal outcome into a
 *       checksummed on-disk result store as it completes; --resume 1
 *       replays journaled cells instead of re-executing them, so a
 *       killed sweep restarted with the same flags re-runs only the
 *       missing cells and produces a byte-identical --report-json.
 *       --retries N re-runs transient failures (worker crashes,
 *       wall-clock kills) up to N times with exponential backoff
 *       (deterministically jittered per cell).
 *       --checkpoint-every N (needs --store) adds mid-run cell
 *       checkpoints in the store directory: SIGTERM drains the
 *       in-flight cell to a checkpoint and stops (exit 3), and
 *       --resume 1 then continues that cell mid-run.
 *       Exits 0 as long as the sweep itself ran; per-cell failures
 *       are reported in the summary, not via the exit code.
 *   hetsim_cli dse [--space cpu|gpu] [--app fft | --kernel matrixmul]
 *                  [--objective ed2|energy|time]
 *                  [--strategy exhaustive|greedy] [--jobs N]
 *                  [--budget-mm2 X] [--scale S] [--seed K] [--freq F]
 *                  [--store DIR] [--csv out.csv]
 *       Explore the free-form hybrid-design space (per-unit
 *       CMOS/TFET/high-V_t choices beyond Table IV) on one workload
 *       and report the Pareto front over (time, energy, area). Every
 *       design is a cell of the sweep runner, up to --jobs forked at
 *       once; results land in plan order, so the output is identical
 *       for any --jobs value. --report-json writes the evaluated
 *       points as JSON, byte-identical for any --jobs. --store DIR is
 *       the exploration's memo: cells are journaled to the on-disk
 *       store and replayed from it, so a repeated exploration is
 *       warm. A design whose run fails or hits the cycle watchdog is
 *       skipped with a warning, never ranked.
 *   hetsim_cli store fsck --dir DIR
 *   hetsim_cli store gc --dir DIR
 *       Offline store maintenance: verify every .hres entry exactly
 *       as get() would (quarantining corrupt ones), verify every
 *       .hckp / .prev checkpoint's header and checksums report-only
 *       (live resumable state is never renamed or removed), and
 *       report quarantined files and orphaned atomic-write temp
 *       files. fsck only reports (exit 1 while problem files
 *       remain); gc additionally deletes quarantined files and
 *       orphan temps (never live entries or checkpoints).
 *
 *   run and gpu also accept --store DIR: the full RunReport is
 *   memoized durably, and an identical re-invocation prints the same
 *   table and writes byte-identical --report-json output without
 *   re-simulating (bypassed when --trace-out is requested).
 *
 * Every option takes a value; an unknown option, a missing value or
 * a malformed number is an error. The library reports input errors as
 * Status values; this front end is where they become messages and a
 * nonzero process exit.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/file.hh"
#include "common/logging.hh"
#include "common/status.hh"
#include "common/table.hh"
#include "core/dse.hh"
#include "core/experiment.hh"
#include "core/result_store.hh"
#include "core/sweep.hh"
#include "workload/cpu_trace_gen.hh"
#include "workload/trace_file.hh"

using namespace hetsim;

namespace
{

/** CLI-layer fatal: print and exit(1). Library code returns Status
 *  instead; only the front end may terminate the process. */
[[noreturn]] void
die(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

void
vdie(const char *fmt, va_list ap)
{
    std::fprintf(stderr, "error: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    std::exit(1);
}

[[noreturn]] void
die(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vdie(fmt, ap);
    va_end(ap);
    std::abort(); // Unreachable; vdie exits.
}

[[noreturn]] void
dieOn(const Status &status)
{
    die("%s", status.toString().c_str());
}

/** --key value arguments, checked against the options the command
 *  takes. Malformed input is an error, never a silent default. */
class Args
{
  public:
    Args(int argc, char **argv, int first,
         const std::vector<std::string> &known)
    {
        for (int i = first; i < argc; i += 2) {
            if (std::strncmp(argv[i], "--", 2) != 0)
                die("expected --option, got '%s'", argv[i]);
            const std::string key = argv[i] + 2;
            if (std::find(known.begin(), known.end(), key) ==
                known.end())
                die("unknown option --%s", key.c_str());
            if (i + 1 >= argc)
                die("--%s needs a value", key.c_str());
            kv_[key] = argv[i + 1];
        }
    }

    std::string
    get(const std::string &key, const std::string &dflt = "") const
    {
        auto it = kv_.find(key);
        return it == kv_.end() ? dflt : it->second;
    }

    /** A finite number; anything else after it is an error. */
    double
    getD(const std::string &key, double dflt) const
    {
        auto it = kv_.find(key);
        if (it == kv_.end())
            return dflt;
        const char *text = it->second.c_str();
        char *end = nullptr;
        errno = 0;
        const double v = std::strtod(text, &end);
        if (end == text || *end != '\0' || errno == ERANGE ||
            !std::isfinite(v))
            die("--%s needs a number, got '%s'", key.c_str(), text);
        return v;
    }

    /** getD() of a quantity that must be above zero (a scale or a
     *  frequency). */
    double
    getPositive(const std::string &key, double dflt) const
    {
        const double v = getD(key, dflt);
        if (v <= 0.0)
            die("--%s must be positive, got '%s'", key.c_str(),
                get(key).c_str());
        return v;
    }

    /** A non-negative decimal integer (no sign, no trailing text). */
    uint64_t
    getU(const std::string &key, uint64_t dflt) const
    {
        auto it = kv_.find(key);
        if (it == kv_.end())
            return dflt;
        const char *text = it->second.c_str();
        char *end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(text, &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
            *end != '\0' || errno == ERANGE)
            die("--%s needs a non-negative integer, got '%s'",
                key.c_str(), text);
        return v;
    }

    /** getU() of a count the simulator holds in 32 bits (jobs,
     *  cores, threads, retries); a wider value is an error, never a
     *  silent wrap. */
    uint32_t
    getU32(const std::string &key, uint32_t dflt) const
    {
        const uint64_t v = getU(key, dflt);
        if (v > UINT32_MAX)
            die("--%s must be at most %u, got '%s'", key.c_str(),
                UINT32_MAX, get(key).c_str());
        return static_cast<uint32_t>(v);
    }

  private:
    std::map<std::string, std::string> kv_;
};

core::CpuConfig
cpuConfigByName(const std::string &name)
{
    Result<core::CpuConfig> r = core::cpuConfigFromName(name);
    if (!r.ok())
        dieOn(r.status());
    return r.value();
}

core::GpuConfig
gpuConfigByName(const std::string &name)
{
    Result<core::GpuConfig> r = core::gpuConfigFromName(name);
    if (!r.ok())
        dieOn(r.status());
    return r.value();
}

/** Preemption flag shared by the SIGTERM handler and checkpointed
 *  commands; forked sweep children inherit the handler, so a signal
 *  to the process group preempts the in-flight cell too. */
volatile sig_atomic_t g_preempt = 0;

extern "C" void
onPreemptSignal(int)
{
    g_preempt = 1;
}

void
installPreemptHandler()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onPreemptSignal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
}

/** Exit code of a run stopped at a preemption checkpoint (1 is a
 *  plain error). */
constexpr int kExitPreempted = 3;

int
cmdList()
{
    std::printf("CPU configurations:\n ");
    for (int i = 0; i < core::kNumCpuConfigs; ++i)
        std::printf(" %s", core::cpuConfigName(
                               static_cast<core::CpuConfig>(i)));
    std::printf("\nGPU configurations:\n ");
    for (int i = 0; i < core::kNumGpuConfigs; ++i)
        std::printf(" %s", core::gpuConfigName(
                               static_cast<core::GpuConfig>(i)));
    std::printf("\nCPU applications:\n ");
    for (const auto &app : workload::cpuApps())
        std::printf(" %s", app.name);
    std::printf("\nGPU kernels:\n ");
    for (const auto &k : workload::gpuKernels())
        std::printf(" %s", k.name);
    std::printf("\n");
    return 0;
}

/** Open the --store directory when given; dies on open failure. */
std::optional<core::ResultStore>
openStoreArg(const Args &args)
{
    const std::string dir = args.get("store");
    if (dir.empty())
        return std::nullopt;
    Result<core::ResultStore> store = core::ResultStore::open(dir);
    if (!store.ok())
        dieOn(store.status());
    return std::optional<core::ResultStore>(std::move(store.value()));
}

/** Durable memo of one run/gpu invocation: the table scalars plus
 *  the full RunReport document, so a warm hit reproduces both the
 *  printed table and byte-identical --report-json output. */
struct RunMemo
{
    uint64_t cycles = 0;
    uint64_t ops = 0;
    double seconds = 0.0;
    double energyJ = 0.0;
    std::string reportJson;
};

struct [[gnu::packed]] RunMemoHead
{
    uint64_t cycles;
    uint64_t ops;
    double seconds;
    double energyJ;
    uint32_t reportLen;
};

std::string
encodeRunMemo(const RunMemo &memo)
{
    const RunMemoHead head = {
        memo.cycles, memo.ops, memo.seconds, memo.energyJ,
        static_cast<uint32_t>(memo.reportJson.size())};
    std::string out(reinterpret_cast<const char *>(&head),
                    sizeof(head));
    out += memo.reportJson;
    return out;
}

bool
decodeRunMemo(const std::string &payload, RunMemo *out)
{
    RunMemoHead head;
    if (payload.size() < sizeof(head))
        return false;
    std::memcpy(&head, payload.data(), sizeof(head));
    if (payload.size() != sizeof(head) + head.reportLen)
        return false;
    out->cycles = head.cycles;
    out->ops = head.ops;
    out->seconds = head.seconds;
    out->energyJ = head.energyJ;
    out->reportJson = payload.substr(sizeof(head));
    return true;
}

/** Write pre-serialized report bytes verbatim (the warm-hit path
 *  must reproduce the cold run's file exactly). */
void
writeReportBytes(const std::string &path, const std::string &bytes)
{
    Result<FileHandle> file = openFile(path, "wb");
    if (!file.ok())
        dieOn(file.status());
    if (std::fwrite(bytes.data(), 1, bytes.size(),
                    file.value().get()) != bytes.size())
        dieOn(ioError("write failed", path));
    std::printf("report: %s\n", path.c_str());
}

/** Write the --report-json / --trace-out artifacts of one run. */
void
writeRunArtifacts(const Args &args, obs::RunReport &report,
                  const obs::TraceBuffer &trace)
{
    const std::string report_path = args.get("report-json");
    if (!report_path.empty()) {
        const Status s = report.writeJson(report_path);
        if (!s.ok())
            dieOn(s);
        std::printf("report: %s\n", report_path.c_str());
    }
    const std::string trace_path = args.get("trace-out");
    if (!trace_path.empty()) {
        const Status s = obs::writeChromeTrace(trace, trace_path);
        if (!s.ok())
            dieOn(s);
        std::printf("trace: %s (%llu events kept, %llu dropped)\n",
                    trace_path.c_str(),
                    static_cast<unsigned long long>(trace.size()),
                    static_cast<unsigned long long>(trace.dropped()));
    }
}

/** Options shared by run and gpu, including checkpoint/restore. */
core::ExperimentOptions
runOptions(const Args &args)
{
    core::ExperimentOptions opts;
    opts.scale = args.getPositive("scale", 1.0);
    opts.seed = args.getU("seed", 1);
    opts.noSkip = args.getU("no-skip", 0) != 0;
    opts.checkpointPath = args.get("checkpoint");
    opts.checkpointEveryCycles = args.getU("checkpoint-every", 0);
    if (opts.checkpointPath.empty() &&
        opts.checkpointEveryCycles > 0)
        die("--checkpoint-every needs --checkpoint <path>");
    if (!opts.checkpointPath.empty()) {
        installPreemptHandler();
        opts.preempt = &g_preempt;
    }
    return opts;
}

/** The metrics rows run and gpu print. */
void
addMemoRows(TablePrinter &t, const RunMemo &memo, const char *ops_label)
{
    const double power_w =
        memo.seconds > 0.0 ? memo.energyJ / memo.seconds : 0.0;
    t.addRow({"cycles", std::to_string(memo.cycles)});
    t.addRow({ops_label, std::to_string(memo.ops)});
    t.addRow({"time (ms)", formatDouble(memo.seconds * 1e3, 4)});
    t.addRow({"energy (mJ)", formatDouble(memo.energyJ * 1e3, 4)});
    t.addRow({"power (W)", formatDouble(power_w, 3)});
}

/**
 * The body run and gpu share. With --store, an untraced invocation
 * whose key has a verified entry is served from it; otherwise
 * `simulate(report, trace, &memo)` runs the experiment (false: it
 * stopped at a preemption checkpoint) and the result is journaled.
 * Tracing records live pipeline events, so a traced run always
 * executes, and still journals. `print(memo)` prints the table, then
 * the --report-json / --trace-out artifacts are written. Returns the
 * exit code.
 */
template <typename Simulate, typename Print>
int
runMemoized(const Args &args, const char *cmd,
            const core::ExperimentOptions &opts, const std::string &key,
            Simulate simulate, Print print)
{
    obs::RunReport report;
    obs::TraceBuffer trace(
        static_cast<size_t>(args.getU("trace-capacity", 65536)));
    const std::string report_path = args.get("report-json");
    const bool want_trace = !args.get("trace-out").empty();
    std::optional<core::ResultStore> store = openStoreArg(args);

    RunMemo memo;
    bool from_store = false;
    if (store && !want_trace) {
        if (Result<std::string> hit = store->get(key); hit.ok())
            from_store = decodeRunMemo(hit.value(), &memo);
    }

    if (!from_store) {
        // Fill the report whenever it is journaled, not only when
        // --report-json asked for it: a later warm hit needs it.
        const bool want_report = !report_path.empty() || store;
        if (!simulate(want_report ? &report : nullptr,
                      want_trace ? &trace : nullptr, &memo)) {
            std::printf("preempted at cycle %llu: checkpoint saved "
                        "to %s; rerun the same command to resume\n",
                        static_cast<unsigned long long>(memo.cycles),
                        opts.checkpointPath.c_str());
            return kExitPreempted;
        }
        if (want_report)
            memo.reportJson = report.toJson();
        if (store) {
            if (Status s = store->put(key, encodeRunMemo(memo));
                !s.ok())
                warn("%s: store put failed: %s", cmd,
                     s.toString().c_str());
        }
    }

    print(memo);
    if (from_store) {
        std::printf("store: verified hit (%s)\n",
                    store->entryPath(key).c_str());
        if (!report_path.empty())
            writeReportBytes(report_path, memo.reportJson);
    } else {
        writeRunArtifacts(args, report, trace);
    }
    return 0;
}

int
cmdRun(const Args &args)
{
    const auto cfg = cpuConfigByName(args.get("config", "BaseCMOS"));
    const auto app = workload::findCpuApp(args.get("app", "fft"));
    if (!app.ok())
        dieOn(app.status());
    core::ExperimentOptions opts = runOptions(args);
    opts.freqGhz = args.getPositive("freq", 2.0);
    opts.coresOverride = args.getU32("cores", 0);
    const std::string config = core::cpuConfigName(cfg);
    const std::string key = "run-report-v1|" +
        core::runKey("cpu", config, app.value()->name, opts);

    TablePrinter t("hetsim run: " + config + " / " + app.value()->name,
                   {"metric", "value"});
    const int rc = runMemoized(
        args, "run", opts, key,
        [&](obs::RunReport *report, obs::TraceBuffer *trace,
            RunMemo *memo) {
            const core::CpuOutcome out = core::runCpuExperiment(
                cfg, *app.value(), opts, report, trace);
            if (report != nullptr)
                report->designHash =
                    core::designHash(core::cpuHybridFromConfig(cfg));
            *memo = {out.cycles, out.committedOps, out.metrics.seconds,
                     out.metrics.energyJ, ""};
            return !out.preempted;
        },
        [&](const RunMemo &memo) {
            addMemoRows(t, memo, "committed ops");
            char ed2[32];
            std::snprintf(ed2, sizeof(ed2), "%.3e",
                          memo.energyJ * memo.seconds * memo.seconds);
            t.addRow({"ED^2 (J s^2)", ed2});
            t.print();
        });
    if (rc != 0)
        return rc;
    const std::string csv = args.get("csv");
    if (!csv.empty() && !t.writeCsv(csv))
        die("cannot write '%s'", csv.c_str());
    return 0;
}

int
cmdGpu(const Args &args)
{
    const auto cfg = gpuConfigByName(args.get("config", "BaseCMOS"));
    const auto kernel =
        workload::findGpuKernel(args.get("kernel", "matrixmul"));
    if (!kernel.ok())
        dieOn(kernel.status());
    const core::ExperimentOptions opts = runOptions(args);
    const std::string config = core::gpuConfigName(cfg);
    const std::string key = "run-report-v1|" +
        core::runKey("gpu", config, kernel.value()->name, opts);

    return runMemoized(
        args, "gpu", opts, key,
        [&](obs::RunReport *report, obs::TraceBuffer *trace,
            RunMemo *memo) {
            const core::GpuOutcome out = core::runGpuExperiment(
                cfg, *kernel.value(), opts, report, trace);
            if (report != nullptr)
                report->designHash =
                    core::designHash(core::gpuHybridFromConfig(cfg));
            *memo = {out.cycles, out.issuedOps, out.metrics.seconds,
                     out.metrics.energyJ, ""};
            return !out.preempted;
        },
        [&](const RunMemo &memo) {
            TablePrinter t("hetsim gpu: " + config + " / " +
                               kernel.value()->name,
                           {"metric", "value"});
            addMemoRows(t, memo, "issued ops");
            t.print();
        });
}

int
cmdRecord(const Args &args)
{
    const auto app = workload::findCpuApp(args.get("app", "fft"));
    if (!app.ok())
        dieOn(app.status());
    const std::string out_path = args.get("out");
    if (out_path.empty())
        die("record needs --out <file>");
    const uint32_t threads = args.getU32("threads", 4);
    const uint32_t thread = args.getU32("thread", 0);
    if (thread >= threads)
        die("--thread %u must be below --threads %u", thread, threads);
    workload::SyntheticCpuTrace src(*app.value(), thread, threads,
                                    args.getU("seed", 1),
                                    args.getPositive("scale", 1.0));
    const Result<uint64_t> n = workload::recordTrace(
        src, out_path, args.getU("max", ~0ull));
    if (!n.ok())
        dieOn(n.status());
    std::printf("recorded %llu ops of %s (thread %u/%u) to %s\n",
                static_cast<unsigned long long>(n.value()),
                app.value()->name, thread, threads,
                out_path.c_str());
    return 0;
}

int
cmdReplay(const Args &args)
{
    const std::string path = args.get("trace");
    if (path.empty())
        die("replay needs --trace <file>");
    const auto cfg = cpuConfigByName(args.get("config", "BaseCMOS"));

    // One inline trace cell: the sweep runner's single-core replay.
    core::SweepOptions opts;
    opts.isolate = false;
    const core::CellResult res =
        core::runSweep({core::cpuTraceCell(cfg, path)}, opts)
            .results.front();
    if (res.outcome != core::CellOutcome::Ok)
        dieOn(res.status);
    std::printf("replayed %llu ops from %s on one %s core: "
                "%llu cycles (%.4f ms, IPC %.2f)\n",
                static_cast<unsigned long long>(res.ops),
                path.c_str(), core::cpuConfigName(cfg),
                static_cast<unsigned long long>(res.cycles),
                res.seconds * 1e3,
                static_cast<double>(res.ops) / res.cycles);
    return 0;
}

int
cmdSweep(const Args &args)
{
    // Workload specs crossed with the CPU configs (every one by
    // default).
    Result<std::vector<core::CpuConfig>> cfgs =
        core::cpuConfigsFromList(args.get("configs", "all"));
    if (!cfgs.ok())
        dieOn(cfgs.status());
    std::vector<core::SweepCell> cells;
    const auto specs = core::splitCsvList(args.get("workloads", ""));
    if (!specs.empty()) {
        auto crossed = core::crossCpuCells(cfgs.value(), specs);
        if (!crossed.ok())
            dieOn(crossed.status());
        cells = std::move(crossed.value());
    }

    // GPU cells (every named GPU config x every kernel) and
    // individually added "Config/spec" cells.
    const auto addCell = [&cells](const std::string &cfg,
                                  const std::string &spec) {
        Result<core::SweepCell> cell = core::parseCellEntry(cfg, spec);
        if (!cell.ok())
            dieOn(cell.status());
        cells.push_back(std::move(cell.value()));
    };
    for (const std::string &cfg :
         core::splitCsvList(args.get("gpu-configs", "")))
        for (const std::string &k :
             core::splitCsvList(args.get("kernels", "")))
            addCell(cfg, "kernel:" + k);
    for (const std::string &entry :
         core::splitCsvList(args.get("cells", ""))) {
        const size_t slash = entry.find('/');
        if (slash == std::string::npos)
            die("bad --cells entry '%s' (expected Config/workload)",
                entry.c_str());
        addCell(entry.substr(0, slash), entry.substr(slash + 1));
    }

    if (cells.empty())
        die("sweep needs --workloads, --kernels, or --cells");

    core::SweepOptions opts;
    opts.exp.scale = args.getPositive("scale", 1.0);
    opts.exp.freqGhz = args.getPositive("freq", 2.0);
    opts.exp.seed = args.getU("seed", 1);
    opts.exp.watchdogCycles = args.getU("watchdog-cycles", 0);
    opts.exp.noSkip = args.getU("no-skip", 0) != 0;
    opts.wallLimitMs = args.getD("timeout-ms", 0.0);
    opts.isolate = args.getU("no-isolate", 0) == 0;
    opts.jobs = args.getU32("jobs", 1);
    opts.verbose = true;

    std::optional<core::ResultStore> store = openStoreArg(args);
    opts.store = store ? &*store : nullptr;
    opts.resume = args.getU("resume", 0) != 0;
    opts.maxRetries = args.getU32("retries", 0);
    opts.retryBackoffMs = args.getD("retry-backoff-ms", 50.0);
    if (opts.resume && !opts.store)
        die("--resume 1 needs --store <dir> (nothing to replay)");
    opts.exp.checkpointEveryCycles =
        args.getU("checkpoint-every", 0);
    if (opts.exp.checkpointEveryCycles > 0) {
        if (!opts.store)
            die("--checkpoint-every needs --store <dir> "
                "(mid-run checkpoints live in the store directory)");
        opts.checkpointDir = store->dir();
        installPreemptHandler();
        opts.exp.preempt = &g_preempt;
    }

    const core::SweepReport report = core::runSweep(cells, opts);
    const Status printed =
        printSweepReport(report, args.get("csv"));
    if (!printed.ok())
        dieOn(printed);
    if (report.preempted()) {
        std::printf("preempted: mid-run checkpoints journaled in "
                    "%s; rerun with --resume 1 to continue\n",
                    store->dir().c_str());
        return kExitPreempted;
    }
    const std::string report_path = args.get("report-json");
    if (!report_path.empty()) {
        const Status s =
            core::writeSweepReportJson(report, report_path);
        if (!s.ok())
            dieOn(s);
        std::printf("report: %s\n", report_path.c_str());
    }
    // Per-cell failures are data, not a process failure: a sweep
    // that completes exits 0 so batch drivers keep their results.
    return 0;
}

/** Table IV annotation: the enum name when a free-form design
 *  coincides with a paper configuration, else "". */
std::string
tableIvNameCpu(uint64_t hash)
{
    for (int i = 0; i < core::kNumCpuConfigs; ++i) {
        const auto cfg = static_cast<core::CpuConfig>(i);
        if (core::designHash(core::cpuHybridFromConfig(cfg)) == hash)
            return core::cpuConfigName(cfg);
    }
    return "";
}

std::string
tableIvNameGpu(uint64_t hash)
{
    for (int i = 0; i < core::kNumGpuConfigs; ++i) {
        const auto cfg = static_cast<core::GpuConfig>(i);
        if (core::designHash(core::gpuHybridFromConfig(cfg)) == hash)
            return core::gpuConfigName(cfg);
    }
    return "";
}

int
cmdDse(const Args &args)
{
    const std::string space = args.get("space", "cpu");
    if (space != "cpu" && space != "gpu")
        die("--space must be cpu or gpu, got '%s'", space.c_str());

    core::DseOptions opts;
    opts.exp.scale = args.getPositive("scale", 0.05);
    opts.exp.freqGhz = args.getPositive("freq", 2.0);
    opts.exp.seed = args.getU("seed", 1);
    opts.exp.noSkip = args.getU("no-skip", 0) != 0;
    opts.jobs = args.getU32("jobs", 1);
    opts.areaBudgetMm2 = args.getD("budget-mm2", 0.0);
    const auto objective =
        core::dseObjectiveFromName(args.get("objective", "ed2"));
    if (!objective.ok())
        dieOn(objective.status());
    opts.objective = objective.value();

    const std::string strategy =
        args.get("strategy", "exhaustive");
    if (strategy != "exhaustive" && strategy != "greedy")
        die("--strategy must be exhaustive or greedy, got '%s'",
            strategy.c_str());

    std::optional<core::ResultStore> store = openStoreArg(args);
    opts.store = store ? &*store : nullptr;

    std::vector<core::DsePoint> points;
    if (space == "cpu") {
        const auto app = workload::findCpuApp(args.get("app", "fft"));
        if (!app.ok())
            dieOn(app.status());
        points = strategy == "greedy"
            ? core::greedyCpuSearch(*app.value(), opts)
            : core::evaluateCpuDesigns(core::enumerateCpuDesigns(),
                                       *app.value(), opts);
    } else {
        if (strategy == "greedy")
            die("--strategy greedy explores the CPU space; "
                "the 17-design GPU space is exhaustive-only");
        const auto kernel =
            workload::findGpuKernel(args.get("kernel", "matrixmul"));
        if (!kernel.ok())
            dieOn(kernel.status());
        points = core::evaluateGpuDesigns(core::enumerateGpuDesigns(),
                                          *kernel.value(), opts);
    }
    if (points.empty())
        die("no design survived synthesis, the area budget and its "
            "run");

    const std::vector<size_t> front =
        core::paretoFront(points, opts.objective);

    TablePrinter t(
        "dse " + space + " Pareto front over (time, energy, area), "
        "best " + std::string(dseObjectiveName(opts.objective)) +
        " first (" + std::to_string(points.size()) + " designs "
        "explored)",
        {"design", space == "cpu" ? "cores" : "CUs", "time (ms)",
         "energy (mJ)", "ED^2 (J s^2)", "area (mm^2)", "Table IV"});
    for (size_t idx : front) {
        const core::DsePoint &p = points[idx];
        char ed2[32];
        std::snprintf(ed2, sizeof(ed2), "%.3e", p.ed2());
        t.addRow({p.name, std::to_string(p.cores),
                  formatDouble(p.seconds * 1e3, 4),
                  formatDouble(p.energyJ * 1e3, 4), ed2,
                  formatDouble(p.areaMm2, 2),
                  space == "cpu" ? tableIvNameCpu(p.hash)
                                 : tableIvNameGpu(p.hash)});
    }
    t.print();

    const core::DsePoint &best = points[front.front()];
    std::printf("\nbest %s: %s", dseObjectiveName(opts.objective),
                best.name.c_str());
    const std::string best_iv = space == "cpu"
        ? tableIvNameCpu(best.hash) : tableIvNameGpu(best.hash);
    if (!best_iv.empty())
        std::printf(" (= Table IV %s)", best_iv.c_str());
    std::printf("\n");
    if (store) {
        const core::ResultStore::Counters sc = store->counters();
        std::printf("store: %llu hits, %llu misses, %llu writes, "
                    "%llu quarantined\n",
                    static_cast<unsigned long long>(sc.hits),
                    static_cast<unsigned long long>(sc.misses),
                    static_cast<unsigned long long>(sc.puts),
                    static_cast<unsigned long long>(sc.quarantined));
    }

    const std::string report_path = args.get("report-json");
    if (!report_path.empty()) {
        const std::string workload = space == "cpu"
            ? args.get("app", "fft")
            : args.get("kernel", "matrixmul");
        const Status s = core::writeDseReportJson(
            points, workload, opts.objective, report_path);
        if (!s.ok())
            dieOn(s);
        std::printf("report: %s\n", report_path.c_str());
    }

    const std::string csv = args.get("csv");
    if (!csv.empty() && !t.writeCsv(csv))
        die("cannot write '%s'", csv.c_str());
    return 0;
}

int
cmdStore(int argc, char **argv)
{
    if (argc < 3)
        die("store needs a subcommand: fsck or gc");
    const std::string sub = argv[2];
    if (sub != "fsck" && sub != "gc")
        die("unknown store subcommand '%s' (expected fsck or gc)",
            sub.c_str());
    const Args args(argc, argv, 3, {"dir"});
    const std::string dir = args.get("dir");
    if (dir.empty())
        die("store %s needs --dir <store directory>", sub.c_str());

    Result<core::StoreFsckReport> rep = core::fsckStore(
        dir, workload::kTraceVersion, /*prune=*/sub == "gc");
    if (!rep.ok())
        dieOn(rep.status());
    const core::StoreFsckReport &r = rep.value();
    for (const std::string &note : r.notes)
        std::printf("%s\n", note.c_str());
    std::printf("store %s %s: %llu entries ok, %llu corrupt "
                "(quarantined), %llu quarantined files, "
                "%llu orphan temps, %llu checkpoints "
                "(%llu verified, %llu corrupt, left in place), "
                "%llu pruned\n",
                sub.c_str(), dir.c_str(),
                static_cast<unsigned long long>(r.okEntries),
                static_cast<unsigned long long>(r.corruptEntries),
                static_cast<unsigned long long>(r.quarantined),
                static_cast<unsigned long long>(r.orphanTemps),
                static_cast<unsigned long long>(r.checkpoints),
                static_cast<unsigned long long>(r.okCheckpoints),
                static_cast<unsigned long long>(r.corruptCheckpoints),
                static_cast<unsigned long long>(r.pruned));
    // Nonzero while problem files remain on disk (fsck reports, gc
    // removes; corrupt checkpoints are report-only and stay until
    // their owning run quarantines or replaces them), so cron-style
    // health checks can alert on fsck.
    const uint64_t remaining =
        r.quarantined + r.orphanTemps - r.pruned +
        r.corruptCheckpoints;
    return remaining > 0 ? 1 : 0;
}

} // namespace

/** A command and the options it takes. */
struct Command
{
    const char *name;
    int (*run)(const Args &);
    std::vector<std::string> options;
};

int
main(int argc, char **argv)
{
    const Command commands[] = {
        {"list", [](const Args &) { return cmdList(); }, {}},
        {"run", cmdRun,
         {"config", "app", "scale", "freq", "cores", "seed", "no-skip",
          "csv", "report-json", "trace-out", "trace-capacity",
          "checkpoint", "checkpoint-every", "store"}},
        {"gpu", cmdGpu,
         {"config", "kernel", "scale", "seed", "no-skip", "report-json",
          "trace-out", "trace-capacity", "checkpoint",
          "checkpoint-every", "store"}},
        {"record", cmdRecord,
         {"app", "out", "thread", "threads", "seed", "scale", "max"}},
        {"replay", cmdReplay, {"trace", "config"}},
        {"sweep", cmdSweep,
         {"configs", "workloads", "gpu-configs", "kernels", "cells",
          "scale", "freq", "seed", "watchdog-cycles", "no-skip",
          "timeout-ms", "no-isolate", "jobs", "store", "resume",
          "retries", "retry-backoff-ms", "checkpoint-every", "csv",
          "report-json"}},
        {"dse", cmdDse,
         {"space", "app", "kernel", "objective", "strategy", "jobs",
          "budget-mm2", "scale", "seed", "freq", "no-skip", "store",
          "csv", "report-json"}},
    };
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: hetsim_cli "
                     "{list|run|gpu|record|replay|sweep|dse|store} "
                     "[--opt value]...\n"
                     "see the file header for details\n");
        return 1;
    }
    const std::string cmd = argv[1];
    if (cmd == "store")
        return cmdStore(argc, argv);
    for (const Command &c : commands)
        if (cmd == c.name)
            return c.run(Args(argc, argv, 2, c.options));
    die("unknown command '%s'", cmd.c_str());
}
