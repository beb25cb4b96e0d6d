/**
 * @file
 * hetsim as a service: a resident batch daemon over a unix socket.
 *
 * `hetsim_cli serve` turns the one-shot CLI into a long-lived job
 * server. Clients connect to a unix-domain socket and exchange one
 * length-prefixed JSON request/response pair per connection:
 *
 *   request  := u32 little-endian byte length + flat JSON object
 *   response := u32 little-endian byte length + JSON document
 *
 * Supported jobs (the "cmd" field): "run" and "gpu" (one cell),
 * "sweep" (configs x workloads matrix), "dse" (design-space
 * exploration), "ping", and "stats". Numeric "priority" orders the
 * queue (higher first, FIFO within a priority). Responses embed the
 * same deterministic report documents the CLI writes with
 * --report-json, so a served job's bytes equal a local run's bytes.
 *
 * Robustness model:
 *  - Every cell, DSE designs included, executes through the
 *    fork-isolated sweep runner: a crashing or hung job costs that cell, never the
 *    daemon. Transient failures retry with exponential backoff.
 *  - A shared ResultStore memoizes every cell durably; repeat jobs
 *    are served from verified, checksummed disk entries.
 *  - A malformed request poisons exactly one connection (error
 *    response, closed); the accept loop keeps running.
 *  - SIGTERM/SIGINT request a graceful drain: the server stops
 *    accepting, finishes every queued job, responds to every waiting
 *    client, and exits — surfacing its lifetime counters (jobs,
 *    store hits/misses/quarantines, retries) as a versioned
 *    RunReport.
 *  - The socket and the singleton lock file are RAII FdHandles; the
 *    lock (flock) refuses a second server on the same socket path.
 *
 * The server is single-threaded: the accept loop and job execution
 * interleave in one event loop (the listen backlog buffers clients
 * while a job runs), so every cell process is forked from a
 * single-threaded process.
 */

#ifndef HETSIM_CORE_SERVER_HH
#define HETSIM_CORE_SERVER_HH

#include <csignal>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/file.hh"
#include "common/json.hh"
#include "common/report.hh"
#include "common/status.hh"
#include "core/result_store.hh"

namespace hetsim::core
{

/** Maximum accepted request body (a flat job object is tiny). */
constexpr uint32_t kServeMaxRequestBytes = 1u << 20;

/** Schema tag of every server response document. */
constexpr const char *kServeResponseSchema =
    "hetsim-serve-response-v1";

/** Batch-server knobs. */
struct ServeOptions
{
    std::string socketPath;   ///< Unix-domain socket to listen on.
    std::string storeDir;     ///< Durable result store ("" = none).
    unsigned jobs = 1;        ///< DSE cells in flight at once.
    double wallLimitMs = 0.0; ///< Per-cell wall-clock watchdog.
    uint64_t watchdogCycles = 0; ///< Per-cell cycle watchdog.
    uint32_t maxRetries = 1;  ///< Transient-failure retries per cell.
    double retryBackoffMs = 50.0;
    /** Clients must deliver a full request this fast (a stalled
     *  connection must not wedge the daemon). */
    double requestTimeoutMs = 10000.0;
    bool verbose = false;

    /** Per-cell mid-run checkpoint cadence (0 = off; needs a store
     *  directory — checkpoints live there). With it, a drain signal
     *  preempts the in-flight cell at its next quiesce point instead
     *  of running it to completion, and re-submitting the job after a
     *  restart resumes the cell mid-run from its checkpoint. */
    uint64_t checkpointEveryCycles = 0;
    /** Preemption flag cells poll; the CLI's drain signal handler
     *  sets it alongside the self-pipe write. Only consulted when
     *  checkpointEveryCycles > 0. */
    const volatile sig_atomic_t *preempt = nullptr;
};

/** One parsed, accepted job waiting in the queue. */
struct ServerJob
{
    uint64_t id = 0;        ///< Accept order (FIFO tie-break).
    int64_t priority = 0;   ///< Higher runs sooner.
    JsonObject request;     ///< The parsed flat job object.
    FdHandle conn;          ///< Connection awaiting the response.
};

/**
 * Priority job queue: max priority first, FIFO within a priority.
 * Single-threaded (the server's event loop owns it); exposed for
 * direct testing.
 */
class JobQueue
{
  public:
    void push(ServerJob job);

    /** Highest-priority job; panics when empty() (caller bug). */
    ServerJob pop();

    bool empty() const { return jobs_.empty(); }
    size_t size() const { return jobs_.size(); }

  private:
    std::vector<ServerJob> jobs_; ///< Kept heap-ordered by push/pop.
};

/** Lifetime counters surfaced in the server's RunReport. */
struct ServerCounters
{
    uint64_t jobsAccepted = 0;
    uint64_t jobsCompleted = 0;
    uint64_t jobsRejected = 0; ///< Malformed/unknown requests.
    uint64_t cellsOk = 0;
    uint64_t cellsFailed = 0;
    uint64_t cellsTimedOut = 0;
    uint64_t retries = 0;
};

class BatchServer
{
  public:
    explicit BatchServer(ServeOptions opts);
    ~BatchServer();

    BatchServer(const BatchServer &) = delete;
    BatchServer &operator=(const BatchServer &) = delete;

    /**
     * Acquire the singleton lock, open the store, bind + listen.
     * EADDRINUSE-style failures (another live server) come back as a
     * Status, not a crash.
     */
    Status start();

    /**
     * The event loop: accept connections, read + parse requests,
     * execute jobs best-priority-first, respond. Returns after a
     * drain request once every accepted job has been answered.
     */
    Status serve();

    /**
     * Begin a graceful drain. Safe from any thread and from signal
     * handlers (one write(2) to a self-pipe).
     */
    void requestDrain();

    /** The self-pipe write end, for installing signal handlers. */
    int drainWakeupFd() const { return drainWrite_.get(); }

    /** Lifetime counters + store counters as a versioned RunReport
     *  (kind "server", schema hetsim-run-report-v1). */
    obs::RunReport buildReport() const;

    const ServeOptions &options() const { return opts_; }
    ServerCounters counters() const { return counters_; }
    ResultStore *store()
    {
        return store_ ? &*store_ : nullptr;
    }

  private:
    struct PendingConn
    {
        FdHandle fd;
        std::string buf;     ///< Bytes received so far.
        double deadlineMs = 0.0;
    };

    Status bindAndListen();
    void acceptPending();
    void readPending();
    /** Full frame received: parse and enqueue (or reject). */
    void finishRequest(PendingConn &conn);
    void executeOne();
    std::string executeJob(const ServerJob &job);
    struct SweepOptions sweepOptionsFor(const JsonObject &req);
    void accountSweep(const struct SweepReport &report);
    /** run, gpu and sweep: build the cells, run them, respond with
     *  the sweep report. */
    std::string cellJob(const ServerJob &job, const std::string &cmd);
    std::string dseJob(const ServerJob &job);
    std::string statsJson() const;
    void respond(FdHandle conn, const std::string &doc);

    ServeOptions opts_;
    FdHandle listen_;
    FdHandle lock_;
    FdHandle drainRead_;
    FdHandle drainWrite_;
    std::optional<ResultStore> store_;
    JobQueue queue_;
    std::vector<PendingConn> pending_;
    ServerCounters counters_;
    uint64_t nextJobId_ = 1;
    bool draining_ = false;
    bool started_ = false;
};

/**
 * Client side: connect to `socket_path`, send one request object,
 * return the response document. Used by `hetsim_cli submit` and the
 * server tests.
 */
Result<std::string> submitJob(const std::string &socket_path,
                              const std::string &request_json,
                              double timeout_ms = 60000.0);

} // namespace hetsim::core

#endif // HETSIM_CORE_SERVER_HH
