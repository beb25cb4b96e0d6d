#include "core/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "core/dse.hh"
#include "core/sweep.hh"
#include "workload/cpu_profiles.hh"
#include "workload/gpu_profiles.hh"

namespace hetsim::core
{

namespace
{

Status
setNonBlocking(int fd, const std::string &what)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        return ioError("fcntl O_NONBLOCK failed", what);
    return Status();
}

/** Frame one document: u32 little-endian length + bytes. */
std::string
frame(const std::string &doc)
{
    const uint32_t len = static_cast<uint32_t>(doc.size());
    std::string out;
    out.reserve(4 + doc.size());
    out.push_back(static_cast<char>(len & 0xff));
    out.push_back(static_cast<char>((len >> 8) & 0xff));
    out.push_back(static_cast<char>((len >> 16) & 0xff));
    out.push_back(static_cast<char>((len >> 24) & 0xff));
    out += doc;
    return out;
}

uint32_t
frameLength(const std::string &buf)
{
    return static_cast<uint32_t>(static_cast<uint8_t>(buf[0])) |
           static_cast<uint32_t>(static_cast<uint8_t>(buf[1])) << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(buf[2])) << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(buf[3])) << 24;
}

/** Blocking send of the whole buffer (MSG_NOSIGNAL: a vanished
 *  client must not SIGPIPE the daemon). */
Status
sendAll(int fd, const std::string &data, const std::string &what)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                struct pollfd pfd = {fd, POLLOUT, 0};
                ::poll(&pfd, 1, 1000);
                continue;
            }
            return ioError("send failed", what);
        }
        off += static_cast<size_t>(n);
    }
    return Status();
}

/** The response document must embed report JSON as a value: strip
 *  the writer's trailing newline so the framing stays tight. */
std::string
trimNewline(std::string doc)
{
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == '\r'))
        doc.pop_back();
    return doc;
}

std::string
errorDoc(uint64_t id, ErrorCode code, const std::string &message)
{
    return std::string("{\"schema\":\"") + kServeResponseSchema +
           "\",\"id\":" + std::to_string(id) +
           ",\"ok\":false,\"code\":\"" + errorCodeName(code) +
           "\",\"error\":\"" + obs::jsonEscape(message) + "\"}\n";
}

std::string
errorDoc(uint64_t id, const Status &status)
{
    return errorDoc(id, status.code(), status.message());
}

/** Success envelope; `body` is extra pre-serialized JSON fields
 *  ("\"report\":{...}"), appended verbatim. */
std::string
okDoc(uint64_t id, const std::string &cmd, const std::string &body)
{
    std::string doc = std::string("{\"schema\":\"") +
                      kServeResponseSchema +
                      "\",\"id\":" + std::to_string(id) +
                      ",\"ok\":true,\"cmd\":\"" +
                      obs::jsonEscape(cmd) + "\"";
    if (!body.empty()) {
        doc += ',';
        doc += body;
    }
    doc += "}\n";
    return doc;
}

} // namespace

// --- JobQueue ---------------------------------------------------------

namespace
{

/** Heap comparator: `a` is *worse* than `b` (max-heap on priority,
 *  FIFO — lower id first — within a priority). */
bool
jobWorse(const ServerJob &a, const ServerJob &b)
{
    if (a.priority != b.priority)
        return a.priority < b.priority;
    return a.id > b.id;
}

} // namespace

void
JobQueue::push(ServerJob job)
{
    jobs_.push_back(std::move(job));
    std::push_heap(jobs_.begin(), jobs_.end(), jobWorse);
}

ServerJob
JobQueue::pop()
{
    hetsim_assert(!jobs_.empty(), "JobQueue::pop on an empty queue");
    std::pop_heap(jobs_.begin(), jobs_.end(), jobWorse);
    ServerJob job = std::move(jobs_.back());
    jobs_.pop_back();
    return job;
}

// --- BatchServer ------------------------------------------------------

BatchServer::BatchServer(ServeOptions opts) : opts_(std::move(opts)) {}

BatchServer::~BatchServer()
{
    if (started_) {
        // The lock file and socket are ours (flock held): clean up so
        // a later server on the same path starts fresh.
        ::unlink(opts_.socketPath.c_str());
        ::unlink((opts_.socketPath + ".lock").c_str());
    }
}

Status
BatchServer::start()
{
    if (started_)
        return Status::error(ErrorCode::Internal,
                             "server already started");
    if (opts_.socketPath.empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "serve: socket path is required");

    // Singleton lock: flock(LOCK_NB) refuses a second server on the
    // same socket path and — unlike the socket file itself — releases
    // automatically when a SIGKILLed server's fds close.
    const std::string lock_path = opts_.socketPath + ".lock";
    FdHandle lock(::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                         0644));
    if (!lock)
        return ioError("open lock failed", lock_path);
    if (::flock(lock.get(), LOCK_EX | LOCK_NB) != 0) {
        if (errno == EWOULDBLOCK)
            return Status::error(
                ErrorCode::InvalidArgument,
                "serve: another server already owns %s (lock %s held)",
                opts_.socketPath.c_str(), lock_path.c_str());
        return ioError("flock failed", lock_path);
    }
    lock_ = std::move(lock);

    if (!opts_.storeDir.empty()) {
        Result<ResultStore> store = ResultStore::open(opts_.storeDir);
        if (!store.ok())
            return store.status();
        store_.emplace(std::move(store.value()));
    }

    // Self-pipe: requestDrain writes one byte; poll in serve() wakes.
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0)
        return ioError("pipe failed", "serve drain pipe");
    drainRead_ = FdHandle(pipe_fds[0]);
    drainWrite_ = FdHandle(pipe_fds[1]);
    for (int fd : pipe_fds) {
        if (Status s = setNonBlocking(fd, "serve drain pipe");
            !s.ok())
            return s;
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }

    if (Status s = bindAndListen(); !s.ok())
        return s;

    started_ = true;
    return Status();
}

Status
BatchServer::bindAndListen()
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (opts_.socketPath.size() >= sizeof(addr.sun_path))
        return Status::error(ErrorCode::InvalidArgument,
                             "serve: socket path too long (%zu bytes, "
                             "max %zu): %s",
                             opts_.socketPath.size(),
                             sizeof(addr.sun_path) - 1,
                             opts_.socketPath.c_str());
    std::memcpy(addr.sun_path, opts_.socketPath.c_str(),
                opts_.socketPath.size());

    FdHandle sock(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!sock)
        return ioError("socket failed", opts_.socketPath);

    // A stale socket file from a crashed server is safe to remove:
    // the flock above proved no live server owns this path.
    ::unlink(opts_.socketPath.c_str());

    if (::bind(sock.get(), reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return ioError("bind failed", opts_.socketPath);
    if (::listen(sock.get(), 64) != 0)
        return ioError("listen failed", opts_.socketPath);
    if (Status s = setNonBlocking(sock.get(), opts_.socketPath);
        !s.ok())
        return s;

    listen_ = std::move(sock);
    return Status();
}

void
BatchServer::requestDrain()
{
    // Async-signal-safe: one write(2) to the self-pipe. A full pipe
    // (drain already requested many times) is fine to ignore.
    if (drainWrite_) {
        const char byte = 'q';
        [[maybe_unused]] ssize_t n =
            ::write(drainWrite_.get(), &byte, 1);
    }
}

Status
BatchServer::serve()
{
    if (!started_)
        return Status::error(ErrorCode::Internal,
                             "serve() before start()");

    while (true) {
        std::vector<struct pollfd> fds;
        fds.push_back({drainRead_.get(), POLLIN, 0});
        if (!draining_ && listen_)
            fds.push_back({listen_.get(), POLLIN, 0});
        for (const PendingConn &conn : pending_)
            fds.push_back({conn.fd.get(), POLLIN, 0});

        // Run a queued job as soon as IO is quiet; otherwise block
        // until the earliest pending-request deadline.
        int timeout_ms = -1;
        if (!queue_.empty()) {
            timeout_ms = 0;
        } else if (!pending_.empty()) {
            double earliest = pending_.front().deadlineMs;
            for (const PendingConn &conn : pending_)
                earliest = std::min(earliest, conn.deadlineMs);
            const double remaining = earliest - monotonicMs();
            timeout_ms = remaining <= 0.0
                             ? 0
                             : static_cast<int>(remaining) + 1;
        }

        const int ready =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   timeout_ms);
        if (ready < 0 && errno != EINTR)
            return ioError("poll failed", opts_.socketPath);

        if (fds[0].revents & POLLIN) {
            char buf[64];
            while (::read(drainRead_.get(), buf, sizeof(buf)) > 0) {
            }
            if (!draining_) {
                draining_ = true;
                listen_.reset();
                ::unlink(opts_.socketPath.c_str());
                if (opts_.verbose)
                    inform("serve: draining (%zu queued, %zu "
                           "reading)",
                           queue_.size(), pending_.size());
            }
        }

        if (!draining_ && listen_)
            acceptPending();
        readPending();

        if (!queue_.empty())
            executeOne();

        if (draining_ && queue_.empty() && pending_.empty())
            break;
    }
    return Status();
}

void
BatchServer::acceptPending()
{
    while (true) {
        FdHandle conn(::accept(listen_.get(), nullptr, nullptr));
        if (!conn)
            break; // EAGAIN/EMFILE/...: try again next loop.
        ::fcntl(conn.get(), F_SETFD, FD_CLOEXEC);
        if (Status s = setNonBlocking(conn.get(), "serve conn");
            !s.ok()) {
            warn("serve: %s", s.toString().c_str());
            continue;
        }
        PendingConn pending;
        pending.fd = std::move(conn);
        pending.deadlineMs = monotonicMs() + opts_.requestTimeoutMs;
        pending_.push_back(std::move(pending));
    }
}

void
BatchServer::readPending()
{
    const double now = monotonicMs();
    for (size_t i = 0; i < pending_.size();) {
        PendingConn &conn = pending_[i];
        bool drop = false;
        bool complete = false;
        while (true) {
            char buf[4096];
            const ssize_t n =
                ::recv(conn.fd.get(), buf, sizeof(buf), 0);
            if (n > 0) {
                conn.buf.append(buf, static_cast<size_t>(n));
                if (conn.buf.size() >= 4) {
                    const uint32_t len = frameLength(conn.buf);
                    if (len > kServeMaxRequestBytes) {
                        counters_.jobsRejected++;
                        respond(std::move(conn.fd),
                                errorDoc(0, ErrorCode::InvalidArgument,
                                         "request too large (" +
                                             std::to_string(len) +
                                             " bytes)"));
                        drop = true;
                        break;
                    }
                    if (conn.buf.size() >= 4 + static_cast<size_t>(len)) {
                        complete = true;
                        break;
                    }
                }
                continue;
            }
            if (n == 0) {
                // Peer closed before completing a frame.
                counters_.jobsRejected++;
                drop = true;
                break;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            counters_.jobsRejected++;
            drop = true;
            break;
        }
        if (complete) {
            finishRequest(conn);
            drop = true; // finishRequest consumed conn.fd.
        } else if (!drop && conn.deadlineMs <= now) {
            counters_.jobsRejected++;
            respond(std::move(conn.fd),
                    errorDoc(0, ErrorCode::Timeout,
                             "request not delivered within " +
                                 std::to_string(static_cast<long>(
                                     opts_.requestTimeoutMs)) +
                                 " ms"));
            drop = true;
        }
        if (drop)
            pending_.erase(pending_.begin() +
                           static_cast<ptrdiff_t>(i));
        else
            ++i;
    }
}

void
BatchServer::finishRequest(PendingConn &conn)
{
    const uint32_t len = frameLength(conn.buf);
    const std::string body = conn.buf.substr(4, len);

    Result<JsonObject> parsed = parseFlatJsonObject(body);
    if (!parsed.ok()) {
        counters_.jobsRejected++;
        respond(std::move(conn.fd), errorDoc(0, parsed.status()));
        return;
    }
    if (parsed->getString("cmd").empty()) {
        counters_.jobsRejected++;
        respond(std::move(conn.fd),
                errorDoc(0, ErrorCode::InvalidArgument,
                         "request has no \"cmd\" string field"));
        return;
    }

    ServerJob job;
    job.id = nextJobId_++;
    job.priority =
        static_cast<int64_t>(parsed->getNumber("priority", 0.0));
    job.request = std::move(parsed.value());
    job.conn = std::move(conn.fd);
    counters_.jobsAccepted++;
    if (opts_.verbose)
        inform("serve: job %llu accepted (cmd=%s priority=%lld, "
               "%zu queued)",
               static_cast<unsigned long long>(job.id),
               job.request.getString("cmd").c_str(),
               static_cast<long long>(job.priority),
               queue_.size() + 1);
    queue_.push(std::move(job));
}

void
BatchServer::executeOne()
{
    ServerJob job = queue_.pop();
    const std::string doc = executeJob(job);
    respond(std::move(job.conn), doc);
    counters_.jobsCompleted++;
}

/** Per-job ExperimentOptions: request fields over server defaults. */
static ExperimentOptions
experimentOptionsFromRequest(const JsonObject &req,
                             const ServeOptions &server)
{
    ExperimentOptions exp;
    exp.seed = static_cast<uint64_t>(req.getNumber("seed", 1.0));
    exp.scale = req.getNumber("scale", 1.0);
    exp.freqGhz = req.getNumber("freq", 2.0);
    exp.watchdogCycles = static_cast<uint64_t>(req.getNumber(
        "watchdog",
        static_cast<double>(server.watchdogCycles)));
    return exp;
}

std::string
BatchServer::executeJob(const ServerJob &job)
{
    const std::string cmd = job.request.getString("cmd");
    if (cmd == "ping")
        return okDoc(job.id, cmd, "");
    if (cmd == "stats")
        return okDoc(job.id, cmd, "\"stats\":" + statsJson());
    if (cmd == "run" || cmd == "gpu" || cmd == "sweep")
        return cellJob(job, cmd);
    if (cmd == "dse")
        return dseJob(job);
    counters_.jobsRejected++;
    return errorDoc(job.id, ErrorCode::InvalidArgument,
                    "unknown cmd \"" + cmd + "\"");
}

SweepOptions
BatchServer::sweepOptionsFor(const JsonObject &req)
{
    SweepOptions opts;
    opts.exp = experimentOptionsFromRequest(req, opts_);
    opts.wallLimitMs = opts_.wallLimitMs;
    opts.isolate = true;
    opts.verbose = opts_.verbose;
    opts.store = store();
    // With a store attached every served job memoizes durably AND
    // reads back verified prior results: repeat jobs are store hits.
    opts.resume = store() != nullptr;
    opts.maxRetries = opts_.maxRetries;
    opts.retryBackoffMs = opts_.retryBackoffMs;
    // Mid-run checkpoints let a drain signal preempt the in-flight
    // cell without losing its progress; off by default so the
    // classic drain (finish everything, then exit) is unchanged.
    if (opts_.checkpointEveryCycles > 0 && store() != nullptr) {
        opts.exp.checkpointEveryCycles = opts_.checkpointEveryCycles;
        opts.exp.preempt = opts_.preempt;
        opts.checkpointDir = opts_.storeDir;
    }
    return opts;
}

void
BatchServer::accountSweep(const SweepReport &report)
{
    counters_.cellsOk += report.okCount();
    counters_.cellsFailed += report.failedCount();
    counters_.cellsTimedOut += report.timedOutCount();
    counters_.retries += report.totalRetries();
}

/** The cells a run/gpu/sweep request names: one cell for run and
 *  gpu, configs x workloads for sweep. */
static Result<std::vector<SweepCell>>
requestCells(const std::string &cmd, const JsonObject &req)
{
    if (cmd == "sweep") {
        const std::string workloads = req.getString("workloads");
        if (workloads.empty())
            return Status::error(
                ErrorCode::InvalidArgument,
                "sweep job needs a \"workloads\" CSV field");
        Result<std::vector<CpuConfig>> cfgs =
            cpuConfigsFromList(req.getString("configs", "all"));
        if (!cfgs.ok())
            return cfgs.status();
        return crossCpuCells(cfgs.value(), splitCsvList(workloads));
    }
    const std::string workload = req.getString("workload");
    if (workload.empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "run/gpu job needs a \"workload\" field");
    Result<SweepCell> cell =
        parseCellEntry(req.getString("config", "BaseCMOS"),
                       cmd == "gpu" ? "kernel:" + workload : workload);
    if (!cell.ok())
        return cell.status();
    return std::vector<SweepCell>{cell.value()};
}

std::string
BatchServer::cellJob(const ServerJob &job, const std::string &cmd)
{
    Result<std::vector<SweepCell>> cells =
        requestCells(cmd, job.request);
    if (!cells.ok())
        return errorDoc(job.id, cells.status());
    const SweepReport report =
        runSweep(cells.value(), sweepOptionsFor(job.request));
    accountSweep(report);
    return okDoc(job.id, cmd,
                 "\"report\":" +
                     trimNewline(sweepReportToJson(report)));
}

std::string
BatchServer::dseJob(const ServerJob &job)
{
    const JsonObject &req = job.request;
    const std::string workload = req.getString("workload");
    if (workload.empty())
        return errorDoc(job.id, ErrorCode::InvalidArgument,
                        "dse job needs a \"workload\" field");

    Result<DseObjective> objective =
        dseObjectiveFromName(req.getString("objective", "ed2"));
    if (!objective.ok())
        return errorDoc(job.id, objective.status());

    DseOptions opts;
    opts.exp = experimentOptionsFromRequest(req, opts_);
    opts.jobs = opts_.jobs;
    opts.areaBudgetMm2 = req.getNumber("area-budget", 0.0);
    opts.objective = objective.value();
    opts.store = store();

    const std::string space = req.getString("space", "cpu");
    const std::string strategy =
        req.getString("strategy", "exhaustive");
    std::vector<DsePoint> points;
    if (space == "cpu") {
        Result<const workload::AppProfile *> app =
            workload::findCpuApp(workload);
        if (!app.ok())
            return errorDoc(job.id, app.status());
        if (strategy == "greedy")
            points = greedyCpuSearch(*app.value(), opts);
        else if (strategy == "exhaustive")
            points = evaluateCpuDesigns(enumerateCpuDesigns(),
                                        *app.value(), opts);
        else
            return errorDoc(job.id, ErrorCode::InvalidArgument,
                            "unknown dse strategy \"" + strategy +
                                "\" (exhaustive|greedy)");
    } else if (space == "gpu") {
        Result<const workload::KernelProfile *> kernel =
            workload::findGpuKernel(workload);
        if (!kernel.ok())
            return errorDoc(job.id, kernel.status());
        points = evaluateGpuDesigns(enumerateGpuDesigns(),
                                    *kernel.value(), opts);
    } else {
        return errorDoc(job.id, ErrorCode::InvalidArgument,
                        "unknown dse space \"" + space +
                            "\" (cpu|gpu)");
    }

    return okDoc(job.id, "dse",
                 "\"report\":" +
                     trimNewline(dseReportToJson(
                         points, workload, objective.value())));
}

std::string
BatchServer::statsJson() const
{
    const obs::RunReport report = buildReport();
    std::string out = "{";
    for (const auto &[name, value] : report.groups.front().counters) {
        if (out.size() > 1)
            out += ',';
        out += '"' + name + "\":" + std::to_string(value);
    }
    return out + "}";
}

obs::RunReport
BatchServer::buildReport() const
{
    ResultStore::Counters sc;
    if (store_)
        sc = store_->counters();

    obs::RunReport report;
    report.kind = "server";
    report.config = "serve";
    report.workload = opts_.socketPath;

    obs::GroupSnapshot group;
    group.name = "server";
    group.counters = {
        {"cells_failed", counters_.cellsFailed},
        {"cells_ok", counters_.cellsOk},
        {"cells_timed_out", counters_.cellsTimedOut},
        {"jobs_accepted", counters_.jobsAccepted},
        {"jobs_completed", counters_.jobsCompleted},
        {"jobs_rejected", counters_.jobsRejected},
        {"retries", counters_.retries},
        {"store_hits", sc.hits},
        {"store_misses", sc.misses},
        {"store_puts", sc.puts},
        {"store_quarantined", sc.quarantined},
    };
    report.groups.push_back(std::move(group));
    return report;
}

void
BatchServer::respond(FdHandle conn, const std::string &doc)
{
    if (!conn)
        return; // Queue-only test job with no client attached.
    if (Status s = sendAll(conn.get(), frame(doc), "serve response");
        !s.ok() && opts_.verbose)
        warn("serve: client went away: %s", s.toString().c_str());
    // conn closes here (RAII): one request, one response.
}

// --- Client -----------------------------------------------------------

Result<std::string>
submitJob(const std::string &socket_path,
          const std::string &request_json, double timeout_ms)
{
    const double deadline = monotonicMs() + timeout_ms;

    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path))
        return Status::error(ErrorCode::InvalidArgument,
                             "submit: socket path too long: %s",
                             socket_path.c_str());
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size());

    // Retry the connect until the deadline: the common pattern is a
    // freshly spawned server that has not bound its socket yet.
    FdHandle sock;
    while (true) {
        sock = FdHandle(
            ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
        if (!sock)
            return ioError("socket failed", socket_path);
        if (::connect(sock.get(),
                      reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            break;
        const int err = errno;
        sock.reset();
        if (err != ECONNREFUSED && err != ENOENT)
            return ioError("connect failed", socket_path, err);
        if (monotonicMs() >= deadline)
            return Status::error(ErrorCode::Timeout,
                                 "submit: no server at %s within "
                                 "%.0f ms (%s)",
                                 socket_path.c_str(), timeout_ms,
                                 errnoName(err).c_str());
        struct timespec ts = {0, 50 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
    }

    if (Status s = sendAll(sock.get(), frame(request_json),
                           socket_path);
        !s.ok())
        return s;

    // Read the length-prefixed response before the deadline.
    std::string buf;
    uint32_t want = 4;
    bool have_len = false;
    while (buf.size() < want) {
        const double remaining = deadline - monotonicMs();
        if (remaining <= 0.0)
            return Status::error(ErrorCode::Timeout,
                                 "submit: no response from %s "
                                 "within %.0f ms",
                                 socket_path.c_str(), timeout_ms);
        struct pollfd pfd = {sock.get(), POLLIN, 0};
        const int ready =
            ::poll(&pfd, 1, static_cast<int>(remaining) + 1);
        if (ready < 0 && errno != EINTR)
            return ioError("poll failed", socket_path);
        if (ready <= 0)
            continue;
        char chunk[4096];
        const ssize_t n = ::recv(sock.get(), chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            return ioError("recv failed", socket_path);
        }
        if (n == 0)
            return Status::error(ErrorCode::TruncatedStream,
                                 "submit: server closed %s after "
                                 "%zu of %u response bytes",
                                 socket_path.c_str(), buf.size(),
                                 want);
        buf.append(chunk, static_cast<size_t>(n));
        if (!have_len && buf.size() >= 4) {
            const uint32_t len = frameLength(buf);
            if (len > (64u << 20))
                return Status::error(
                    ErrorCode::CorruptRecord,
                    "submit: implausible response length %u from %s",
                    len, socket_path.c_str());
            want = 4 + len;
            have_len = true;
        }
    }
    return buf.substr(4, want - 4);
}

} // namespace hetsim::core
