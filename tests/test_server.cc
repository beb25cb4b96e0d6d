/**
 * @file
 * Tests for the batch server: priority queue ordering, the unix-socket
 * round trip, malformed-request containment, durable-store warm hits
 * across jobs, the singleton lock, and graceful drain.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/result_store.hh"
#include "core/dse.hh"
#include "core/server.hh"
#include "core/sweep.hh"
#include "workload/gpu_profiles.hh"

using namespace hetsim;
using namespace hetsim::core;

namespace
{

ServerJob
queuedJob(uint64_t id, int64_t priority)
{
    ServerJob job;
    job.id = id;
    job.priority = priority;
    return job;
}

/** Short unique socket path (sun_path is ~108 bytes; the build tree
 *  path is not safe to use). */
std::string
tempSocketPath(const char *tag)
{
    return "/tmp/hetsim_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".sock";
}

std::string
tempDir(const char *tag)
{
    std::string tmpl =
        "/tmp/hetsim_" + std::string(tag) + "_XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
    return tmpl;
}

/** The embedded "report" value of a response document, for comparing
 *  two responses that differ only in job id. */
std::string
reportPart(const std::string &response)
{
    const size_t at = response.find("\"report\":");
    EXPECT_NE(at, std::string::npos) << response;
    return at == std::string::npos ? "" : response.substr(at);
}

/** Server running on a background thread for client-side tests. */
class ServerFixture
{
  public:
    explicit ServerFixture(ServeOptions opts)
        : server_(std::move(opts))
    {
        startOk_ = server_.start();
        if (startOk_.ok())
            thread_ = std::thread([this] {
                serveOk_ = server_.serve();
            });
    }

    ~ServerFixture() { drain(); }

    /** Request drain and join; safe to call twice. */
    void
    drain()
    {
        if (thread_.joinable()) {
            server_.requestDrain();
            thread_.join();
            EXPECT_TRUE(serveOk_.ok()) << serveOk_.toString();
        }
    }

    BatchServer &server() { return server_; }
    const Status &startStatus() const { return startOk_; }

  private:
    BatchServer server_;
    Status startOk_;
    Status serveOk_;
    std::thread thread_;
};

} // namespace

TEST(JobQueue, PriorityFirstFifoWithin)
{
    JobQueue q;
    EXPECT_TRUE(q.empty());
    q.push(queuedJob(1, 0));
    q.push(queuedJob(2, 5));
    q.push(queuedJob(3, 0));
    q.push(queuedJob(4, 5));
    q.push(queuedJob(5, -1));
    ASSERT_EQ(q.size(), 5u);

    // Highest priority first; FIFO (by accept id) within a priority.
    EXPECT_EQ(q.pop().id, 2u);
    EXPECT_EQ(q.pop().id, 4u);
    EXPECT_EQ(q.pop().id, 1u);
    EXPECT_EQ(q.pop().id, 3u);
    EXPECT_EQ(q.pop().id, 5u);
    EXPECT_TRUE(q.empty());
}

TEST(JobQueue, InterleavedPushPop)
{
    JobQueue q;
    q.push(queuedJob(1, 1));
    q.push(queuedJob(2, 9));
    EXPECT_EQ(q.pop().id, 2u);
    q.push(queuedJob(3, 9));
    q.push(queuedJob(4, 1));
    EXPECT_EQ(q.pop().id, 3u);
    EXPECT_EQ(q.pop().id, 1u);
    EXPECT_EQ(q.pop().id, 4u);
}

TEST(BatchServer, StartRequiresSocketPath)
{
    BatchServer server(ServeOptions{});
    const Status s = server.start();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);
}

TEST(BatchServer, RejectsOverlongSocketPath)
{
    ServeOptions opts;
    opts.socketPath = "/tmp/" + std::string(200, 'x') + ".sock";
    BatchServer server(opts);
    const Status s = server.start();
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("too long"), std::string::npos);
}

TEST(BatchServer, PingRoundTripAndStats)
{
    ServeOptions opts;
    opts.socketPath = tempSocketPath("ping");
    opts.verbose = false;
    ServerFixture fx(opts);
    ASSERT_TRUE(fx.startStatus().ok())
        << fx.startStatus().toString();

    Result<std::string> pong =
        submitJob(opts.socketPath, "{\"cmd\":\"ping\"}", 10000.0);
    ASSERT_TRUE(pong.ok()) << pong.status().toString();
    EXPECT_NE(pong.value().find("\"ok\":true"), std::string::npos);
    EXPECT_NE(pong.value().find("hetsim-serve-response-v1"),
              std::string::npos);

    Result<std::string> stats =
        submitJob(opts.socketPath, "{\"cmd\":\"stats\"}", 10000.0);
    ASSERT_TRUE(stats.ok());
    EXPECT_NE(stats.value().find("\"jobs_accepted\":2"),
              std::string::npos)
        << stats.value();

    fx.drain();
    const ServerCounters c = fx.server().counters();
    EXPECT_EQ(c.jobsAccepted, 2u);
    EXPECT_EQ(c.jobsCompleted, 2u);
    EXPECT_EQ(c.jobsRejected, 0u);
}

TEST(BatchServer, MalformedRequestPoisonsOneJobNotTheDaemon)
{
    ServeOptions opts;
    opts.socketPath = tempSocketPath("mal");
    opts.verbose = false;
    ServerFixture fx(opts);
    ASSERT_TRUE(fx.startStatus().ok());

    // Broken JSON: an error response, not a dead daemon.
    Result<std::string> bad =
        submitJob(opts.socketPath, "{\"cmd\":", 10000.0);
    ASSERT_TRUE(bad.ok()) << bad.status().toString();
    EXPECT_NE(bad.value().find("\"ok\":false"), std::string::npos);
    EXPECT_NE(bad.value().find("invalid-argument"),
              std::string::npos);

    // Nested JSON is rejected by the flat parser.
    Result<std::string> nested = submitJob(
        opts.socketPath, "{\"cmd\":\"run\",\"o\":{}}", 10000.0);
    ASSERT_TRUE(nested.ok());
    EXPECT_NE(nested.value().find("\"ok\":false"),
              std::string::npos);

    // Missing cmd field.
    Result<std::string> nocmd =
        submitJob(opts.socketPath, "{\"x\":1}", 10000.0);
    ASSERT_TRUE(nocmd.ok());
    EXPECT_NE(nocmd.value().find("no \\\"cmd\\\""),
              std::string::npos)
        << nocmd.value();

    // Unknown cmd.
    Result<std::string> unknown = submitJob(
        opts.socketPath, "{\"cmd\":\"frobnicate\"}", 10000.0);
    ASSERT_TRUE(unknown.ok());
    EXPECT_NE(unknown.value().find("unknown cmd"),
              std::string::npos);

    // The daemon survived all of it.
    Result<std::string> pong =
        submitJob(opts.socketPath, "{\"cmd\":\"ping\"}", 10000.0);
    ASSERT_TRUE(pong.ok());
    EXPECT_NE(pong.value().find("\"ok\":true"), std::string::npos);

    fx.drain();
    // Three parse-level rejections plus the unknown-cmd job.
    EXPECT_EQ(fx.server().counters().jobsRejected, 4u);
}

TEST(BatchServer, RunJobExecutesAndWarmHitsAreByteIdentical)
{
    ServeOptions opts;
    opts.socketPath = tempSocketPath("run");
    opts.storeDir = tempDir("runstore");
    opts.verbose = false;
    ServerFixture fx(opts);
    ASSERT_TRUE(fx.startStatus().ok())
        << fx.startStatus().toString();

    const std::string job =
        "{\"cmd\":\"run\",\"config\":\"AdvHet\","
        "\"workload\":\"fft\",\"scale\":0.02}";
    Result<std::string> cold =
        submitJob(opts.socketPath, job, 60000.0);
    ASSERT_TRUE(cold.ok()) << cold.status().toString();
    EXPECT_NE(cold.value().find("\"ok\":true"), std::string::npos);
    EXPECT_NE(cold.value().find("\"outcome\": \"ok\""),
              std::string::npos)
        << cold.value();

    Result<std::string> warm =
        submitJob(opts.socketPath, job, 60000.0);
    ASSERT_TRUE(warm.ok());
    // Same job, different job id — the embedded report documents
    // must match byte for byte (the warm one came from the store).
    EXPECT_EQ(reportPart(cold.value()), reportPart(warm.value()));

    fx.drain();
    const ServerCounters c = fx.server().counters();
    EXPECT_EQ(c.cellsOk, 2u);
    ASSERT_NE(fx.server().store(), nullptr);
    const ResultStore::Counters sc =
        fx.server().store()->counters();
    EXPECT_EQ(sc.puts, 1u);
    EXPECT_EQ(sc.hits, 1u);

    std::string cmd = "rm -rf " + opts.storeDir;
    [[maybe_unused]] int rc = std::system(cmd.c_str());
}

TEST(BatchServer, SweepJobEmbedsTheLocalSweepBytes)
{
    ServeOptions opts;
    opts.socketPath = tempSocketPath("sweep");
    opts.verbose = false;
    ServerFixture fx(opts);
    ASSERT_TRUE(fx.startStatus().ok())
        << fx.startStatus().toString();

    Result<std::string> served = submitJob(
        opts.socketPath,
        "{\"cmd\":\"sweep\",\"configs\":\"BaseCMOS,AdvHet\","
        "\"workloads\":\"fft,lu\",\"scale\":0.02}",
        60000.0);
    ASSERT_TRUE(served.ok()) << served.status().toString();

    SweepOptions local;
    local.exp.scale = 0.02;
    std::vector<SweepCell> cells;
    for (CpuConfig cfg : {CpuConfig::BaseCmos, CpuConfig::AdvHet})
        for (const char *app : {"fft", "lu"})
            cells.push_back(cpuAppCell(cfg, app));
    std::string expected = sweepReportToJson(runSweep(cells, local));
    expected.pop_back(); // The envelope embeds it without the newline.
    EXPECT_EQ(reportPart(served.value()),
              "\"report\":" + expected + "}\n");

    // "all" (the default) means every CPU configuration, as in the
    // CLI's sweep.
    Result<std::string> all = submitJob(
        opts.socketPath,
        "{\"cmd\":\"sweep\",\"workloads\":\"fft\",\"scale\":0.02}",
        60000.0);
    ASSERT_TRUE(all.ok()) << all.status().toString();
    size_t cells_served = 0;
    for (size_t at = all.value().find("\"config\":");
         at != std::string::npos;
         at = all.value().find("\"config\":", at + 1))
        ++cells_served;
    EXPECT_EQ(cells_served, static_cast<size_t>(kNumCpuConfigs))
        << all.value();
}

/** A served dse job runs the same cells as a local exploration and
 *  embeds the same report bytes; its "watchdog" field cuts runs short,
 *  and truncated designs are skipped, not ranked. */
TEST(BatchServer, DseJobEmbedsTheLocalDseBytes)
{
    ServeOptions opts;
    opts.socketPath = tempSocketPath("dse");
    opts.verbose = false;
    opts.jobs = 4;
    ServerFixture fx(opts);
    ASSERT_TRUE(fx.startStatus().ok())
        << fx.startStatus().toString();

    Result<std::string> served = submitJob(
        opts.socketPath,
        "{\"cmd\":\"dse\",\"space\":\"gpu\",\"workload\":\"matrixmul\","
        "\"scale\":0.01}",
        60000.0);
    ASSERT_TRUE(served.ok()) << served.status().toString();
    DseOptions local;
    local.exp.scale = 0.01;
    const auto kernel = workload::findGpuKernel("matrixmul");
    ASSERT_TRUE(kernel.ok());
    std::string expected = dseReportToJson(
        evaluateGpuDesigns(enumerateGpuDesigns(), *kernel.value(), local),
        "matrixmul", local.objective);
    expected.pop_back(); // The envelope embeds it without the newline.
    EXPECT_EQ(reportPart(served.value()),
              "\"report\":" + expected + "}\n");

    Result<std::string> cut = submitJob(
        opts.socketPath,
        "{\"cmd\":\"dse\",\"space\":\"gpu\",\"workload\":\"matrixmul\","
        "\"scale\":0.01,\"watchdog\":100}",
        60000.0);
    ASSERT_TRUE(cut.ok()) << cut.status().toString();
    EXPECT_NE(cut.value().find("\"ok\":true"), std::string::npos);
    EXPECT_EQ(cut.value().find("\"name\":"), std::string::npos)
        << cut.value();
}

TEST(BatchServer, BadJobInputIsAPerJobError)
{
    ServeOptions opts;
    opts.socketPath = tempSocketPath("badjob");
    opts.verbose = false;
    ServerFixture fx(opts);
    ASSERT_TRUE(fx.startStatus().ok());

    Result<std::string> r = submitJob(
        opts.socketPath,
        "{\"cmd\":\"run\",\"config\":\"NoSuchConfig\","
        "\"workload\":\"fft\"}",
        10000.0);
    ASSERT_TRUE(r.ok());
    EXPECT_NE(r.value().find("\"ok\":false"), std::string::npos);
    EXPECT_NE(r.value().find("not-found"), std::string::npos)
        << r.value();
}

TEST(BatchServer, SecondServerOnSameSocketIsRefused)
{
    ServeOptions opts;
    opts.socketPath = tempSocketPath("lock");
    opts.verbose = false;
    ServerFixture fx(opts);
    ASSERT_TRUE(fx.startStatus().ok());

    BatchServer second(opts);
    const Status s = second.start();
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("already owns"), std::string::npos)
        << s.toString();
}

TEST(BatchServer, DrainAnswersQueuedJobsThenExits)
{
    ServeOptions opts;
    opts.socketPath = tempSocketPath("drain");
    opts.verbose = false;
    ServerFixture fx(opts);
    ASSERT_TRUE(fx.startStatus().ok());

    Result<std::string> pong =
        submitJob(opts.socketPath, "{\"cmd\":\"ping\"}", 10000.0);
    ASSERT_TRUE(pong.ok());

    fx.drain();
    // After the drain the socket file is gone and connects fail.
    Result<std::string> late =
        submitJob(opts.socketPath, "{\"cmd\":\"ping\"}", 200.0);
    EXPECT_FALSE(late.ok());
}

TEST(SubmitJob, TimesOutWhenNoServerExists)
{
    Result<std::string> r = submitJob(
        "/tmp/hetsim_no_such_server.sock", "{\"cmd\":\"ping\"}",
        150.0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::Timeout);
    EXPECT_NE(r.status().message().find("no server"),
              std::string::npos);
}

TEST(BatchServer, ServerReportCarriesCounters)
{
    ServeOptions opts;
    opts.socketPath = tempSocketPath("report");
    opts.verbose = false;
    ServerFixture fx(opts);
    ASSERT_TRUE(fx.startStatus().ok());
    ASSERT_TRUE(
        submitJob(opts.socketPath, "{\"cmd\":\"ping\"}", 10000.0)
            .ok());
    fx.drain();

    const obs::RunReport report = fx.server().buildReport();
    EXPECT_EQ(report.kind, "server");
    const std::string json = report.toJson();
    EXPECT_NE(json.find("hetsim-run-report-v1"), std::string::npos);
    EXPECT_NE(json.find("\"jobs_accepted\":1"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"jobs_completed\":1"), std::string::npos);
}
