/**
 * @file
 * Bit-identity tests for event-horizon cycle skipping.
 *
 * The skip loop's contract is that it is invisible in every report:
 * the full --report-json document (every counter, occupancy integral,
 * stall breakdown, energy number) must be byte-identical whether the
 * runner jumps over stall ranges or ticks through them one cycle at a
 * time. These tests enforce that contract end to end for CPU runs,
 * GPU runs, and a DSE sweep, and check that skipping actually
 * happens (a loop that never skips would pass identity trivially).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/file.hh"
#include "common/serialize.hh"
#include "core/configs.hh"
#include "core/dse.hh"
#include "core/experiment.hh"
#include "cpu/multicore.hh"
#include "gpu/gpu.hh"
#include "workload/cpu_profiles.hh"
#include "workload/cpu_trace_gen.hh"
#include "workload/gpu_kernel_gen.hh"
#include "workload/gpu_profiles.hh"

using namespace hetsim;
using namespace hetsim::core;

namespace
{

ExperimentOptions
smallOpts(bool no_skip)
{
    ExperimentOptions opts;
    opts.scale = 0.03;
    opts.noSkip = no_skip;
    return opts;
}

std::string
cpuReportJson(CpuConfig cfg, const char *app, bool no_skip)
{
    obs::RunReport rep;
    runCpuExperiment(cfg, workload::cpuApp(app), smallOpts(no_skip),
                     &rep);
    return rep.toJson();
}

std::string
gpuReportJson(GpuConfig cfg, const char *kernel, bool no_skip)
{
    obs::RunReport rep;
    runGpuExperiment(cfg, workload::gpuKernel(kernel),
                     smallOpts(no_skip), &rep);
    return rep.toJson();
}

std::string
slurp(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    if (f != nullptr) {
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            out.append(buf, n);
        std::fclose(f);
    }
    return out;
}

/** Run a multicore directly so the test can see skippedCycles. */
cpu::MulticoreResult
runMulticore(CpuConfig cfg, const char *app, bool skip)
{
    CpuConfigBundle bundle = makeCpuConfig(cfg);
    bundle.sim.skipEnabled = skip;
    auto traces = workload::makeCpuWorkload(workload::cpuApp(app),
                                            bundle.numCores, 1, 0.03);
    std::vector<cpu::TraceSource *> ptrs;
    ptrs.reserve(traces.size());
    for (auto &t : traces)
        ptrs.push_back(t.get());
    cpu::Multicore mc(bundle.sim, ptrs);
    return mc.run();
}

} // namespace

TEST(Skip, CpuReportsBitIdentical)
{
    // Covers a memory-bound app (canneal), a compute app (fft), and
    // the 8-core AdvHet2X chip. Tick divisors > 1 are covered by
    // TickDivisorChipBitIdentical.
    const struct
    {
        CpuConfig cfg;
        const char *app;
    } cases[] = {
        {CpuConfig::AdvHet, "canneal"},
        {CpuConfig::BaseTfet, "fft"},
        {CpuConfig::BaseHet, "radix"},
        {CpuConfig::AdvHet2X, "water-sp"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.app);
        EXPECT_EQ(cpuReportJson(c.cfg, c.app, false),
                  cpuReportJson(c.cfg, c.app, true));
    }
}

TEST(Skip, TickDivisorChipBitIdentical)
{
    // A two-core chip whose second core ticks every other chip cycle,
    // as the TFET cores of the HetCMP study do. Skipping must land
    // each core back on its own tick grid: the results and the full
    // end state of every core and the hierarchy must be identical.
    auto run = [](bool skip, std::string *state) {
        cpu::MulticoreParams p = makeCpuConfig(CpuConfig::AdvHet).sim;
        p.mem.numCores = 2;
        p.coreSpecs = {{p.core, 1}, {p.core, 2}};
        p.skipEnabled = skip;
        auto traces = workload::makeCpuWorkload(
            workload::cpuApp("canneal"), 2, 1, 0.03);
        std::vector<cpu::TraceSource *> ptrs;
        for (auto &t : traces)
            ptrs.push_back(t.get());
        cpu::Multicore mc(p, ptrs);
        const cpu::MulticoreResult res = mc.run();
        Serializer ser;
        mc.hierarchy().saveState(ser);
        for (uint32_t c = 0; c < 2; ++c)
            mc.core(c).saveState(ser);
        *state = ser.data();
        return res;
    };
    std::string state_on, state_off;
    const cpu::MulticoreResult on = run(true, &state_on);
    const cpu::MulticoreResult off = run(false, &state_off);
    EXPECT_GT(on.skippedCycles, 0u);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.committedOps, off.committedOps);
    for (int i = 0; i < power::kNumCpuUnits; ++i)
        EXPECT_EQ(on.activity[i], off.activity[i]) << "unit " << i;
    EXPECT_EQ(state_on, state_off);
}

TEST(Skip, CpuRunActuallySkips)
{
    const cpu::MulticoreResult on =
        runMulticore(CpuConfig::BaseTfet, "canneal", true);
    const cpu::MulticoreResult off =
        runMulticore(CpuConfig::BaseTfet, "canneal", false);
    EXPECT_GT(on.skippedCycles, 0u);
    EXPECT_EQ(off.skippedCycles, 0u);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.committedOps, off.committedOps);
    EXPECT_EQ(on.barrierReleases, off.barrierReleases);
    for (int i = 0; i < power::kNumCpuUnits; ++i)
        EXPECT_EQ(on.activity[i], off.activity[i]) << "unit " << i;
}

TEST(Skip, GpuReportsBitIdentical)
{
    const struct
    {
        GpuConfig cfg;
        const char *kernel;
    } cases[] = {
        {GpuConfig::AdvHet, "matrixmul"},
        {GpuConfig::BaseTfet, "nbody"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.kernel);
        EXPECT_EQ(gpuReportJson(c.cfg, c.kernel, false),
                  gpuReportJson(c.cfg, c.kernel, true));
    }
}

TEST(Skip, GpuRunActuallySkips)
{
    GpuConfigBundle bundle = makeGpuConfig(GpuConfig::BaseTfet);
    workload::SyntheticKernel k(workload::gpuKernel("reduction"), 1,
                                0.05);
    bundle.sim.skipEnabled = true;
    gpu::Gpu g(bundle.sim);
    const gpu::GpuResult res = g.run(k);
    EXPECT_GT(res.skippedCycles, 0u);
}

TEST(Skip, GpuIdleCusDoNotPinTheHorizon)
{
    // One workgroup on a many-CU chip: every other CU sits idle for
    // the whole run. Idle CUs report kNoEvent, so the stalls of the
    // single busy CU are still skippable; their ClockTree activity is
    // credited for the jumped range, keeping results identical.
    gpu::GpuParams p;
    p.numCus = 8;
    workload::KernelProfile prof = workload::gpuKernel("reduction");

    auto run = [&](bool skip) {
        workload::SyntheticKernel k(prof, 1, 0.05);
        gpu::GpuParams params = p;
        params.skipEnabled = skip;
        gpu::Gpu g(params);
        return g.run(k);
    };
    const gpu::GpuResult on = run(true);
    const gpu::GpuResult off = run(false);
    EXPECT_GT(on.skippedCycles, 0u);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.issuedOps, off.issuedOps);
    for (int i = 0; i < power::kNumGpuUnits; ++i)
        EXPECT_EQ(on.activity[i], off.activity[i]) << "unit " << i;
}

TEST(Skip, DseReportBitIdentical)
{
    std::vector<CpuHybridDesign> designs = {
        cpuHybridFromConfig(CpuConfig::BaseCmos),
        cpuHybridFromConfig(CpuConfig::BaseHet),
        cpuHybridFromConfig(CpuConfig::AdvHet),
    };
    const workload::AppProfile &app = workload::cpuApp("fft");

    auto report = [&](bool no_skip, const std::string &path) {
        DseOptions opts;
        opts.exp = smallOpts(no_skip);
        opts.jobs = 2;
        const auto points = evaluateCpuDesigns(designs, app, opts);
        ASSERT_EQ(points.size(), designs.size());
        ASSERT_TRUE(
            writeDseReportJson(points, app.name, opts.objective, path)
                .ok());
    };
    const std::string a = testing::TempDir() + "dse_skip.json";
    const std::string b = testing::TempDir() + "dse_noskip.json";
    report(false, a);
    report(true, b);
    EXPECT_EQ(slurp(a), slurp(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}
