/**
 * @file
 * Tests for bench_paper's cell plan: Figures 7-14's cells, each once.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bench/bench_util.hh"

using namespace hetsim;

namespace
{

/** Every cell key of the plan, failing the test on a repeat. */
std::set<std::string>
planKeys(const std::vector<bench::PaperRun> &plan)
{
    std::set<std::string> keys;
    for (const bench::PaperRun &run : plan) {
        core::SweepOptions opts;
        opts.exp = run.exp;
        for (const core::SweepCell &cell : run.cells)
            EXPECT_TRUE(keys.insert(core::cellStoreKey(cell, opts)).second)
                << core::cellConfigName(cell) << " / "
                << core::cellWorkloadName(cell) << " is planned twice";
    }
    return keys;
}

bool
planned(const std::set<std::string> &keys, const core::SweepCell &cell,
        const core::ExperimentOptions &exp)
{
    core::SweepOptions opts;
    opts.exp = exp;
    return keys.count(core::cellStoreKey(cell, opts)) == 1;
}

} // namespace

TEST(PaperPlan, NoTwoCellsShareAStoreKey)
{
    core::ExperimentOptions base;
    base.scale = 0.05;
    const std::set<std::string> keys = planKeys(bench::paperPlan(base));

    // (Figure 7 u 13 configs) x apps + Figure 10 configs x kernels,
    // plus BaseCMOS and AdvHet x apps at Figure 14's three other
    // points.
    const size_t apps = workload::cpuApps().size();
    const size_t kernels = workload::gpuKernels().size();
    std::set<core::CpuConfig> cpu(core::figure7Configs().begin(),
                                  core::figure7Configs().end());
    cpu.insert(core::figure13Configs().begin(),
               core::figure13Configs().end());
    EXPECT_EQ(keys.size(),
              cpu.size() * apps +
                  core::figure10Configs().size() * kernels +
                  2 * apps * (bench::figure14Points().size() - 1));

    for (core::CpuConfig cfg : cpu)
        for (const auto &app : workload::cpuApps())
            EXPECT_TRUE(planned(keys, core::cpuAppCell(cfg, app.name),
                                base));
    for (core::GpuConfig cfg : core::figure10Configs())
        for (const auto &kernel : workload::gpuKernels())
            EXPECT_TRUE(planned(
                keys, core::gpuKernelCell(cfg, kernel.name), base));
    for (const bench::Figure14Point &p : bench::figure14Points())
        for (core::CpuConfig cfg :
             {core::CpuConfig::BaseCmos, core::CpuConfig::AdvHet})
            for (const auto &app : workload::cpuApps())
                EXPECT_TRUE(planned(keys,
                                    core::cpuAppCell(cfg, app.name),
                                    bench::atPoint(base, p)));
}
