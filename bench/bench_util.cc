#include "bench/bench_util.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "workload/cpu_profiles.hh"
#include "workload/gpu_profiles.hh"

namespace hetsim::bench
{

core::ExperimentOptions
parseOptions(int argc, char **argv)
{
    core::ExperimentOptions opts;
    if (argc < 2)
        return opts;
    // The CLI's --scale rule: a full parse, finite, above zero.
    const char *text = argv[1];
    char *end = nullptr;
    errno = 0;
    opts.scale = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(opts.scale) || opts.scale <= 0.0) {
        // Bench harnesses are front ends: they may exit directly.
        std::fprintf(stderr, "error: scale must be a finite number "
                     "above zero, got '%s'\n", text);
        std::exit(1);
    }
    return opts;
}

const std::vector<Figure14Point> &
figure14Points()
{
    static const std::vector<Figure14Point> v = {
        {"BaseFreq-2GHz", 2.0, false},
        {"BoostFreq-2.5GHz", 2.5, false},
        {"SlowFreq-1.5GHz", 1.5, false},
        {"Variation-2GHz", 2.0, true},
    };
    return v;
}

core::ExperimentOptions
atPoint(const core::ExperimentOptions &base, const Figure14Point &p)
{
    core::ExperimentOptions exp = base;
    exp.freqGhz = p.freqGhz;
    exp.variationGuardband = p.guardband;
    return exp;
}

std::vector<PaperRun>
paperPlan(const core::ExperimentOptions &base)
{
    std::vector<PaperRun> plan;
    std::set<std::string> seen;
    const auto add = [&seen](PaperRun &run, core::SweepCell cell) {
        core::SweepOptions opts;
        opts.exp = run.exp;
        if (seen.insert(core::cellStoreKey(cell, opts)).second)
            run.cells.push_back(std::move(cell));
    };
    const auto &apps = workload::cpuApps();

    PaperRun figures{base, {}};
    for (const auto *cfgs :
         {&core::figure7Configs(), &core::figure13Configs()})
        for (core::CpuConfig cfg : *cfgs)
            for (const auto &app : apps)
                add(figures, core::cpuAppCell(cfg, app.name));
    for (core::GpuConfig cfg : core::figure10Configs())
        for (const auto &kernel : workload::gpuKernels())
            add(figures, core::gpuKernelCell(cfg, kernel.name));
    plan.push_back(std::move(figures));

    for (const Figure14Point &p : figure14Points()) {
        PaperRun run{atPoint(base, p), {}};
        for (core::CpuConfig cfg :
             {core::CpuConfig::BaseCmos, core::CpuConfig::AdvHet})
            for (const auto &app : apps)
                add(run, core::cpuAppCell(cfg, app.name));
        if (!run.cells.empty())
            plan.push_back(std::move(run));
    }
    return plan;
}

} // namespace hetsim::bench
