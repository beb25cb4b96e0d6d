/**
 * @file
 * Extension experiment (Section IV-C4): latency-optimized FPU design
 * points for AdvHet.
 *
 * The paper declines to use FPU designs that trade area/power for
 * latency (Booth-3 encodings, CMA-style forwarding) and leaves their
 * analysis to future work. This bench performs that analysis: an
 * AdvHet whose TFET FPUs forward multiply/add results one cycle
 * earlier (CMA-style) at 20% higher FPU dynamic energy.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "core/configs.hh"
#include "cpu/multicore.hh"
#include "workload/cpu_trace_gen.hh"

using namespace hetsim;

namespace
{

/** AdvHet with CMA-style FPUs. Runs its own chip: the x1.2 FPU
 *  activity is an energy-model change no bundle expresses. */
core::CpuOutcome
runCma(const workload::AppProfile &app,
       const core::ExperimentOptions &opts)
{
    core::CpuConfigBundle b =
        core::makeCpuConfig(core::CpuConfig::AdvHet, opts.freqGhz);
    // CMA-style forwarding: one cycle shaved off add/multiply.
    b.sim.core.fu.timings.fpAddLat -= 1;
    b.sim.core.fu.timings.fpMulLat -= 1;
    auto traces = workload::makeCpuWorkload(app, b.numCores,
                                            opts.seed, opts.scale);
    std::vector<cpu::TraceSource *> ptrs;
    for (auto &t : traces)
        ptrs.push_back(t.get());
    cpu::Multicore mc(b.sim, ptrs);
    const cpu::MulticoreResult run = mc.run();

    power::CpuActivity activity = run.activity;
    uint64_t fast = 0;
    for (uint32_t c = 0; c < mc.numCores(); ++c)
        fast += mc.core(c).fuPool().stats().value("fast_alu_ops");
    activity[static_cast<int>(power::CpuUnit::Alu)] -= fast;
    activity[static_cast<int>(power::CpuUnit::AluFast)] += fast;

    // The CMA multiplier burns ~20% more FPU dynamic energy.
    activity[static_cast<int>(power::CpuUnit::Fpu)] =
        static_cast<uint64_t>(
            activity[static_cast<int>(power::CpuUnit::Fpu)] * 1.2);

    core::CpuOutcome out;
    out.config = "AdvHet-CMA";
    out.app = app.name;
    out.cycles = run.cycles;
    out.energy = power::computeCpuEnergy(activity, b.units,
                                         run.seconds, b.numCores);
    out.metrics.seconds = run.seconds;
    out.metrics.energyJ = out.energy.totalJ();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const core::ExperimentOptions opts =
        bench::parseOptions(argc, argv);

    TablePrinter t("Extension: CMA-style latency-optimized TFET "
                   "FPUs in AdvHet (normalized to BaseCMOS)",
                   {"app", "AdvHet time", "CMA time", "AdvHet energy",
                    "CMA energy", "AdvHet ED^2", "CMA ED^2"});

    double sums[6] = {};
    const auto &apps = workload::cpuApps();
    for (const auto &app : apps) {
        std::fprintf(stderr, "  %s...\n", app.name);
        const core::CpuOutcome base = core::runCpuExperiment(
            core::CpuConfig::BaseCmos, app, opts);
        const core::CpuOutcome adv = core::runCpuExperiment(
            core::CpuConfig::AdvHet, app, opts);
        const core::CpuOutcome cma = runCma(app, opts);
        const double vals[6] = {
            adv.metrics.seconds / base.metrics.seconds,
            cma.metrics.seconds / base.metrics.seconds,
            adv.metrics.energyJ / base.metrics.energyJ,
            cma.metrics.energyJ / base.metrics.energyJ,
            adv.metrics.ed2Js2() / base.metrics.ed2Js2(),
            cma.metrics.ed2Js2() / base.metrics.ed2Js2(),
        };
        for (int i = 0; i < 6; ++i)
            sums[i] += vals[i];
        t.addRow(app.name, {vals[0], vals[1], vals[2], vals[3],
                            vals[4], vals[5]});
    }
    std::vector<double> means;
    for (double s : sums)
        means.push_back(s / apps.size());
    t.addRow("Average", means);
    t.print();
    t.writeCsv("ext_fpu_design.csv");
    return 0;
}
