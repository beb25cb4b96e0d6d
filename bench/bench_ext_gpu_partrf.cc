/**
 * @file
 * Extension experiment (Section VIII related work [59]): a
 * partitioned GPU register file as an alternative to the AdvHet
 * register-file cache.
 *
 * The fast partition (lowest 64 registers) stays in CMOS at 1-cycle
 * ports; the remaining 192 registers are the TFET slow partition.
 * The paper notes "such a design can readily be adapted to AdvHet";
 * this bench quantifies it against both BaseHet (no mitigation) and
 * AdvHet (RF cache).
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "core/configs.hh"

using namespace hetsim;

namespace
{

/** BaseHet with a partitioned RF: the lowest 64 registers are a
 *  CMOS fast partition, the other 192 the TFET slow one. */
core::GpuConfigBundle
partitionedRf(const core::ExperimentOptions &opts)
{
    core::GpuConfigBundle b =
        core::makeGpuConfig(core::GpuConfig::BaseHet,
                            opts.freqGhz / 2.0);
    b.sim.cu.timings.partitionedRf = true;
    b.sim.cu.timings.fastPartitionRegs = 64;
    // Energy split: a quarter of the RF is the CMOS fast partition.
    auto &slow =
        b.units[static_cast<int>(power::GpuUnit::VectorRf)];
    auto &fast =
        b.units[static_cast<int>(power::GpuUnit::VectorRfFast)];
    slow.leakOnlyScale = 0.75;
    fast.dev = power::DeviceClass::Cmos;
    fast.leakOnlyScale = 0.25;
    return b;
}

} // namespace

int
main(int argc, char **argv)
{
    const core::ExperimentOptions opts =
        bench::parseOptions(argc, argv);

    TablePrinter t("Extension: partitioned RF vs RF cache on the "
                   "HetCore GPU (normalized to BaseCMOS)",
                   {"kernel", "BaseHet time", "PartRF time",
                    "AdvHet time", "BaseHet energy", "PartRF energy",
                    "AdvHet energy"});

    double sums[6] = {};
    const auto &kernels = workload::gpuKernels();
    for (const auto &kernel : kernels) {
        std::fprintf(stderr, "  %s...\n", kernel.name);
        const core::GpuOutcome base = core::runGpuExperiment(
            core::GpuConfig::BaseCmos, kernel, opts);
        const core::GpuOutcome het = core::runGpuExperiment(
            core::GpuConfig::BaseHet, kernel, opts);
        const core::GpuOutcome part = core::runGpuBundle(
            partitionedRf(opts), "AdvHet-PartRF", kernel, opts);
        const core::GpuOutcome adv = core::runGpuExperiment(
            core::GpuConfig::AdvHet, kernel, opts);
        const double vals[6] = {
            het.metrics.seconds / base.metrics.seconds,
            part.metrics.seconds / base.metrics.seconds,
            adv.metrics.seconds / base.metrics.seconds,
            het.metrics.energyJ / base.metrics.energyJ,
            part.metrics.energyJ / base.metrics.energyJ,
            adv.metrics.energyJ / base.metrics.energyJ,
        };
        for (int i = 0; i < 6; ++i)
            sums[i] += vals[i];
        t.addRow(kernel.name, {vals[0], vals[1], vals[2], vals[3],
                               vals[4], vals[5]});
    }
    std::vector<double> means;
    for (double s : sums)
        means.push_back(s / kernels.size());
    t.addRow("Average", means);
    t.print();
    t.writeCsv("ext_gpu_partrf.csv");
    return 0;
}
