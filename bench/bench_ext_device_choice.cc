/**
 * @file
 * Extension experiment (Section III): why HetCore uses HetJTFET and
 * not the even-lower-power InAs-CMOS or HomJTFET devices.
 *
 * The paper argues (Section III-A) that a 2x speed differential can
 * be absorbed by pipelining TFET units twice as deep, but the ~10x
 * (InAs-CMOS) and ~16x (HomJTFET) differentials "would require
 * unrealistic 10x and 16x deeper pipelines". This bench builds those
 * hypothetical cores anyway — BaseHet variants whose converted units
 * carry 10x/16x latencies and the matching Table I energy ratios —
 * and shows the quantitative result: enormous slowdowns that wipe
 * out the extra energy savings on every efficiency metric.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "core/configs.hh"

using namespace hetsim;

namespace
{

/** Build a BaseHet-like bundle whose converted units are `mult`x
 *  slower than CMOS and use the given device class. */
core::CpuConfigBundle
makeDeviceVariant(uint32_t mult, power::DeviceClass dev)
{
    core::CpuConfigBundle b =
        core::makeCpuConfig(core::CpuConfig::BaseCmos);
    cpu::FuTimings &t = b.sim.core.fu.timings;
    t.aluLat *= mult;
    t.mulLat *= mult;
    t.divLat *= mult;
    t.divIssueInterval *= mult;
    t.fpAddLat *= mult;
    t.fpMulLat *= mult;
    t.fpDivLat *= mult;
    t.fpDivIssueInterval *= mult;
    mem::LevelLatencies &l = b.sim.mem.lat;
    // The converted caches: DL1/L2/L3 access portions scale.
    l.dl1Rt = 2 * mult;
    l.l2Rt = 8 + 2 * mult;   // 8-cycle RT has ~2 cycles of array
    l.l3Rt = 32 + 4 * mult;  // 32-cycle RT has ~4 cycles of array
    for (power::CpuUnit u :
         {power::CpuUnit::Alu, power::CpuUnit::MulDiv,
          power::CpuUnit::Fpu, power::CpuUnit::Dl1,
          power::CpuUnit::L2, power::CpuUnit::L3})
        b.units[static_cast<int>(u)].dev = dev;
    return b;
}

} // namespace

int
main(int argc, char **argv)
{
    const core::ExperimentOptions opts =
        bench::parseOptions(argc, argv);

    struct Variant
    {
        const char *name;
        uint32_t mult;
        power::DeviceClass dev;
    };
    const Variant variants[] = {
        {"Het-HetJTFET (2x, the paper's pick)", 2,
         power::DeviceClass::Tfet},
        {"Het-InAsCMOS (10x)", 10, power::DeviceClass::InAsCmos},
        {"Het-HomJTFET (16x)", 16, power::DeviceClass::HomJTfet},
    };

    TablePrinter t("Extension: device choice for the hetero-device "
                   "core (means, normalized to BaseCMOS)",
                   {"hypothetical core", "time", "energy", "ED",
                    "ED^2"});

    const auto &apps = workload::cpuApps();
    for (const Variant &v : variants) {
        std::fprintf(stderr, "  %s...\n", v.name);
        double time = 0, energy = 0, ed = 0, ed2 = 0;
        for (const auto &app : apps) {
            const core::CpuOutcome base = core::runCpuExperiment(
                core::CpuConfig::BaseCmos, app, opts);
            const power::RunMetrics m =
                core::runCpuBundle(makeDeviceVariant(v.mult, v.dev),
                                   v.name, app, opts)
                    .metrics;
            const double nt = m.seconds / base.metrics.seconds;
            const double ne = m.energyJ / base.metrics.energyJ;
            time += nt;
            energy += ne;
            ed += ne * nt;
            ed2 += ne * nt * nt;
        }
        const double n = static_cast<double>(apps.size());
        t.addRow(v.name, {time / n, energy / n, ed / n, ed2 / n});
    }
    t.print();
    t.writeCsv("ext_device_choice.csv");

    std::printf("\nSection III's argument, quantified: only the 2x "
                "HetJTFET differential keeps ED/ED^2 competitive; "
                "the 10x/16x devices trade small extra energy "
                "savings for catastrophic slowdowns.\n");
    return 0;
}
