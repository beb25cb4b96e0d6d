/**
 * @file
 * Extension experiment (Section VIII): iso-area comparison of AdvHet
 * against the related-work heterogeneous CMOS+TFET multicore with an
 * idealized barrier-aware thread-migration scheme.
 *
 * The paper states: "It can be shown that AdvHet provides, on
 * average, higher performance while consuming lower energy. This is
 * because the threads on the TFET cores slow down the program, while
 * the threads on the CMOS cores consume more power than in AdvHet."
 * This bench regenerates that claim.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "core/area.hh"
#include "core/hetcmp.hh"

using namespace hetsim;

int
main(int argc, char **argv)
{
    const core::ExperimentOptions opts =
        bench::parseOptions(argc, argv);

    const core::HetCmpShape shape = core::hetCmpIsoAreaShape();
    std::printf("Iso-area shapes: AdvHet = 4 hetero-device cores "
                "(%.1f mm^2); HetCMP = %u CMOS + %u TFET cores "
                "(%.1f mm^2)\n",
                shape.budgetAreaMm2, shape.cmosCores,
                shape.tfetCores, shape.chipAreaMm2);

    TablePrinter t("Extension: AdvHet vs heterogeneous CMOS+TFET "
                   "multicore (iso-area, normalized to BaseCMOS)",
                   {"app", "AdvHet time", "HetCMP time",
                    "AdvHet energy", "HetCMP energy", "AdvHet ED^2",
                    "HetCMP ED^2"});

    double sums[6] = {};
    const auto &apps = workload::cpuApps();
    for (const auto &app : apps) {
        std::fprintf(stderr, "  %s...\n", app.name);
        const core::CpuOutcome base = core::runCpuExperiment(
            core::CpuConfig::BaseCmos, app, opts);
        const core::CpuOutcome adv = core::runCpuExperiment(
            core::CpuConfig::AdvHet, app, opts);
        const core::HetCmpOutcome cmp =
            core::runHetCmpExperiment(app, opts);

        const double vals[6] = {
            adv.metrics.seconds / base.metrics.seconds,
            cmp.metrics.seconds / base.metrics.seconds,
            adv.metrics.energyJ / base.metrics.energyJ,
            cmp.metrics.energyJ / base.metrics.energyJ,
            adv.metrics.ed2Js2() / base.metrics.ed2Js2(),
            cmp.metrics.ed2Js2() / base.metrics.ed2Js2(),
        };
        for (int i = 0; i < 6; ++i)
            sums[i] += vals[i];
        t.addRow(app.name,
                 {vals[0], vals[1], vals[2], vals[3], vals[4],
                  vals[5]});
    }
    std::vector<double> means;
    for (double s : sums)
        means.push_back(s / apps.size());
    t.addRow("Average", means);
    t.print();
    t.writeCsv("ext_hetcmp_isoarea.csv");

    std::printf("\nPaper's Section VIII claim holds iff AdvHet's "
                "mean time and energy are both lower: %s\n",
                means[0] < means[1] && means[2] < means[3]
                    ? "HOLDS" : "VIOLATED");
    return 0;
}
