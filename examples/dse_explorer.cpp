/**
 * @file
 * Design-space explorer: the "which hybrid design should I build?"
 * answer Table IV could only sample.
 *
 * Enumerates every free-form per-unit CMOS/TFET/high-V_t assignment
 * (a few hundred designs vs the paper's ~15), evaluates them on one
 * application through the sweep runner (`jobs` forked cells at once),
 * prints the Pareto front over (time, energy, area), and then shows
 * that a greedy unit-flip hill-climb — the strategy for spaces too
 * large to enumerate — lands on a front design while visiting a
 * fraction of the space.
 *
 * Usage: dse_explorer [app] [scale] [jobs]   (jobs defaults to the
 * host's core count)
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/table.hh"
#include "core/area.hh"
#include "core/dse.hh"

using namespace hetsim;

int
main(int argc, char **argv)
{
    const char *app_name = argc > 1 ? argv[1] : "fmm";
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.05;
    const unsigned jobs = argc > 3
        ? static_cast<unsigned>(std::atoi(argv[3]))
        : static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN));

    const auto found = workload::findCpuApp(app_name);
    if (!found.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     found.status().toString().c_str());
        return 1;
    }
    const workload::AppProfile &app = *found.value();

    core::DseOptions opts;
    opts.exp.scale = scale;
    opts.jobs = jobs;

    const auto designs = core::enumerateCpuDesigns();
    std::printf("Exploring %zu hybrid designs on '%s' with %u "
                "job(s)...\n",
                designs.size(), app.name, jobs);

    const auto points =
        core::evaluateCpuDesigns(designs, app, opts);
    const auto front = core::paretoFront(points,
                                         core::DseObjective::Ed2);

    TablePrinter t("Pareto front on " + std::string(app.name) +
                       " (best ED^2 first)",
                   {"design", "cores", "time (ms)", "energy (mJ)",
                    "area (mm^2)"});
    for (size_t idx : front) {
        const core::DsePoint &p = points[idx];
        t.addRow({p.name, std::to_string(p.cores),
                  formatDouble(p.seconds * 1e3, 4),
                  formatDouble(p.energyJ * 1e3, 4),
                  formatDouble(p.areaMm2, 2)});
    }
    t.print();
    std::printf("\n%zu of %zu designs are Pareto-optimal.\n",
                front.size(), points.size());

    // The AdvHet design the paper hand-crafted, located in the front.
    const uint64_t advhet = core::designHash(
        core::cpuHybridFromConfig(core::CpuConfig::AdvHet));
    for (size_t idx : front)
        if (points[idx].hash == advhet)
            std::printf("The paper's AdvHet is on the front: %s\n",
                        points[idx].name.c_str());

    // Greedy hill-climb over the same space: it simulates only the
    // neighbors along its path.
    const auto climb = core::greedyCpuSearch(app, opts);
    std::printf("\nGreedy hill-climb visited %zu of %zu designs and "
                "found: %s\n",
                climb.size(), designs.size(),
                climb.empty() ? "-" : climb.front().name.c_str());
    return 0;
}
