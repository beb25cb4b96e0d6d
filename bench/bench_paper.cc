/**
 * @file
 * Figures 7-14: the paper's CPU and GPU evaluation, regenerated from
 * one deduplicated cell plan.
 *
 * Every cell of the figures (bench::paperPlan) runs once through
 * core::runSweep: forked cells, one job per online CPU, journaled in
 * the ResultStore at `store-dir` when one is given, so a rerun
 * against the same store replays instead of simulating. Every table
 * and CSV is then rendered from the cell results. All values are
 * normalized to BaseCMOS.
 *
 *  - Figure 7, CPU time. Paper: BaseTFET ~1.96x, BaseHet ~1.40x,
 *    AdvHet ~1.10x, AdvHet-2X ~0.68x; BaseCMOS-Enh ~1.0x.
 *  - Figure 8, CPU energy, with the core/L2/L3 x dynamic/leakage
 *    breakdown. Paper: BaseTFET ~0.24, BaseHet ~0.65, AdvHet ~0.61,
 *    AdvHet-2X ~0.66; savings come from both dynamic and leakage.
 *  - Figure 9, CPU ED^2. Paper: BaseHet worse than BaseCMOS, AdvHet
 *    ~0.74, AdvHet-2X ~0.32.
 *  - Figure 10, GPU time (BaseCMOS includes the register-file cache
 *    for fairness). Paper: BaseTFET ~2.0x, BaseHet ~1.28x, AdvHet
 *    ~1.20x, AdvHet-2X ~0.70x.
 *  - Figure 11, GPU energy, with the dynamic/leakage split. Paper:
 *    BaseTFET ~0.25, BaseHet ~0.65, AdvHet ~0.60, AdvHet-2X ~0.66.
 *  - Figure 12, GPU ED^2. Paper: BaseHet worse than BaseCMOS, AdvHet
 *    ~0.91 (the RF cache pays off), AdvHet-2X ~0.40.
 *  - Figure 13, sensitivity of the HetCore CPU designs. Paper: BaseL3
 *    saves ~10% energy at BaseCMOS-like speed; BaseHighVt is slightly
 *    slower *and* consumes more energy; BaseHet is ~2% slower than
 *    BaseHet-FastALU but saves ~10% energy; Enh adds ~3% speed, Split
 *    ~2% more, and the asymmetric DL1 (AdvHet) a large further step
 *    at roughly equal energy.
 *  - Figure 14, BaseCMOS and AdvHet energy at 2, 2.5 and 1.5 GHz and
 *    at 2 GHz with the 15nm variation guardbands (+120 mV CMOS /
 *    +70 mV TFET), normalized to BaseCMOS at 2 GHz. Paper: AdvHet
 *    saves ~39% at 2 GHz, ~36% at 2.5 GHz (the flatter TFET V-f curve
 *    demands a larger dV), ~43% at 1.5 GHz and ~37% under variation.
 *
 * Usage: bench_paper [scale] [store-dir]. Exits 1, naming the cell,
 * when any cell does not complete.
 */

#include <unistd.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"

using namespace hetsim;
using core::CellResult;

namespace
{

/** Every cell's result, by its cellStoreKey. */
using Results = std::map<std::string, CellResult>;

const CellResult &
lookup(const Results &results, const core::SweepCell &cell,
       const core::ExperimentOptions &exp)
{
    core::SweepOptions opts;
    opts.exp = exp;
    return results.at(core::cellStoreKey(cell, opts));
}

/** A config x workload slice of the results, baseline config first. */
struct Matrix
{
    const char *rowLabel; ///< "app" or "kernel".
    std::vector<std::string> configs;
    std::vector<std::string> workloads;
    std::vector<const CellResult *> cells; ///< Config-major.

    const CellResult &at(size_t c, size_t w) const
    {
        return *cells[c * workloads.size() + w];
    }
    const CellResult &baseline(size_t w) const { return at(0, w); }
};

Matrix
cpuMatrix(const Results &results,
          const std::vector<core::CpuConfig> &cfgs,
          const core::ExperimentOptions &exp)
{
    Matrix m{"app", {}, {}, {}};
    for (const auto &app : workload::cpuApps())
        m.workloads.push_back(app.name);
    for (core::CpuConfig cfg : cfgs) {
        m.configs.push_back(core::cpuConfigName(cfg));
        for (const std::string &app : m.workloads)
            m.cells.push_back(
                &lookup(results, core::cpuAppCell(cfg, app), exp));
    }
    return m;
}

Matrix
gpuMatrix(const Results &results,
          const std::vector<core::GpuConfig> &cfgs,
          const core::ExperimentOptions &exp)
{
    Matrix m{"kernel", {}, {}, {}};
    for (const auto &kernel : workload::gpuKernels())
        m.workloads.push_back(kernel.name);
    for (core::GpuConfig cfg : cfgs) {
        m.configs.push_back(core::gpuConfigName(cfg));
        for (const std::string &kernel : m.workloads)
            m.cells.push_back(&lookup(
                results, core::gpuKernelCell(cfg, kernel), exp));
    }
    return m;
}

power::RunMetrics
metrics(const CellResult &r)
{
    return {r.seconds, r.energyJ};
}

/** Normalized time / energy / ED / ED^2 of a run against its
 *  baseline. @{ */
using Metric = double (*)(const CellResult &r, const CellResult &b);

double
normTime(const CellResult &r, const CellResult &b)
{
    return r.seconds / b.seconds;
}

double
normEnergy(const CellResult &r, const CellResult &b)
{
    return r.energyJ / b.energyJ;
}

double
normEd(const CellResult &r, const CellResult &b)
{
    return metrics(r).edJs() / metrics(b).edJs();
}

double
normEd2(const CellResult &r, const CellResult &b)
{
    return metrics(r).ed2Js2() / metrics(b).ed2Js2();
}
/** @} */

/**
 * Print (and CSV-mirror) a figure table: one row per workload, one
 * column per configuration, values normalized to the baseline config,
 * plus a trailing arithmetic-mean row (the paper's "Average" bars).
 */
void
printFigure(const std::string &title, const Matrix &m, Metric metric,
            const std::string &csv_path)
{
    std::vector<std::string> columns = {m.rowLabel};
    columns.insert(columns.end(), m.configs.begin(), m.configs.end());
    TablePrinter t(title, columns);

    std::vector<double> sums(m.configs.size(), 0.0);
    for (size_t w = 0; w < m.workloads.size(); ++w) {
        std::vector<double> row;
        for (size_t c = 0; c < m.configs.size(); ++c) {
            const double v = metric(m.at(c, w), m.baseline(w));
            row.push_back(v);
            sums[c] += v;
        }
        t.addRow(m.workloads[w], row);
    }
    std::vector<double> means;
    for (double s : sums)
        means.push_back(s / m.workloads.size());
    t.addRow("Average", means);
    t.print();
    if (!t.writeCsv(csv_path))
        warn("could not write %s", csv_path.c_str());
}

/** Figure 8's stacked bars: the mean core/L2/L3 x dynamic/leakage
 *  shares of each config, normalized to the BaseCMOS total. */
void
printFigure8Breakdown(const Matrix &m)
{
    TablePrinter t("Figure 8 breakdown: mean energy shares vs "
                   "BaseCMOS total",
                   {"config", "core-dyn", "core-leak", "l2-dyn",
                    "l2-leak", "l3-dyn", "l3-leak", "total"});
    // The groups are Core, L2, L3: the columns' order.
    for (size_t c = 0; c < m.configs.size(); ++c) {
        double parts[2 * power::kNumEnergyGroups] = {};
        double total = 0.0;
        for (size_t a = 0; a < m.workloads.size(); ++a) {
            const CellResult &r = m.at(c, a);
            const double base = m.baseline(a).energyJ;
            for (int g = 0; g < power::kNumEnergyGroups; ++g) {
                parts[2 * g] += r.groupDynamicJ[g] / base;
                parts[2 * g + 1] += r.groupLeakageJ[g] / base;
            }
            total += r.energyJ / base;
        }
        std::vector<double> row;
        for (double p : parts)
            row.push_back(p / m.workloads.size());
        row.push_back(total / m.workloads.size());
        t.addRow(m.configs[c], row);
    }
    t.print();
    t.writeCsv("fig8_cpu_energy_breakdown.csv");
}

/** Figure 11's split: mean dynamic and leakage shares of each config
 *  against the BaseCMOS total. */
void
printFigure11Split(const Matrix &m)
{
    TablePrinter t("Figure 11 split: mean dynamic/leakage shares vs "
                   "BaseCMOS total",
                   {"config", "dynamic", "leakage", "total"});
    // A GPU's energy all sits in the Core group.
    const int core = static_cast<int>(power::EnergyGroup::Core);
    for (size_t c = 0; c < m.configs.size(); ++c) {
        double dyn = 0.0, leak = 0.0;
        for (size_t k = 0; k < m.workloads.size(); ++k) {
            const CellResult &r = m.at(c, k);
            const double base = m.baseline(k).energyJ;
            dyn += r.groupDynamicJ[core] / base;
            leak += r.groupLeakageJ[core] / base;
        }
        const double n = static_cast<double>(m.workloads.size());
        t.addRow(m.configs[c], {dyn / n, leak / n, (dyn + leak) / n});
    }
    t.print();
    t.writeCsv("fig11_gpu_energy_split.csv");
}

/** Figure 13's bar heights: mean normalized time, energy, ED, ED^2. */
void
printFigure13Summary(const Matrix &m)
{
    TablePrinter t("Figure 13: sensitivity analysis "
                   "(mean, normalized to BaseCMOS)",
                   {"config", "time", "energy", "ED", "ED^2"});
    for (size_t c = 0; c < m.configs.size(); ++c) {
        double time = 0, energy = 0, ed = 0, ed2 = 0;
        for (size_t a = 0; a < m.workloads.size(); ++a) {
            const CellResult &r = m.at(c, a);
            const CellResult &b = m.baseline(a);
            time += normTime(r, b);
            energy += normEnergy(r, b);
            ed += normEd(r, b);
            ed2 += normEd2(r, b);
        }
        const double n = static_cast<double>(m.workloads.size());
        t.addRow(m.configs[c], {time / n, energy / n, ed / n, ed2 / n});
    }
    t.print();
    t.writeCsv("fig13_sensitivity.csv");
}

void
printFigure14(const Results &results, const core::ExperimentOptions &base)
{
    TablePrinter t("Figure 14: DVFS and process variation "
                   "(energy normalized to BaseCMOS at 2 GHz)",
                   {"operating point", "V_CMOS", "V_TFET", "BaseCMOS",
                    "AdvHet", "AdvHet saving"});
    // The first point, BaseCMOS at 2 GHz, is the reference.
    const auto &points = bench::figure14Points();
    double ref_energy = 0.0;
    for (const bench::Figure14Point &p : points) {
        const core::ExperimentOptions exp = bench::atPoint(base, p);
        double cmos = 0.0, adv = 0.0;
        for (const auto &app : workload::cpuApps()) {
            cmos += lookup(results,
                           core::cpuAppCell(core::CpuConfig::BaseCmos,
                                            app.name),
                           exp)
                        .energyJ;
            adv += lookup(results,
                          core::cpuAppCell(core::CpuConfig::AdvHet,
                                           app.name),
                          exp)
                       .energyJ;
        }
        if (&p == &points.front())
            ref_energy = cmos;

        core::OperatingPoint op = core::cpuOperatingPoint(p.freqGhz);
        if (p.guardband)
            op = core::withVariationGuardband(op);

        t.addRow({p.label, formatDouble(op.vCmos, 3),
                  formatDouble(op.vTfet, 3),
                  formatDouble(cmos / ref_energy, 3),
                  formatDouble(adv / ref_energy, 3),
                  formatDouble(1.0 - adv / cmos, 3)});
    }
    t.print();
    t.writeCsv("fig14_dvfs_variation.csv");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 3) {
        // Bench harnesses are front ends: they may exit directly.
        std::fprintf(stderr,
                     "error: usage: bench_paper [scale] [store-dir]\n");
        return 1;
    }
    const core::ExperimentOptions opts =
        bench::parseOptions(argc, argv);

    std::optional<core::ResultStore> store;
    if (argc > 2) {
        Result<core::ResultStore> opened =
            core::ResultStore::open(argv[2]);
        if (!opened.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         opened.status().toString().c_str());
            return 1;
        }
        store.emplace(std::move(opened.value()));
    }
    core::SweepOptions sweep;
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    sweep.jobs = cpus > 0 ? static_cast<unsigned>(cpus) : 1u;
    sweep.store = store ? &*store : nullptr;
    sweep.resume = store.has_value();

    Results results;
    size_t from_store = 0;
    for (const bench::PaperRun &run : bench::paperPlan(opts)) {
        sweep.exp = run.exp;
        std::fprintf(stderr, "  running %zu cells at %.2f GHz%s...\n",
                     run.cells.size(), run.exp.freqGhz,
                     run.exp.variationGuardband ? " (guardbands)"
                                                : "");
        const core::SweepReport rep = core::runSweep(run.cells, sweep);
        for (size_t i = 0; i < rep.cells.size(); ++i) {
            const CellResult &r = rep.results[i];
            if (r.outcome != core::CellOutcome::Ok) {
                std::fprintf(stderr, "error: cell %s / %s: %s\n",
                             core::cellConfigName(rep.cells[i]).c_str(),
                             core::cellWorkloadName(rep.cells[i]).c_str(),
                             r.status.toString().c_str());
                return 1;
            }
            from_store += r.fromStore ? 1 : 0;
            results.emplace(core::cellStoreKey(rep.cells[i], sweep), r);
        }
    }
    std::fprintf(stderr, "bench_paper: %zu cells, %zu from the store\n",
                 results.size(), from_store);

    const Matrix cpu = cpuMatrix(results, core::figure7Configs(), opts);
    printFigure("Figure 7: CPU execution time (normalized to BaseCMOS)",
                cpu, normTime, "fig7_cpu_time.csv");
    printFigure("Figure 8: CPU energy (normalized to BaseCMOS)", cpu,
                normEnergy, "fig8_cpu_energy.csv");
    printFigure8Breakdown(cpu);
    printFigure("Figure 9: CPU ED^2 (normalized to BaseCMOS)", cpu,
                normEd2, "fig9_cpu_ed2.csv");

    const Matrix gpu = gpuMatrix(results, core::figure10Configs(), opts);
    printFigure("Figure 10: GPU execution time (normalized to BaseCMOS)",
                gpu, normTime, "fig10_gpu_time.csv");
    printFigure("Figure 11: GPU energy (normalized to BaseCMOS)", gpu,
                normEnergy, "fig11_gpu_energy.csv");
    printFigure11Split(gpu);
    printFigure("Figure 12: GPU ED^2 (normalized to BaseCMOS)", gpu,
                normEd2, "fig12_gpu_ed2.csv");

    const Matrix sens =
        cpuMatrix(results, core::figure13Configs(), opts);
    printFigure13Summary(sens);
    printFigure("Figure 13 detail: per-app execution time "
                "(normalized to BaseCMOS)",
                sens, normTime, "fig13_sensitivity_time.csv");

    printFigure14(results, opts);
    return 0;
}
