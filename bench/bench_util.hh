/**
 * @file
 * Shared helpers for the figure/table bench harnesses.
 *
 * `bench_paper` regenerates Figures 7-14: it runs the figures' one
 * deduplicated cell plan (paperPlan) through core::runSweep, then
 * renders every table and CSV from the cell results. The extension
 * benches (`bench_ext_*`) each reproduce one further experiment whose
 * variants are not sweep cells. Every table is printed and mirrored to
 * a CSV file in the working directory.
 *
 * Usage:
 *   bench_paper [scale] [store-dir]
 *   bench_ext_X [scale]
 * where `scale` (default 1.0) multiplies workload sizes; use smaller
 * values for quick runs.
 */

#ifndef HETSIM_BENCH_BENCH_UTIL_HH
#define HETSIM_BENCH_BENCH_UTIL_HH

#include <vector>

#include "core/sweep.hh"

namespace hetsim::bench
{

/**
 * Options at the scale given as argv[1] (1.0 when absent). The scale
 * must parse in full as a finite number above zero; anything else
 * prints "error:" and exits 1 before any work starts.
 */
core::ExperimentOptions parseOptions(int argc, char **argv);

/** One of Figure 14's operating points. */
struct Figure14Point
{
    const char *label;
    double freqGhz;
    bool guardband; ///< 15nm process-variation guardbands.
};

/** Figure 14's points; the first is the other figures' 2 GHz. */
const std::vector<Figure14Point> &figure14Points();

/** `base` moved to one of Figure 14's operating points. */
core::ExperimentOptions atPoint(const core::ExperimentOptions &base,
                                const Figure14Point &p);

/** The cells of one runSweep call: all share one set of options. */
struct PaperRun
{
    core::ExperimentOptions exp;
    std::vector<core::SweepCell> cells;
};

/**
 * Figures 7-14's cells, each once: (Figure 7 and 13 configs) x the
 * 14 apps and the Figure 10 configs x the GPU kernels at `base`, then
 * BaseCMOS and AdvHet x the apps at each Figure 14 point. A cell whose
 * cellStoreKey an earlier cell already has is dropped, so the 2 GHz
 * point adds nothing. One PaperRun per set of options that has cells.
 */
std::vector<PaperRun> paperPlan(const core::ExperimentOptions &base);

} // namespace hetsim::bench

#endif // HETSIM_BENCH_BENCH_UTIL_HH
