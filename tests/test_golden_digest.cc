/**
 * @file
 * Golden-digest gate: pins the exact report bytes of a fixed matrix.
 *
 * Ordering and determinism tests cannot see a refactor that moves a
 * result slightly. This test runs a small fixed matrix of cells at
 * scale 0.05 and compares the FNV-1a 64 of each cell's
 * RunReport::toJson() against the checked-in manifest
 * tests/golden_digests.txt:
 *
 *  - the 14 paper applications x {BaseCMOS, BaseHet, AdvHet,
 *    AdvHet-2X};
 *  - every GPU kernel x {BaseCMOS, AdvHet};
 *  - lock_heavy (contention) on BaseHet;
 *  - the exhaustive CPU design-space exploration of fft at scale
 *    0.02, digested over its dseReportToJson() document (the bytes
 *    `hetsim_cli dse --space cpu --app fft --scale 0.02
 *    --report-json` writes).
 *
 * Pure performance and pure design changes must leave the manifest
 * unchanged. A change that alters the model on purpose regenerates
 * it: on a mismatch the test writes the digests it computed to
 * golden_digests.actual.txt in its working directory, in manifest
 * format, ready to be copied over the checked-in file.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/envelope.hh"
#include "core/configs.hh"
#include "core/dse.hh"
#include "core/experiment.hh"
#include "workload/cpu_profiles.hh"
#include "workload/gpu_profiles.hh"

using namespace hetsim;
using namespace hetsim::core;

namespace
{

constexpr double kScale = 0.05;
constexpr double kDseScale = 0.02;

struct Cell
{
    std::string name; ///< "cpu/<config>/<app>" or "gpu/<config>/<kernel>".
    uint64_t digest = 0;
};

ExperimentOptions
goldenOpts()
{
    ExperimentOptions opts;
    opts.scale = kScale;
    return opts;
}

uint64_t
digestOf(const std::string &json)
{
    return fnv1a(json);
}

Cell
cpuCell(CpuConfig cfg, const workload::AppProfile &app)
{
    obs::RunReport rep;
    runCpuExperiment(cfg, app, goldenOpts(), &rep);
    return {std::string("cpu/") + cpuConfigName(cfg) + "/" + app.name,
            digestOf(rep.toJson())};
}

Cell
gpuCell(GpuConfig cfg, const workload::KernelProfile &kernel)
{
    obs::RunReport rep;
    runGpuExperiment(cfg, kernel, goldenOpts(), &rep);
    return {std::string("gpu/") + gpuConfigName(cfg) + "/" +
                kernel.name,
            digestOf(rep.toJson())};
}

Cell
dseCell(const workload::AppProfile &app)
{
    DseOptions opts;
    opts.exp.scale = kDseScale;
    opts.jobs = 4;
    const std::vector<DsePoint> points =
        evaluateCpuDesigns(enumerateCpuDesigns(), app, opts);
    return {std::string("dse/cpu/") + app.name,
            digestOf(dseReportToJson(points, app.name,
                                     opts.objective))};
}

std::vector<Cell>
computeMatrix()
{
    std::vector<Cell> cells;
    const CpuConfig cpu_cfgs[] = {CpuConfig::BaseCmos, CpuConfig::BaseHet,
                                  CpuConfig::AdvHet, CpuConfig::AdvHet2X};
    for (CpuConfig cfg : cpu_cfgs)
        for (const workload::AppProfile &app : workload::cpuApps())
            cells.push_back(cpuCell(cfg, app));
    const GpuConfig gpu_cfgs[] = {GpuConfig::BaseCmos, GpuConfig::AdvHet};
    for (GpuConfig cfg : gpu_cfgs)
        for (const workload::KernelProfile &k : workload::gpuKernels())
            cells.push_back(gpuCell(cfg, k));
    cells.push_back(
        cpuCell(CpuConfig::BaseHet, workload::cpuApp("lock_heavy")));
    cells.push_back(dseCell(workload::cpuApp("fft")));
    return cells;
}

/** Manifest lines are "<16 hex digits> <cell name>"; '#' comments. */
std::map<std::string, uint64_t>
readManifest(const char *path)
{
    std::map<std::string, uint64_t> out;
    FILE *f = std::fopen(path, "r");
    if (f == nullptr)
        return out;
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (line[0] == '#' || line[0] == '\n')
            continue;
        unsigned long long digest = 0;
        char name[400];
        if (std::sscanf(line, "%16llx %399s", &digest, name) == 2)
            out[name] = digest;
    }
    std::fclose(f);
    return out;
}

void
writeManifest(const char *path, const std::vector<Cell> &cells)
{
    FILE *f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr) << path;
    std::fprintf(f, "# FNV-1a 64 of RunReport::toJson() per cell, "
                    "scale 0.05, seed 1;\n"
                    "# dse/ lines: dseReportToJson() at scale 0.02.\n"
                    "# Checked by tests/test_golden_digest.cc.\n");
    for (const Cell &c : cells)
        std::fprintf(f, "%016llx %s\n",
                     static_cast<unsigned long long>(c.digest),
                     c.name.c_str());
    std::fclose(f);
}

} // namespace

TEST(GoldenDigest, ReportBytesMatchManifest)
{
    const std::map<std::string, uint64_t> want =
        readManifest(HETSIM_GOLDEN_MANIFEST);
    EXPECT_FALSE(want.empty())
        << "missing or empty manifest " << HETSIM_GOLDEN_MANIFEST;

    const std::vector<Cell> cells = computeMatrix();
    EXPECT_EQ(cells.size(), want.size())
        << "manifest and matrix list different cells";
    bool all_match = cells.size() == want.size();
    for (const Cell &c : cells) {
        const auto it = want.find(c.name);
        if (it == want.end()) {
            ADD_FAILURE() << c.name << " is not in the manifest";
            all_match = false;
        } else if (it->second != c.digest) {
            ADD_FAILURE() << c.name << ": report digest " << std::hex
                          << c.digest << " != manifest " << it->second;
            all_match = false;
        }
    }
    if (!all_match) {
        writeManifest("golden_digests.actual.txt", cells);
        ADD_FAILURE() << "computed digests written to "
                         "golden_digests.actual.txt";
    }
}
