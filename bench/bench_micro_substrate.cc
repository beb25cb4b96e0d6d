/**
 * @file
 * Google-benchmark microbenchmarks of the simulation substrate itself:
 * cache access throughput, branch-predictor throughput, OoO core
 * simulation speed (whole chip, and one pipeline with all-hit caches),
 * and GPU compute-unit simulation speed. These guard
 * against performance regressions in the simulator (the figure benches
 * above measure the *simulated* machine, not the simulator).
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/configs.hh"
#include "cpu/branch_pred.hh"
#include "cpu/multicore.hh"
#include "cpu/ooo_core.hh"
#include "gpu/gpu.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "workload/cpu_profiles.hh"
#include "workload/cpu_trace_gen.hh"
#include "workload/gpu_kernel_gen.hh"
#include "workload/gpu_profiles.hh"
#include "workload/vector_trace.hh"

using namespace hetsim;

namespace
{

void
BM_StatCounterStringLookup(benchmark::State &state)
{
    // The old hot-path pattern: a string-keyed map lookup on every
    // simulated event. Kept as the baseline the handle fix beats.
    StatGroup sg("bench");
    // A realistic population: hot-path groups hold ~10 counters.
    for (int i = 0; i < 12; ++i)
        ++sg.counter("counter_" + std::to_string(i));
    for (auto _ : state) {
        ++sg.counter("counter_7");
        benchmark::DoNotOptimize(sg);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatCounterStringLookup);

void
BM_StatCounterHandle(benchmark::State &state)
{
    // The new pattern: the reference is resolved once at construction
    // (StatGroup references are stable), so each event is a plain
    // increment.
    StatGroup sg("bench");
    for (int i = 0; i < 12; ++i)
        ++sg.counter("counter_" + std::to_string(i));
    Counter &c = sg.counter("counter_7");
    for (auto _ : state) {
        ++c;
        benchmark::DoNotOptimize(c);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatCounterHandle);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::CacheParams params{"bench", 32 * 1024, 8, 64, false};
    mem::Cache cache(params);
    Rng rng(42);
    for (auto _ : state) {
        const uint64_t addr = rng.range(1 << 20) * 64;
        auto r = cache.access(addr);
        if (!r.hit)
            cache.fill(addr, mem::CoherenceState::Shared);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_HierarchyLoad(benchmark::State &state)
{
    mem::HierarchyParams params;
    params.numCores = 4;
    mem::MemHierarchy hier(params);
    Rng rng(42);
    mem::Cycle now = 0;
    for (auto _ : state) {
        const uint64_t addr = rng.range(1 << 18) * 64;
        auto r = hier.access(rng.range(4), addr,
                             mem::AccessType::Load, ++now);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyLoad);

void
BM_BranchPredictor(benchmark::State &state)
{
    cpu::BranchPredictor bp;
    Rng rng(7);
    cpu::MicroOp op;
    op.cls = cpu::OpClass::Branch;
    for (auto _ : state) {
        op.pc = 0x1000 + rng.range(256) * 4;
        op.taken = rng.chance(0.7);
        op.target = op.taken ? op.pc - 64 : op.pc + 4;
        benchmark::DoNotOptimize(bp.predictAndTrain(op));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredictor);

void
BM_OooCoreSimulation(benchmark::State &state)
{
    // Simulated instructions per second of the full 4-core model.
    const auto found = workload::findCpuApp("water-sp");
    if (!found.ok()) {
        state.SkipWithError(found.status().toString().c_str());
        return;
    }
    const auto &app = *found.value();
    for (auto _ : state) {
        auto bundle = core::makeCpuConfig(core::CpuConfig::BaseCmos);
        auto traces = workload::makeCpuWorkload(
            app, bundle.numCores, 1, 0.05);
        std::vector<cpu::TraceSource *> ptrs;
        for (auto &t : traces)
            ptrs.push_back(t.get());
        cpu::Multicore mc(bundle.sim, ptrs);
        auto res = mc.run();
        state.SetItemsProcessed(state.items_processed() +
                                res.committedOps);
        benchmark::DoNotOptimize(res.cycles);
    }
}
BENCHMARK(BM_OooCoreSimulation)->Unit(benchmark::kMillisecond);

/** A loop body repeated over and over: a mix of dependent ALU, FP,
 *  load and store ops whose code and data fit in a few cache lines,
 *  closed by an always-taken backward branch. */
std::vector<cpu::MicroOp>
pipelineProgram(size_t iterations)
{
    constexpr int kBodyOps = 63;
    constexpr uint64_t kCodeBase = 0x1000;
    constexpr uint64_t kDataBase = 0x100000;
    Rng rng(11);
    std::vector<cpu::MicroOp> body;
    for (int i = 0; i < kBodyOps; ++i) {
        cpu::MicroOp op;
        op.pc = kCodeBase + 4 * static_cast<uint64_t>(i);
        const double r = rng.uniform();
        if (r < 0.25) {
            op.cls = cpu::OpClass::Load;
            op.addr = kDataBase + rng.range(64) * 8;
            op.dst = static_cast<int16_t>(1 + rng.range(30));
            op.src1 = static_cast<int16_t>(rng.range(31));
        } else if (r < 0.35) {
            op.cls = cpu::OpClass::Store;
            op.addr = kDataBase + rng.range(64) * 8;
            op.src1 = static_cast<int16_t>(rng.range(31));
            op.src2 = static_cast<int16_t>(rng.range(31));
        } else if (r < 0.5) {
            op.cls = rng.chance(0.5) ? cpu::OpClass::FpAdd
                                     : cpu::OpClass::FpMult;
            op.dst = static_cast<int16_t>(
                cpu::kNumIntRegs + 1 + rng.range(30));
            op.src1 = static_cast<int16_t>(
                cpu::kNumIntRegs + rng.range(31));
            op.src2 = static_cast<int16_t>(
                cpu::kNumIntRegs + rng.range(31));
        } else {
            op.cls = cpu::OpClass::IntAlu;
            op.dst = static_cast<int16_t>(1 + rng.range(30));
            op.src1 = static_cast<int16_t>(rng.range(31));
            op.src2 = static_cast<int16_t>(rng.range(31));
        }
        body.push_back(op);
    }
    cpu::MicroOp back;
    back.cls = cpu::OpClass::Branch;
    back.pc = kCodeBase + 4 * kBodyOps;
    back.taken = true;
    back.target = kCodeBase;
    body.push_back(back);

    std::vector<cpu::MicroOp> ops;
    ops.reserve(body.size() * iterations);
    for (size_t i = 0; i < iterations; ++i)
        ops.insert(ops.end(), body.begin(), body.end());
    return ops;
}

void
BM_OooCorePipeline(benchmark::State &state)
{
    // Simulated ops per second of one OooCore with the memory layer
    // out of the way: the program's code and data stay resident in
    // IL1/DL1, so after the first iteration every access hits and the
    // time goes to fetch, dispatch, issue and commit.
    workload::VectorTrace trace(pipelineProgram(2000));
    mem::HierarchyParams mem_params;
    mem_params.numCores = 1;
    mem::MemHierarchy hier(mem_params);
    mem::Cycle now = 0;
    uint64_t ops = 0;
    for (auto _ : state) {
        trace.reset();
        cpu::OooCore core(cpu::CoreParams{}, 0, &hier, &trace);
        while (!core.finished())
            core.tick(now++);
        ops += core.committedOps();
        benchmark::DoNotOptimize(core.committedOps());
    }
    state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_OooCorePipeline)->Unit(benchmark::kMillisecond);

void
BM_GpuSimulation(benchmark::State &state)
{
    const auto found = workload::findGpuKernel("matrixmul");
    if (!found.ok()) {
        state.SkipWithError(found.status().toString().c_str());
        return;
    }
    const auto &prof = *found.value();
    for (auto _ : state) {
        auto bundle = core::makeGpuConfig(core::GpuConfig::BaseCmos);
        workload::SyntheticKernel kernel(prof, 1, 0.05);
        gpu::Gpu gpu(bundle.sim);
        auto res = gpu.run(kernel);
        state.SetItemsProcessed(state.items_processed() +
                                res.issuedOps);
        benchmark::DoNotOptimize(res.cycles);
    }
}
BENCHMARK(BM_GpuSimulation)->Unit(benchmark::kMillisecond);

void
BM_CpuSimThroughput(benchmark::State &state)
{
    // Simulated cycles per second with event-horizon skipping on
    // (Arg 0) vs. the per-cycle reference loop (Arg 1), on a
    // memory-bound app whose long DRAM stalls are the skip loop's
    // best case. The ratio of the two sim_cycles_per_sec counters is
    // the skip speedup reported in BENCH_simspeed.json.
    const bool no_skip = state.range(0) != 0;
    const auto found = workload::findCpuApp("canneal");
    if (!found.ok()) {
        state.SkipWithError(found.status().toString().c_str());
        return;
    }
    const auto &app = *found.value();
    uint64_t cycles = 0;
    for (auto _ : state) {
        auto bundle = core::makeCpuConfig(core::CpuConfig::BaseTfet);
        bundle.sim.skipEnabled = !no_skip;
        auto traces = workload::makeCpuWorkload(
            app, bundle.numCores, 1, 0.5);
        std::vector<cpu::TraceSource *> ptrs;
        for (auto &t : traces)
            ptrs.push_back(t.get());
        cpu::Multicore mc(bundle.sim, ptrs);
        auto res = mc.run();
        cycles += res.cycles;
        state.SetItemsProcessed(state.items_processed() +
                                res.committedOps);
        benchmark::DoNotOptimize(res.cycles);
    }
    state.counters["sim_cycles_per_sec"] =
        benchmark::Counter(static_cast<double>(cycles),
                           benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CpuSimThroughput)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_GpuSimThroughput(benchmark::State &state)
{
    // GPU twin of BM_CpuSimThroughput: a memory-heavy kernel on the
    // half-clock all-TFET GPU, skip (Arg 0) vs. reference (Arg 1).
    const bool no_skip = state.range(0) != 0;
    const auto found = workload::findGpuKernel("reduction");
    if (!found.ok()) {
        state.SkipWithError(found.status().toString().c_str());
        return;
    }
    const auto &prof = *found.value();
    uint64_t cycles = 0;
    for (auto _ : state) {
        auto bundle = core::makeGpuConfig(core::GpuConfig::BaseTfet);
        bundle.sim.skipEnabled = !no_skip;
        workload::SyntheticKernel kernel(prof, 1, 0.5);
        gpu::Gpu gpu(bundle.sim);
        auto res = gpu.run(kernel);
        cycles += res.cycles;
        state.SetItemsProcessed(state.items_processed() +
                                res.issuedOps);
        benchmark::DoNotOptimize(res.cycles);
    }
    state.counters["sim_cycles_per_sec"] =
        benchmark::Counter(static_cast<double>(cycles),
                           benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GpuSimThroughput)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
