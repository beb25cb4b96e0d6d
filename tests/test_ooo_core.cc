/**
 * @file
 * Unit and property tests for the out-of-order core.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "cpu/ooo_core.hh"
#include "mem/hierarchy.hh"
#include "workload/vector_trace.hh"

using namespace hetsim;
using namespace hetsim::cpu;
using workload::VectorTrace;

namespace
{

MicroOp
alu(int16_t dst, int16_t src1 = -1, int16_t src2 = -1,
    uint64_t pc = 0x1000)
{
    MicroOp op;
    op.cls = OpClass::IntAlu;
    op.dst = dst;
    op.src1 = src1;
    op.src2 = src2;
    op.pc = pc;
    return op;
}

MicroOp
load(int16_t dst, uint64_t addr, int16_t addr_reg = -1,
     uint8_t size = 8)
{
    MicroOp op;
    op.cls = OpClass::Load;
    op.dst = dst;
    op.src1 = addr_reg;
    op.addr = addr;
    op.accessSize = size;
    op.pc = 0x1000;
    return op;
}

MicroOp
store(uint64_t addr, int16_t data_reg = -1, uint8_t size = 8)
{
    MicroOp op;
    op.cls = OpClass::Store;
    op.src2 = data_reg;
    op.addr = addr;
    op.accessSize = size;
    op.pc = 0x1000;
    return op;
}

mem::HierarchyParams
memParams()
{
    mem::HierarchyParams p;
    p.numCores = 1;
    return p; // prefetchers enabled: sequential code stays IL1-hot
}

/** Run one core until finished; returns the cycle count. */
uint64_t
runCore(OooCore &core, uint64_t limit = 1000000)
{
    mem::Cycle now = 0;
    while (!core.finished()) {
        core.tick(now);
        ++now;
        EXPECT_LT(now, limit) << "core did not finish";
        if (now >= limit)
            break;
    }
    return now;
}

struct CoreRig
{
    explicit CoreRig(std::vector<MicroOp> ops,
                     CoreParams params = CoreParams{},
                     mem::HierarchyParams mem_params = memParams())
        : trace(std::move(ops)), hier(mem_params),
          core(params, 0, &hier, &trace)
    {
    }

    VectorTrace trace;
    mem::MemHierarchy hier;
    OooCore core;
};

} // namespace

TEST(OooCore, CommitsEveryOpExactlyOnce)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 100; ++i)
        ops.push_back(alu(1 + (i % 30), 0, -1, 0x1000 + 4 * i));
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_EQ(rig.core.committedOps(), 100u);
    EXPECT_TRUE(rig.core.finished());
}

TEST(OooCore, IndependentOpsReachIssueWidth)
{
    // 400 independent single-cycle ops on a 4-wide machine should
    // sustain close to 4 IPC.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 400; ++i)
        ops.push_back(alu(1 + (i % 30), -1, -1, 0x1000 + 4 * i));
    CoreRig rig(ops);
    const uint64_t cycles = runCore(rig.core);
    // ~100 issue cycles + pipeline fill + one cold IL1 miss.
    EXPECT_LT(cycles, 300u);
}

TEST(OooCore, DependentChainBoundByAluLatency)
{
    // A strict chain of N dependent 1-cycle ALU ops takes >= N cycles.
    std::vector<MicroOp> ops;
    ops.push_back(alu(1, -1));
    for (int i = 0; i < 199; ++i)
        ops.push_back(alu(1 + ((i + 1) % 8), 1 + (i % 8), -1,
                          0x1000 + 4 * i));
    CoreRig rig(ops);
    const uint64_t cycles = runCore(rig.core);
    EXPECT_GE(cycles, 200u);
    EXPECT_LT(cycles, 400u);
}

TEST(OooCore, TwoCycleAluDoublesChainTime)
{
    auto make_ops = [] {
        std::vector<MicroOp> ops;
        ops.push_back(alu(1, -1));
        for (int i = 0; i < 1999; ++i)
            ops.push_back(alu(1 + ((i + 1) % 8), 1 + (i % 8), -1,
                              0x1000 + 4 * (i % 256)));
        return ops;
    };
    CoreParams slow;
    slow.fu.timings.aluLat = 2;
    CoreRig fast_rig(make_ops());
    CoreRig slow_rig(make_ops(), slow);
    const uint64_t fast_cycles = runCore(fast_rig.core);
    const uint64_t slow_cycles = runCore(slow_rig.core);
    EXPECT_NEAR(static_cast<double>(slow_cycles) / fast_cycles, 2.0,
                0.2);
}

TEST(OooCore, LoadLatencyOnCriticalPath)
{
    // Address-chained loads: each load's address register depends on
    // the previous load's value, so every DL1 round trip lands on
    // the critical path.
    std::vector<MicroOp> ops;
    ops.push_back(load(1, 0x8000)); // warms the line
    for (int i = 0; i < 100; ++i) {
        ops.push_back(load(1, 0x8000, 1));
        ops.push_back(alu(2, 1));
    }
    CoreRig fast_rig(ops); // DL1 RT 2
    const uint64_t fast_cycles = runCore(fast_rig.core);

    mem::HierarchyParams tfet_mem = memParams();
    tfet_mem.lat.dl1Rt = 4; // TFET DL1
    CoreRig slow_rig(ops, CoreParams{}, tfet_mem);
    const uint64_t slow_cycles = runCore(slow_rig.core);
    EXPECT_GT(slow_cycles, fast_cycles + 150);
}

TEST(OooCore, StoreToLoadForwardingIsFast)
{
    // A load that hits a pending store forwards in ~2 cycles instead
    // of paying the memory round trip.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 100; ++i) {
        ops.push_back(store(0x9000, -1));
        ops.push_back(load(1, 0x9000));
        ops.push_back(alu(2, 1));
    }
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("forwarded_loads"), 90u);
}

TEST(OooCore, ForwardingRequiresContainment)
{
    // A narrow store under a wide load overlaps but cannot supply all
    // of the load's bytes: the load must wait for the store and then
    // access memory (counted as a partial-forward replay), never
    // forward stale data.
    std::vector<MicroOp> ops;
    ops.push_back(load(1, 0x9000)); // warms the line
    for (int i = 0; i < 100; ++i) {
        ops.push_back(store(0x9000, -1, 4));
        ops.push_back(load(1, 0x9000, -1, 8));
        ops.push_back(alu(2, 1));
    }
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_EQ(rig.core.stats().value("forwarded_loads"), 0u);
    EXPECT_GT(rig.core.stats().value("partial_forward_replays"),
              90u);
    EXPECT_EQ(rig.core.committedOps(), ops.size());
}

TEST(OooCore, DisjointBytesInSameChunkDoNotAlias)
{
    // Regression for the chunk-granularity aliasing bug: a 4-byte
    // store at 0x9004 and a 4-byte load at 0x9000 share an 8-byte
    // chunk but touch disjoint bytes, so the load must neither
    // forward nor replay against the store.
    std::vector<MicroOp> ops;
    ops.push_back(load(1, 0x9000)); // warms the line
    for (int i = 0; i < 100; ++i) {
        ops.push_back(store(0x9004, -1, 4));
        ops.push_back(load(1, 0x9000, -1, 4));
        ops.push_back(alu(2, 1));
    }
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_EQ(rig.core.stats().value("forwarded_loads"), 0u);
    EXPECT_EQ(rig.core.stats().value("partial_forward_replays"), 0u);
    EXPECT_EQ(rig.core.committedOps(), ops.size());
}

TEST(OooCore, ContainedNarrowLoadForwards)
{
    // A narrow load fully inside a pending wide store forwards even
    // though their addresses differ.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 100; ++i) {
        ops.push_back(store(0x9000, -1, 8));
        ops.push_back(load(1, 0x9004, -1, 4));
        ops.push_back(alu(2, 1));
    }
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("forwarded_loads"), 90u);
    EXPECT_EQ(rig.core.stats().value("partial_forward_replays"), 0u);
}

TEST(OooCore, ChunkSpanningOverlapReplays)
{
    // A load straddling the end of a pending store overlaps it
    // (first 4 bytes) without being contained; the old chunk compare
    // missed this aliasing when the addresses fell in different
    // 8-byte chunks.
    std::vector<MicroOp> ops;
    ops.push_back(load(1, 0x9000));
    ops.push_back(load(1, 0x9008)); // warm both lines' chunks
    for (int i = 0; i < 100; ++i) {
        ops.push_back(store(0x9000, -1, 8));
        ops.push_back(load(1, 0x9004, -1, 8));
        ops.push_back(alu(2, 1));
    }
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_EQ(rig.core.stats().value("forwarded_loads"), 0u);
    EXPECT_GT(rig.core.stats().value("partial_forward_replays"),
              90u);
}

TEST(OooCore, MispredictBlocksFetch)
{
    // Random branches cause redirects with the frontend penalty.
    std::vector<MicroOp> ops;
    Rng rng(3);
    uint64_t pc = 0x1000;
    for (int i = 0; i < 50; ++i) {
        for (int j = 0; j < 3; ++j) {
            ops.push_back(alu(1 + (j % 8), -1, -1, pc));
            pc += 4;
        }
        MicroOp br;
        br.cls = OpClass::Branch;
        br.pc = pc;
        br.taken = rng.chance(0.5);
        br.target = br.taken ? 0x1000 : pc + 4;
        pc = br.taken ? 0x1000 : pc + 4;
        ops.push_back(br);
    }
    CoreRig rig(ops);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("mispredict_redirects"), 5u);
    EXPECT_EQ(rig.core.committedOps(), ops.size());
}

TEST(OooCore, RobFullBackpressure)
{
    CoreParams params;
    params.robSize = 8;
    // A long-latency head (div) blocks commit while independents pile
    // up: the ROB-full stall counter must fire.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 50; ++i) {
        MicroOp div;
        div.cls = OpClass::IntDiv;
        div.dst = 1;
        div.pc = 0x1000;
        ops.push_back(div);
        for (int j = 0; j < 7; ++j)
            ops.push_back(alu(2 + j, -1, -1, 0x1010 + j * 4));
    }
    CoreRig rig(ops, params);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("rob_full_stalls"), 0u);
    EXPECT_EQ(rig.core.committedOps(), ops.size());
}

TEST(OooCore, FpRegisterFileBackpressure)
{
    CoreParams params;
    params.fpRegs = 34; // only 2 in-flight FP destinations
    std::vector<MicroOp> ops;
    for (int i = 0; i < 60; ++i) {
        MicroOp fp;
        fp.cls = OpClass::FpMult;
        fp.dst = kNumIntRegs + (i % 8);
        fp.pc = 0x1000 + 4 * i;
        ops.push_back(fp);
    }
    CoreRig rig(ops, params);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("fp_rf_stalls"), 0u);
    EXPECT_EQ(rig.core.committedOps(), ops.size());
}

TEST(OooCore, LsqBackpressure)
{
    CoreParams params;
    params.lsqSize = 4;
    std::vector<MicroOp> ops;
    for (int i = 0; i < 100; ++i)
        ops.push_back(load(1 + (i % 8), 0x100000 + 64 * i));
    CoreRig rig(ops, params);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("lsq_full_stalls"), 0u);
    EXPECT_EQ(rig.core.committedOps(), ops.size());
}

TEST(OooCore, BarrierParksAndReleases)
{
    std::vector<MicroOp> ops;
    ops.push_back(alu(1, -1));
    MicroOp barrier;
    barrier.cls = OpClass::Barrier;
    ops.push_back(barrier);
    ops.push_back(alu(2, -1));

    CoreRig rig(ops);
    mem::Cycle now = 0;
    while (!rig.core.waitingAtBarrier()) {
        rig.core.tick(now++);
        ASSERT_LT(now, 1000u);
    }
    EXPECT_EQ(rig.core.committedOps(), 1u);
    EXPECT_FALSE(rig.core.finished());
    rig.core.releaseBarrier();
    while (!rig.core.finished()) {
        rig.core.tick(now++);
        ASSERT_LT(now, 2000u);
    }
    EXPECT_EQ(rig.core.committedOps(), 2u);
}

TEST(OooCore, SteeringMarksProducersWithNearbyConsumers)
{
    CoreParams params;
    params.steerDependents = true;
    params.fu.dualSpeedAlu = true;
    params.fu.numFastAlus = 1;
    params.fu.timings.aluLat = 2;

    std::vector<MicroOp> ops;
    for (int i = 0; i < 50; ++i) {
        ops.push_back(alu(1, -1, -1, 0x1000 + 8 * i));
        ops.push_back(alu(2, 1, -1, 0x1004 + 8 * i)); // consumer
    }
    CoreRig rig(ops, params);
    runCore(rig.core);
    EXPECT_GT(rig.core.stats().value("steered_fast"), 25u);
    uint64_t fast = rig.core.fuPool().stats().value("fast_alu_ops");
    EXPECT_GE(fast, 20u);
}

TEST(OooCore, NoSteeringWithoutConsumers)
{
    CoreParams params;
    params.steerDependents = true;
    params.fu.dualSpeedAlu = true;
    params.fu.numFastAlus = 1;

    std::vector<MicroOp> ops;
    for (int i = 0; i < 50; ++i)
        ops.push_back(alu(1 + (i % 20), -1, -1, 0x1000 + 4 * i));
    CoreRig rig(ops, params);
    runCore(rig.core);
    EXPECT_EQ(rig.core.stats().value("steered_fast"), 0u);
}

// ------------------------- Property tests -------------------------

class OooCorePropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(OooCorePropertyTest, RandomProgramsCommitCompletely)
{
    Rng rng(GetParam());
    std::vector<MicroOp> ops;
    uint64_t pc = 0x1000;
    const int n = 3000;
    for (int i = 0; i < n; ++i) {
        const double r = rng.uniform();
        MicroOp op;
        op.pc = pc;
        pc += 4;
        if (r < 0.2) {
            op.cls = OpClass::Load;
            op.addr = 0x100000 + rng.range(4096) * 8;
            op.dst = static_cast<int16_t>(1 + rng.range(60));
            op.src1 = static_cast<int16_t>(rng.range(31));
        } else if (r < 0.3) {
            op.cls = OpClass::Store;
            op.addr = 0x100000 + rng.range(4096) * 8;
            op.src1 = static_cast<int16_t>(rng.range(31));
            op.src2 = static_cast<int16_t>(rng.range(62));
        } else if (r < 0.4) {
            op.cls = rng.chance(0.5) ? OpClass::FpAdd
                                     : OpClass::FpMult;
            op.dst = static_cast<int16_t>(
                kNumIntRegs + 1 + rng.range(30));
            op.src1 = static_cast<int16_t>(
                kNumIntRegs + rng.range(31));
            op.src2 = static_cast<int16_t>(
                kNumIntRegs + rng.range(31));
        } else if (r < 0.5) {
            op.cls = OpClass::Branch;
            op.taken = rng.chance(0.5);
            op.target = op.taken
                ? 0x1000 + rng.range(512) * 4
                : op.pc + 4;
        } else if (r < 0.53) {
            op.cls = rng.chance(0.5) ? OpClass::IntMult
                                     : OpClass::IntDiv;
            op.dst = static_cast<int16_t>(1 + rng.range(30));
            op.src1 = static_cast<int16_t>(rng.range(31));
        } else {
            op.cls = OpClass::IntAlu;
            op.dst = static_cast<int16_t>(1 + rng.range(30));
            op.src1 = static_cast<int16_t>(rng.range(31));
            if (rng.chance(0.6))
                op.src2 = static_cast<int16_t>(rng.range(31));
        }
        ops.push_back(op);
    }

    CoreRig rig(ops);
    mem::Cycle now = 0;
    while (!rig.core.finished() && now < 1000000) {
        rig.core.tick(now);
        ++now;
        if (now % 512 == 0) {
            ASSERT_TRUE(rig.core.checkDependencyOrder());
            ASSERT_TRUE(rig.core.checkOccupancyBounds());
        }
    }
    EXPECT_TRUE(rig.core.finished());
    EXPECT_EQ(rig.core.committedOps(), ops.size());
    // IPC can never exceed the machine width.
    EXPECT_GE(now * 4, ops.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OooCorePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

TEST(OooCore, IncrementalOccupancyMatchesPerCycleWalk)
{
    // The occupancy integrals are maintained incrementally (satellite
    // of the event-horizon work); replay the per-cycle structure walk
    // they replaced and require exact agreement.
    Rng rng(7);
    std::vector<MicroOp> ops;
    for (int i = 0; i < 2000; ++i) {
        const double r = rng.uniform();
        if (r < 0.25)
            ops.push_back(load(1 + static_cast<int16_t>(rng.range(30)),
                               0x200000 + rng.range(1 << 14) * 8,
                               static_cast<int16_t>(rng.range(31))));
        else if (r < 0.35)
            ops.push_back(store(0x200000 + rng.range(1 << 14) * 8,
                                static_cast<int16_t>(rng.range(31))));
        else
            ops.push_back(alu(1 + static_cast<int16_t>(rng.range(30)),
                              static_cast<int16_t>(rng.range(31)),
                              static_cast<int16_t>(rng.range(31)),
                              0x1000 + 4 * i));
    }

    CoreRig rig(ops);
    uint64_t ticks = 0;
    uint64_t rob_occ = 0;
    uint64_t iq_occ = 0;
    uint64_t lsq_occ = 0;
    mem::Cycle now = 0;
    while (!rig.core.finished() && now < 1000000) {
        ++ticks;
        rob_occ += rig.core.robOccupancy();
        iq_occ += rig.core.iqOccupancy();
        lsq_occ += rig.core.lsqOccupancy();
        rig.core.tick(now);
        ++now;
    }
    ASSERT_TRUE(rig.core.finished());

    const StatGroup &s = rig.core.stats();
    EXPECT_EQ(s.value("ticks"), ticks);
    EXPECT_EQ(s.value("rob_occ_cycles"), rob_occ);
    EXPECT_EQ(s.value("iq_occ_cycles"), iq_occ);
    EXPECT_EQ(s.value("lsq_occ_cycles"), lsq_occ);
    EXPECT_GT(rob_occ, 0u);
    EXPECT_GT(iq_occ, 0u);
    EXPECT_GT(lsq_occ, 0u);
}

namespace
{

/** A random load/store/ALU/FP mix over a 256 KiB region. */
std::vector<MicroOp>
randomMix(uint64_t seed, int n)
{
    Rng rng(seed);
    std::vector<MicroOp> ops;
    for (int i = 0; i < n; ++i) {
        const double r = rng.uniform();
        const uint64_t pc = 0x1000 + 4 * static_cast<uint64_t>(i % 512);
        if (r < 0.25) {
            MicroOp op = load(1 + static_cast<int16_t>(rng.range(30)),
                              0x200000 + rng.range(1 << 15) * 8,
                              static_cast<int16_t>(rng.range(31)));
            op.pc = pc;
            ops.push_back(op);
        } else if (r < 0.35) {
            MicroOp op = store(0x200000 + rng.range(1 << 15) * 8,
                               static_cast<int16_t>(rng.range(31)));
            op.pc = pc;
            ops.push_back(op);
        } else if (r < 0.45) {
            MicroOp op;
            op.cls = OpClass::FpMult;
            op.dst = static_cast<int16_t>(kNumIntRegs + 1 +
                                          rng.range(30));
            op.src1 = static_cast<int16_t>(kNumIntRegs + rng.range(31));
            op.pc = pc;
            ops.push_back(op);
        } else {
            ops.push_back(alu(1 + static_cast<int16_t>(rng.range(30)),
                              static_cast<int16_t>(rng.range(31)),
                              static_cast<int16_t>(rng.range(31)), pc));
        }
    }
    return ops;
}

/** The ROB ring's slot count for the default 160-entry ROB. */
constexpr uint64_t kRobRing = 256;

} // namespace

TEST(OooCore, RobSeqWindowSurvivesManyRingWraps)
{
    // 6000 ops through the 256-slot ROB ring wrap it ~23 times. On
    // every cycle exactly the seqs in [oldestSeq, nextSeq) are found:
    // not committed seqs, not future seqs, and not the seqs that
    // share a slot with a live one.
    const std::vector<MicroOp> ops = randomMix(3, 6000);
    CoreRig rig(ops);
    mem::Cycle now = 0;
    while (!rig.core.finished() && now < 1000000) {
        rig.core.tick(now++);
        const uint64_t lo = rig.core.oldestSeq();
        const uint64_t hi = rig.core.nextSeq();
        ASSERT_GE(lo, 1u);
        ASSERT_LE(hi - lo, CoreParams{}.robSize);
        ASSERT_EQ(hi - lo, rig.core.robOccupancy());
        for (uint64_t s = lo; s < hi; ++s)
            ASSERT_TRUE(rig.core.seqInFlight(s)) << s;
        ASSERT_FALSE(rig.core.seqInFlight(0));
        ASSERT_FALSE(rig.core.seqInFlight(hi));
        ASSERT_FALSE(rig.core.seqInFlight(hi + kRobRing - 1));
        ASSERT_FALSE(rig.core.seqInFlight(lo + kRobRing));
        if (lo > 1) {
            ASSERT_FALSE(rig.core.seqInFlight(lo - 1));
        }
        if (lo > kRobRing) {
            ASSERT_FALSE(rig.core.seqInFlight(lo - kRobRing));
        }
        ASSERT_TRUE(rig.core.checkDependencyOrder());
    }
    ASSERT_TRUE(rig.core.finished());
    EXPECT_EQ(rig.core.committedOps(), ops.size());
    EXPECT_EQ(rig.core.nextSeq(), ops.size() + 1);
    EXPECT_GT(rig.core.nextSeq(), 20 * kRobRing);
}

TEST(OooCore, CheckpointAtUnalignedSeqResumesByteIdentical)
{
    // Drain and checkpoint mid-run, after the ROB ring has wrapped and
    // at a seq that is not a multiple of the ring size, then compare
    // the run that continues against a fresh core restored from the
    // checkpoint: the full core and hierarchy state at the end (stats,
    // activity, front end, seq counter) must be the same bytes.
    const std::vector<MicroOp> ops = randomMix(9, 4000);
    constexpr mem::Cycle kGateAt = 1500;

    CoreRig ref(ops);
    mem::Cycle now = 0;
    while (now < kGateAt)
        ref.core.tick(now++);
    ref.core.setDrainGate(true);
    while (!ref.core.quiescedForCheckpoint())
        ref.core.tick(now++);
    ASSERT_FALSE(ref.core.finished());
    const mem::Cycle resume_at = now;
    const uint64_t seq_at_ckpt = ref.core.nextSeq();
    ASSERT_GT(seq_at_ckpt, kRobRing);
    ASSERT_NE(seq_at_ckpt % kRobRing, 0u);

    Serializer ckpt;
    ref.hier.saveState(ckpt);
    ref.core.saveState(ckpt);

    ref.core.setDrainGate(false);
    while (!ref.core.finished() && now < 1000000)
        ref.core.tick(now++);
    ASSERT_TRUE(ref.core.finished());
    const mem::Cycle ref_end = now;

    CoreRig resumed(ops);
    Deserializer des(ckpt.data());
    resumed.hier.restoreState(des);
    resumed.core.restoreState(des);
    ASSERT_TRUE(des.ok()) << des.status().toString();
    EXPECT_EQ(resumed.core.nextSeq(), seq_at_ckpt);
    EXPECT_EQ(resumed.core.oldestSeq(), seq_at_ckpt);
    now = resume_at;
    while (!resumed.core.finished() && now < 1000000)
        resumed.core.tick(now++);
    ASSERT_TRUE(resumed.core.finished());
    EXPECT_EQ(now, ref_end);
    EXPECT_EQ(resumed.core.committedOps(), ops.size());

    Serializer end_ref, end_resumed;
    ref.hier.saveState(end_ref);
    ref.core.saveState(end_ref);
    resumed.hier.saveState(end_resumed);
    resumed.core.saveState(end_resumed);
    EXPECT_EQ(end_ref.data(), end_resumed.data());
}
