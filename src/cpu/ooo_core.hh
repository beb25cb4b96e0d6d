/**
 * @file
 * Trace-driven, cycle-level out-of-order core (Table III).
 *
 * The core consumes MicroOps from a TraceSource and imposes the timing
 * of a 4-wide out-of-order machine: fetch through an IL1 with a
 * tournament predictor, register renaming against finite INT/FP
 * register files, a 160-entry ROB, 64-entry issue queue, 48-entry LSQ,
 * the FuncUnitPool execution resources, store-to-load forwarding, and
 * in-order commit. Mispredicted branches block fetch until they
 * execute plus a front-end refill penalty (wrong-path work is not
 * simulated, the standard trace-driven approximation).
 *
 * HetCore hooks: per-unit latencies come from FuPoolParams and the
 * memory hierarchy latencies (so TFET configs simply deepen them), and
 * the AdvHet dual-speed ALU steering runs at dispatch (Section IV-C2):
 * an ALU op whose consumer appears within the next issue-width ops in
 * the dispatch buffer is steered to the CMOS ALU.
 */

#ifndef HETSIM_CPU_OOO_CORE_HH
#define HETSIM_CPU_OOO_CORE_HH

#include <cstdint>
#include <vector>

#include "common/ring_buffer.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "cpu/branch_pred.hh"
#include "cpu/func_unit.hh"
#include "cpu/microop.hh"
#include "mem/hierarchy.hh"
#include "power/accountant.hh"

namespace hetsim::cpu
{

class SyncController;

/** Full configuration of one core. */
struct CoreParams
{
    uint32_t fetchWidth = 4;
    uint32_t issueWidth = 4;
    uint32_t commitWidth = 4;
    uint32_t robSize = 160;
    uint32_t iqSize = 64;
    /** Scheduler select reach: only the oldest `issueReach` waiting
     *  ops are select candidates each cycle (real wakeup/select
     *  networks do not scan the whole queue). */
    uint32_t issueReach = 16;
    uint32_t lsqSize = 48;
    uint32_t intRegs = 128; ///< Physical integer registers.
    uint32_t fpRegs = 80;   ///< Physical FP registers.
    uint32_t frontendDepth = 6; ///< Redirect/refill penalty (cycles).
    FuPoolParams fu;
    BranchPredParams bp;
    /** AdvHet: steer producer ops with nearby consumers to the CMOS
     *  ALU at dispatch. */
    bool steerDependents = false;
    /** Wakeup-driven select: cache the earliest wakeup in the select
     *  window and skip the issue scan until it is due. False runs the
     *  reference scheduler (full window scan every cycle); the runner
     *  clears this under --no-skip so that path reproduces the plain
     *  per-cycle loop the bit-identity check compares against. Either
     *  setting issues the same ops on the same cycles. */
    bool wakeupIssue = true;
};

/** One core of the simulated multicore. */
class OooCore
{
  public:
    OooCore(const CoreParams &params, uint32_t core_id,
            mem::MemHierarchy *hierarchy, TraceSource *trace);

    /** Advance one cycle. Returns true if the tick moved work between
     *  pipeline structures (a progress hint the chip runner uses to
     *  decide when computing the event horizon is worthwhile). */
    bool tick(mem::Cycle now);

    /**
     * Event horizon: the earliest cycle >= `from` at which this core
     * can change architectural or counted state, assuming it is not
     * ticked before then. mem::kNoEvent means the core will never act
     * again on its own (finished, or parked at a barrier waiting for
     * an external release). The bound is exact for the counted stall
     * signature: every cycle in [from, nextEventCycle()) would be a
     * pure stall tick whose only effects are reproduced by
     * creditStalledTicks(), which is what makes event-horizon skipping
     * bit-identical to per-cycle ticking.
     */
    mem::Cycle nextEventCycle(mem::Cycle from) const;

    /**
     * Account `n` skipped stall ticks: the tick counter, occupancy
     * integrals, and the one dispatch-stall counter a real tick()
     * would have bumped (state is frozen across a skipped range, so
     * every skipped tick bumps the same counter).
     */
    void creditStalledTicks(uint64_t n);

    /** Live occupancies, sampled by tick(); exposed so tests can
     *  replay the per-cycle walk against the incremental counters. @{ */
    size_t robOccupancy() const { return rob_.size(); }
    size_t iqOccupancy() const { return iq_.size(); }
    size_t lsqOccupancy() const { return lsqCount_; }
    /** @} */

    /** In-flight sequence-number window, exposed for tests: seq s is
     *  in flight iff oldestSeq() <= s < nextSeq(). @{ */
    uint64_t oldestSeq() const { return rob_.headPos(); }
    uint64_t nextSeq() const { return rob_.tailPos(); }
    bool
    seqInFlight(uint64_t seq) const
    {
        return entryBySeq(seq) != nullptr;
    }
    /** @} */

    /** Trace fully consumed and pipeline drained. */
    bool finished() const;

    /**
     * Checkpoint drain gate: while set, fetch stops pulling new ops
     * from the trace (without marking it done), so the in-flight
     * window drains and the core converges to a quiesce point. The
     * gate does not disturb ops already fetched.
     */
    void setDrainGate(bool gated) { drainGated_ = gated; }

    /**
     * Quiesced for checkpointing: nothing in flight past the fetch
     * queue. ROB-empty implies IQ/LSQ/store-queue empty (every entry
     * there references a ROB slot), so the un-serialized structures
     * are all at their reset state. Holds for finished cores, cores
     * parked at a barrier, and drain-gated cores that ran dry.
     */
    bool quiescedForCheckpoint() const
    {
        return finished() || rob_.empty();
    }

    /**
     * Serialize resumable state at a quiesce point: predictor and FU
     * pool, the fetch front end (including queued/staged ops), the
     * trace cursor, activity counts, and stats. Asserts quiescence.
     */
    void saveState(Serializer &ser) const;

    /**
     * Restore into a freshly constructed core whose TraceSource is a
     * fresh instance of the same seeded generator: the cursor is
     * re-sought by discarding the ops consumed before the checkpoint.
     */
    void restoreState(Deserializer &des);

    /** Stalled at a barrier micro-op waiting for release. */
    bool waitingAtBarrier() const { return atBarrier_; }

    /** Cycle this core parked at its current barrier (valid while
     *  waitingAtBarrier(); the runner samples the wait time). */
    mem::Cycle barrierParkedAt() const { return barrierParkedAt_; }

    /** Release a barrier (called by the multicore runner). */
    void releaseBarrier();

    /** Parked on a sync micro-op awaiting the SyncController. */
    bool parkedAtSync() const { return atSync_; }

    /** Install the chip's sync controller. Must be set before the
     *  trace delivers any lock/event micro-op. */
    void setSyncController(SyncController *sync) { sync_ = sync; }

    uint64_t committedOps() const { return committedOps_; }

    /** Per-unit activity counts for the energy model (core units
     *  only; cache counts are collected from the hierarchy). */
    const power::CpuActivity &activity() const { return activity_; }

    BranchPredictor &branchPredictor() { return bpred_; }
    FuncUnitPool &fuPool() { return fuPool_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Start recording pipeline events into `buf` (null detaches). */
    void attachTrace(obs::TraceBuffer *buf) { traceBuf_ = buf; }

    /** Invariant checks for property tests. @{ */
    /** All in-flight producer seqs referenced by waiting ops are older
     *  than the referencing op. */
    bool checkDependencyOrder() const;
    /** IQ/LSQ occupancy within configured bounds. */
    bool checkOccupancyBounds() const;
    /** @} */

  private:
    /** One ROB slot. Its sequence number is its ring position (see
     *  rob_), so the entry does not store it. */
    struct RobEntry
    {
        MicroOp op;
        uint64_t dep1 = 0;     ///< Producer seq of src1 (0 = ready).
        uint64_t dep2 = 0;
        uint64_t storeDep = 0; ///< Older overlapping store (loads).
        mem::Cycle doneCycle = 0;
        bool issued = false;
        bool mispredicted = false;
        bool preferFast = false;
        /** Load fully contained in the storeDep store: LSQ can
         *  forward. Partial overlap waits for the store, then goes to
         *  memory. */
        bool forwardable = false;
    };

    /** First resource a dispatch attempt would block on (the counter
     *  the blocked tick bumps), Progress if the front op dispatches,
     *  NoWork if there is nothing to dispatch. */
    enum class DispatchGate
    {
        Progress,
        NoWork,
        BarrierDrain,
        SyncDrain,
        RobFull,
        IqFull,
        LsqFull,
        IntRf,
        FpRf,
    };

    void fetch(mem::Cycle now);
    void dispatch(mem::Cycle now);
    void issue(mem::Cycle now);
    void commit(mem::Cycle now);

    /** The in-flight entry of `seq`, or null once it has committed
     *  (or before it dispatches). */
    RobEntry *
    entryBySeq(uint64_t seq)
    {
        return rob_.holds(seq) ? &rob_.atPos(seq) : nullptr;
    }
    const RobEntry *
    entryBySeq(uint64_t seq) const
    {
        return rob_.holds(seq) ? &rob_.atPos(seq) : nullptr;
    }
    void countRegAccess(const MicroOp &op);
    DispatchGate dispatchGate() const;

    CoreParams params_;
    uint32_t coreId_;
    mem::MemHierarchy *hier_;
    TraceSource *trace_;

    BranchPredictor bpred_;
    FuncUnitPool fuPool_;

    struct FetchedOp
    {
        MicroOp op;
        bool mispredicted = false;
    };

    // Front end.
    /** Fetched ops awaiting dispatch. An op pulled from the trace is
     *  written straight into the queue's tail slot and stays there,
     *  staged, until fetch accepts it (pushBack), so it is copied
     *  once on its way to the ROB. */
    RingBuffer<FetchedOp> fetchQueue_;
    bool haveStaged_ = false;  ///< fetchQueue_.tailSlot() holds an op
                               ///< pulled from the trace, not yet
                               ///< accepted into the queue.
    bool fetchBlocked_ = false;   ///< Waiting on a mispredicted branch.
    mem::Cycle fetchResumeAt_ = 0; ///< 0 = blocking branch not issued.
    mem::Cycle fetchStallUntil_ = 0; ///< IL1 miss stall.
    uint64_t lastFetchLine_ = ~0ull;
    bool traceDone_ = false;
    bool drainGated_ = false;    ///< Checkpoint drain: no trace pulls.
    uint64_t traceConsumed_ = 0; ///< Successful trace_->next() calls.

    // Back end.
    /** Reorder buffer. Ring positions are sequence numbers: the ring
     *  starts at seq 1 (0 means "no producer"), headPos() is the
     *  oldest in-flight seq and tailPos() the next seq to dispatch,
     *  so a seq is in flight iff headPos() <= seq < tailPos() and
     *  lives in slot seq & mask (capacity: robSize rounded up to a
     *  power of two). */
    RingBuffer<RobEntry> rob_;
    std::vector<uint64_t> iq_; ///< Seqs waiting to issue, program order.
    std::vector<uint64_t> scoreboard_; ///< Logical reg -> producer seq.
    uint32_t freeIntRegs_;
    uint32_t freeFpRegs_;
    uint32_t lsqCount_ = 0;
    bool atBarrier_ = false;
    mem::Cycle barrierParkedAt_ = 0;
    /** Parked on a sync micro-op; the SyncController decides when the
     *  core resumes (tick() polls tryUnpark). */
    bool atSync_ = false;
    SyncController *sync_ = nullptr;

    /** Wakeup-driven select state: the earliest cycle any entry in the
     *  select window (oldest issueReach IQ slots) can issue, or
     *  mem::kNoEvent when nothing is pending. issue() skips its scan
     *  entirely while now < iqNextReady_ and no dispatch has refilled
     *  the window since the last scan. @{ */
    mem::Cycle iqNextReady_ = mem::kNoEvent;
    bool issueScanNeeded_ = false;
    /** @} */

    struct StoreRec
    {
        uint64_t seq;
        uint64_t addr; ///< First byte written.
        uint8_t size;  ///< Bytes written.
    };
    RingBuffer<StoreRec> storeQueue_; ///< Bounded by lsqSize.

    uint64_t committedOps_ = 0;
    power::CpuActivity activity_{};
    StatGroup stats_;

    /** Per-event counters, resolved once at construction so the hot
     *  loop never does a string-keyed map lookup (StatGroup references
     *  are stable for the group's lifetime). */
    struct CoreCounters
    {
        explicit CoreCounters(StatGroup &sg);
        Counter &il1MissStalls;
        Counter &mispredictBlocks;
        Counter &barrierDrainStalls;
        Counter &barriers;
        Counter &syncDrainStalls;
        Counter &syncOps;
        Counter &robFullStalls;
        Counter &iqFullStalls;
        Counter &lsqFullStalls;
        Counter &intRfStalls;
        Counter &fpRfStalls;
        Counter &steeredFast;
        Counter &forwardedLoads;
        Counter &partialForwardReplays;
        Counter &mispredictRedirects;
        /** Incremental occupancy integrals (summed structure sizes at
         *  the start of each ticked or credited cycle): mean occupancy
         *  = *_occ_cycles / ticks, without any per-cycle ROB walk. */
        Counter &ticks;
        Counter &robOccCycles;
        Counter &iqOccCycles;
        Counter &lsqOccCycles;
    };
    CoreCounters ctrs_;
    obs::TraceBuffer *traceBuf_ = nullptr;
};

} // namespace hetsim::cpu

#endif // HETSIM_CPU_OOO_CORE_HH
