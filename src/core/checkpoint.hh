/**
 * @file
 * Versioned, checksummed, atomically-rotated checkpoint files.
 *
 * A checkpoint is one checksummed envelope (common/envelope.hh, magic
 * "HCP\n") holding an identity key and a payload: the 8-byte quiesce
 * cycle followed by the Serializer section stream the simulators
 * produce at that quiesce point. The cycle is inside the payload
 * checksum, so a damaged cycle is caught like any other damage.
 *
 * Durability and trust model are the result store's: writes are
 * atomic, and a file failing any envelope check is *quarantined*
 * (renamed to "<file>.quarantined") before a single payload byte is
 * interpreted, and never restored from. On top of that:
 *
 *  - Rotation: before the rename, the current checkpoint (if any) is
 *    rotated to "<path>.prev". A reader that finds the primary file
 *    corrupt falls back to the rotated one, so a torn rotation or a
 *    bit-flipped primary costs one checkpoint interval, not the run.
 *  - Identity fencing: the stored key names the exact run (config,
 *    workload, seed, scale, flags). A healthy checkpoint for a
 *    different run is refused — reported as NotFound so the caller
 *    cold-starts — but not quarantined (the bytes are not corrupt).
 *
 * The hard invariant the callers maintain on top of this file format:
 * with a fixed `--checkpoint-every N`, checkpoint cycles are a pure
 * function of the simulated machine, so a run SIGKILL'd anywhere and
 * restored from its last checkpoint emits a report byte-identical to
 * the same invocation run uninterrupted.
 */

#ifndef HETSIM_CORE_CHECKPOINT_HH
#define HETSIM_CORE_CHECKPOINT_HH

#include <cstdint>
#include <string>

#include "common/status.hh"
#include "workload/trace_file.hh"

namespace hetsim::core
{

/** Bump when the checkpoint layout (header or any component section)
 *  changes; older files are quarantined, never reinterpreted.
 *  v2: sync-controller section + core barrier/sync park fields.
 *  v3: the shared envelope header; the quiesce cycle moved from the
 *  header into a checksummed payload prefix. */
constexpr uint32_t kCheckpointSchemaVersion = 3;

/** Canonical checkpoint filename extension. */
constexpr const char *kCheckpointSuffix = ".hckp";

/** Suffix of the rotated previous checkpoint. */
constexpr const char *kCheckpointPrevSuffix = ".prev";

/** A verified checkpoint read back from disk. */
struct LoadedCheckpoint
{
    std::string key;     ///< Stored run-identity key.
    std::string payload; ///< Serializer section stream.
    uint64_t cycle = 0;  ///< Quiesce cycle (checksummed prefix).
    std::string path;    ///< File it was loaded from (primary/.prev).
};

/** Durably write a checkpoint, rotating the current file to .prev
 *  just before the new one is installed. */
Status saveCheckpoint(const std::string &path, const std::string &key,
                      uint64_t cycle, const std::string &payload,
                      uint32_t trace_version =
                          workload::kTraceVersion);

/**
 * Read and fully verify one checkpoint file (no fallback). Corrupt,
 * truncated, or version-fenced files are quarantined and reported as
 * NotFound; a healthy file whose key differs from `expect_key` is
 * refused (NotFound) but left in place.
 */
Result<LoadedCheckpoint>
loadCheckpointFile(const std::string &path,
                   const std::string &expect_key,
                   uint32_t trace_version = workload::kTraceVersion);

/**
 * Load `path`, falling back to `path + ".prev"` when the primary is
 * missing or fails verification. NotFound when neither yields a
 * verified checkpoint for this key — the caller cold-starts.
 */
Result<LoadedCheckpoint>
loadCheckpoint(const std::string &path, const std::string &expect_key,
               uint32_t trace_version = workload::kTraceVersion);

/**
 * Report-only verification of one checkpoint file: magic, schema,
 * trace version, sizes, and both checksums — exactly the checks a
 * load performs — without quarantining, renaming, or key-fencing the
 * file (any run identity is accepted, and the bytes are never
 * touched, so verifying cannot race the run that owns the
 * checkpoint). ok() when a load with the right key would restore
 * from these bytes; InvalidArgument with the failure reason
 * otherwise; NotFound when the file is absent.
 */
Status verifyCheckpointFile(const std::string &path,
                            uint32_t trace_version =
                                workload::kTraceVersion);

/** Remove a run's checkpoint files (primary + .prev); used once a
 *  run completes so a finished run never resumes from stale state. */
void removeCheckpoint(const std::string &path);

} // namespace hetsim::core

#endif // HETSIM_CORE_CHECKPOINT_HH
