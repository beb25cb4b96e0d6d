#include "core/checkpoint.hh"

#include <unistd.h>

#include <cstring>

#include "common/envelope.hh"
#include "common/logging.hh"

namespace hetsim::core
{

namespace
{

/** Checkpoints: "HCP\n", checkpoint schema. */
constexpr EnvelopeFormat kCheckpointFormat = {{'H', 'C', 'P', '\n'},
                                              kCheckpointSchemaVersion};

/** Read and verify one checkpoint file and split the quiesce-cycle
 *  prefix off its payload. Errors as readEnvelope(). */
Result<LoadedCheckpoint>
readCheckpoint(const std::string &path, uint32_t trace_version)
{
    Result<Envelope> env =
        readEnvelope(path, kCheckpointFormat, trace_version);
    if (!env.ok())
        return env.status();
    LoadedCheckpoint out;
    if (env->payload.size() < sizeof(out.cycle))
        return Status::error(ErrorCode::CorruptRecord,
                             "missing quiesce cycle");
    std::memcpy(&out.cycle, env->payload.data(), sizeof(out.cycle));
    out.key = std::move(env->key);
    out.payload = std::move(env->payload);
    out.payload.erase(0, sizeof(out.cycle));
    out.path = path;
    return out;
}

} // namespace

Status
saveCheckpoint(const std::string &path, const std::string &key,
               uint64_t cycle, const std::string &payload,
               uint32_t trace_version)
{
    const std::string_view cycle_bytes(
        reinterpret_cast<const char *>(&cycle), sizeof(cycle));
    return writeEnvelope(path, kCheckpointFormat, trace_version, key,
                         {cycle_bytes, payload},
                         path + kCheckpointPrevSuffix);
}

Result<LoadedCheckpoint>
loadCheckpointFile(const std::string &path,
                   const std::string &expect_key,
                   uint32_t trace_version)
{
    Result<LoadedCheckpoint> got = readCheckpoint(path, trace_version);
    if (!got.ok()) {
        if (got.status().code() != ErrorCode::CorruptRecord)
            return got;
        quarantineFile(path, "checkpoint", got.status().message());
        return Status::error(ErrorCode::NotFound,
                             "checkpoint quarantined: %s",
                             got.status().message().c_str());
    }

    // Healthy bytes for a different run: refuse but do not
    // quarantine — restoring another run's machine state would be
    // silent corruption of results.
    if (got->key != expect_key)
        return Status::error(ErrorCode::NotFound,
                             "checkpoint at %s belongs to a "
                             "different run", path.c_str());
    return got;
}

Result<LoadedCheckpoint>
loadCheckpoint(const std::string &path, const std::string &expect_key,
               uint32_t trace_version)
{
    Result<LoadedCheckpoint> primary =
        loadCheckpointFile(path, expect_key, trace_version);
    if (primary.ok())
        return primary;
    Result<LoadedCheckpoint> prev = loadCheckpointFile(
        path + kCheckpointPrevSuffix, expect_key, trace_version);
    if (prev.ok()) {
        warn("checkpoint: primary unusable (%s); restored from %s",
             primary.status().message().c_str(),
             prev->path.c_str());
        return prev;
    }
    return Status::error(ErrorCode::NotFound,
                         "no restorable checkpoint at %s (%s; "
                         "fallback: %s)", path.c_str(),
                         primary.status().message().c_str(),
                         prev.status().message().c_str());
}

Status
verifyCheckpointFile(const std::string &path, uint32_t trace_version)
{
    const Result<LoadedCheckpoint> got =
        readCheckpoint(path, trace_version);
    if (got.ok())
        return Status();
    if (got.status().code() != ErrorCode::CorruptRecord)
        return got.status();
    return Status::error(ErrorCode::InvalidArgument, "%s",
                         got.status().message().c_str());
}

void
removeCheckpoint(const std::string &path)
{
    ::unlink(path.c_str());
    ::unlink((path + kCheckpointPrevSuffix).c_str());
}

} // namespace hetsim::core
