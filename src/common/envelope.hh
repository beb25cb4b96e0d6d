/**
 * @file
 * The one checksummed file envelope behind every durable artifact:
 * result-store entries and mid-run checkpoints.
 *
 * An envelope file is the packed 40-byte EnvelopeHeader, the key
 * bytes, then the payload bytes. Every header byte after the magic is
 * covered by a check: a family or version mismatch, a size that
 * disagrees with the file, or either checksum failing makes the whole
 * file untrusted.
 *
 * Writes are atomic: the bytes go to an O_EXCL temp file next to the
 * target ("<path>.tmp.<pid>.<seq>"), which is fsync'd and rename(2)'d
 * into place before the directory is fsync'd. A kill mid-write leaves
 * the previous file (or none), never a torn one; readers never open
 * temps, and `store gc` prunes orphans.
 */

#ifndef HETSIM_COMMON_ENVELOPE_HH
#define HETSIM_COMMON_ENVELOPE_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/status.hh"

namespace hetsim
{

/** FNV-1a 64 offset basis (the hash of zero bytes). */
constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/**
 * FNV-1a 64 over a byte range: every checksum, content-addressed file
 * name and report digest in the project. Pass a previous result as
 * `h` to hash a concatenation piecewise.
 */
uint64_t fnv1a(const void *data, size_t n, uint64_t h = kFnvOffsetBasis);

inline uint64_t
fnv1a(std::string_view bytes)
{
    return fnv1a(bytes.data(), bytes.size());
}

/** Magic and layout version of one envelope family. */
struct EnvelopeFormat
{
    char magic[4];
    uint32_t schema;
};

/** The fixed header in front of the key. */
#pragma pack(push, 1)
struct EnvelopeHeader
{
    char magic[4];         ///< Family: "HRS\n" store, "HCP\n" checkpoint.
    uint32_t schema;       ///< Family layout version.
    uint32_t traceVersion; ///< Trace-format fence.
    uint32_t keyLen;       ///< Key bytes after the header.
    uint64_t payloadLen;   ///< Payload bytes after the key.
    uint64_t keyFnv;       ///< fnv1a(key).
    uint64_t payloadFnv;   ///< fnv1a(payload).
};
#pragma pack(pop)

static_assert(sizeof(EnvelopeHeader) == 40,
              "the envelope header is part of the on-disk format");

/** A verified envelope's contents. */
struct Envelope
{
    std::string key;
    std::string payload;
};

/**
 * Read and verify the envelope at `path`. Errors: NotFound when the
 * file does not exist, IoError when it cannot be read, CorruptRecord
 * (the message is the reason) when any header or checksum check
 * fails. Whether the key is the one the caller wanted is the
 * caller's question.
 */
Result<Envelope> readEnvelope(const std::string &path,
                              const EnvelopeFormat &format,
                              uint32_t trace_version);

/**
 * Atomically write an envelope whose payload is the concatenation of
 * `payload` (pieces are checksummed and written in order, never
 * joined in memory). With `rotate_to` set, the file currently at
 * `path` is renamed there after the new bytes are durable and before
 * they are installed, so a kill between the two renames still leaves
 * the last completed file readable.
 */
Status writeEnvelope(const std::string &path,
                     const EnvelopeFormat &format,
                     uint32_t trace_version, std::string_view key,
                     std::initializer_list<std::string_view> payload,
                     const std::string &rotate_to = "");

/**
 * Move a file that failed verification to "<path>.quarantined" so it
 * is never read again, and warn "<owner>: quarantined <path>
 * (<reason>)". When the rename fails the file is unlinked instead.
 * @return true when the file was moved aside (not unlinked).
 */
bool quarantineFile(const std::string &path, const char *owner,
                    const std::string &reason);

} // namespace hetsim

#endif // HETSIM_COMMON_ENVELOPE_HH
