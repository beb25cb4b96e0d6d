#include "common/envelope.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/file.hh"
#include "common/logging.hh"

namespace hetsim
{

namespace
{

/** Temp-file sequence shared by every writer in the process, so two
 *  threads writing the same path never pick the same temp name. */
std::atomic<uint64_t> g_tempSeq{0};

/** Read the whole file into `out`. */
Status
readAll(int fd, std::string *out, const std::string &path)
{
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0)
        out->reserve(static_cast<size_t>(st.st_size));
    char buf[1 << 16];
    while (true) {
        const ssize_t r = ::read(fd, buf, sizeof(buf));
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return ioError("read failed", path, errno);
        }
        if (r == 0)
            return Status();
        out->append(buf, static_cast<size_t>(r));
    }
}

/** Best-effort fsync of the directory holding `path`, so a rename
 *  into it is itself durable. */
void
syncDirectoryOf(const std::string &path)
{
    const size_t slash = path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    FdHandle d(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
    if (d)
        ::fsync(d.get());
}

/** The header and checksum checks, over a whole file: nullptr when
 *  healthy, else the reason. */
const char *
envelopeProblem(const std::string &raw, const EnvelopeFormat &format,
                uint32_t trace_version, EnvelopeHeader *hdr)
{
    if (raw.size() < sizeof(*hdr))
        return "truncated header";
    std::memcpy(hdr, raw.data(), sizeof(*hdr));
    if (std::memcmp(hdr->magic, format.magic, sizeof(hdr->magic)))
        return "bad magic";
    if (hdr->schema != format.schema)
        return "schema version mismatch";
    if (hdr->traceVersion != trace_version)
        return "trace format version mismatch";
    const size_t body = raw.size() - sizeof(*hdr);
    if (hdr->keyLen > body || hdr->payloadLen != body - hdr->keyLen)
        return "size mismatch";
    if (fnv1a(raw.data() + sizeof(*hdr), hdr->keyLen) != hdr->keyFnv)
        return "key checksum mismatch";
    if (fnv1a(raw.data() + sizeof(*hdr) + hdr->keyLen,
              hdr->payloadLen) != hdr->payloadFnv)
        return "payload checksum mismatch";
    return nullptr;
}

} // namespace

uint64_t
fnv1a(const void *data, size_t n, uint64_t h)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

Result<Envelope>
readEnvelope(const std::string &path, const EnvelopeFormat &format,
             uint32_t trace_version)
{
    std::string raw;
    {
        FdHandle fd(::open(path.c_str(), O_RDONLY));
        if (!fd) {
            if (errno == ENOENT)
                return Status::error(ErrorCode::NotFound,
                                     "no file at %s", path.c_str());
            return ioError("open failed", path, errno);
        }
        const Status read = readAll(fd.get(), &raw, path);
        if (!read.ok())
            return read;
    }

    EnvelopeHeader hdr;
    if (const char *problem =
            envelopeProblem(raw, format, trace_version, &hdr))
        return Status::error(ErrorCode::CorruptRecord, "%s", problem);

    Envelope env;
    env.key = raw.substr(sizeof(hdr), hdr.keyLen);
    raw.erase(0, sizeof(hdr) + hdr.keyLen);
    env.payload = std::move(raw);
    return env;
}

Status
writeEnvelope(const std::string &path, const EnvelopeFormat &format,
              uint32_t trace_version, std::string_view key,
              std::initializer_list<std::string_view> payload,
              const std::string &rotate_to)
{
    EnvelopeHeader hdr;
    std::memcpy(hdr.magic, format.magic, sizeof(hdr.magic));
    hdr.schema = format.schema;
    hdr.traceVersion = trace_version;
    hdr.keyLen = static_cast<uint32_t>(key.size());
    hdr.payloadLen = 0;
    hdr.keyFnv = fnv1a(key);
    hdr.payloadFnv = kFnvOffsetBasis;
    for (std::string_view part : payload) {
        hdr.payloadLen += part.size();
        hdr.payloadFnv = fnv1a(part.data(), part.size(), hdr.payloadFnv);
    }

    char suffix[48];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%d.%llu",
                  static_cast<int>(::getpid()),
                  static_cast<unsigned long long>(++g_tempSeq));
    const std::string tmp = path + suffix;

    FdHandle fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL,
                       0644));
    if (!fd)
        return ioError("open failed", tmp, errno);

    Status s = writeAllFd(fd.get(), &hdr, sizeof(hdr), tmp);
    if (s.ok())
        s = writeAllFd(fd.get(), key.data(), key.size(), tmp);
    for (std::string_view part : payload)
        if (s.ok())
            s = writeAllFd(fd.get(), part.data(), part.size(), tmp);
    if (s.ok() && ::fsync(fd.get()) != 0)
        s = ioError("fsync failed", tmp, errno);
    fd.reset();
    if (!s.ok()) {
        ::unlink(tmp.c_str());
        return s;
    }

    // Nothing to rotate on a first write: ENOENT is fine.
    if (!rotate_to.empty())
        ::rename(path.c_str(), rotate_to.c_str());
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const Status rs = ioError("rename failed", path, errno);
        ::unlink(tmp.c_str());
        return rs;
    }
    syncDirectoryOf(path);
    return Status();
}

bool
quarantineFile(const std::string &path, const char *owner,
               const std::string &reason)
{
    const std::string side = path + ".quarantined";
    const bool moved = ::rename(path.c_str(), side.c_str()) == 0;
    // Sidelining failed (e.g. read-only media): unlink so the bad
    // bytes can at least never be read again.
    if (!moved)
        ::unlink(path.c_str());
    warn("%s: quarantined %s (%s)", owner, path.c_str(),
         reason.c_str());
    return moved;
}

} // namespace hetsim
