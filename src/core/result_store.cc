#include "core/result_store.hh"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/file.hh"
#include "core/checkpoint.hh"

namespace hetsim::core
{

namespace
{

/** Store entries: "HRS\n", store schema. */
constexpr EnvelopeFormat kStoreFormat = {{'H', 'R', 'S', '\n'},
                                         ResultStore::kSchemaVersion};

/** True when `name` ends with `suffix`. */
bool
endsWith(const std::string &name, const std::string &suffix)
{
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

} // namespace

Status
makeDirectories(const std::string &dir)
{
    if (dir.empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "empty store directory");
    std::string partial;
    size_t start = 0;
    while (start <= dir.size()) {
        const size_t slash = dir.find('/', start);
        const size_t end =
            slash == std::string::npos ? dir.size() : slash;
        partial = dir.substr(0, end);
        start = end + 1;
        if (partial.empty()) // Leading '/' of an absolute path.
            continue;
        if (::mkdir(partial.c_str(), 0755) == 0 || errno == EEXIST)
            continue;
        return ioError("mkdir failed", partial, errno);
    }
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0)
        return ioError("stat failed", dir, errno);
    if (!S_ISDIR(st.st_mode))
        return Status::error(ErrorCode::InvalidArgument,
                             "store path is not a directory: %s",
                             dir.c_str());
    return Status();
}

Result<ResultStore>
ResultStore::open(const std::string &dir, uint32_t trace_version)
{
    const Status made = makeDirectories(dir);
    if (!made.ok())
        return made;
    return ResultStore(dir, trace_version);
}

std::string
ResultStore::entryPath(const std::string &key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx",
                  static_cast<unsigned long long>(fnv1a(key)));
    return dir_ + "/" + name + kEntrySuffix;
}

Result<std::string>
ResultStore::get(const std::string &key)
{
    const std::string path = entryPath(key);
    Result<Envelope> entry = readEnvelope(path, kStoreFormat,
                                          traceVersion_);
    if (!entry.ok()) {
        ++stats_->misses;
        switch (entry.status().code()) {
          case ErrorCode::NotFound:
            return Status::error(ErrorCode::NotFound,
                                 "store miss for key '%s'",
                                 key.c_str());
          case ErrorCode::CorruptRecord:
            quarantineFile(path, "result store",
                           entry.status().message());
            ++stats_->quarantined;
            return Status::error(ErrorCode::NotFound,
                                 "store entry quarantined: %s",
                                 entry.status().message().c_str());
          default:
            return entry.status();
        }
    }

    // Verified but for a different key: an FNV filename collision.
    // Not corruption — the other key's entry is healthy — so it is a
    // plain miss (this key simply cannot be stored here).
    if (entry->key != key) {
        ++stats_->misses;
        return Status::error(ErrorCode::NotFound,
                             "store key collision for '%s'",
                             key.c_str());
    }

    ++stats_->hits;
    return std::move(entry->payload);
}

Status
ResultStore::put(const std::string &key, const std::string &payload)
{
    const Status s = writeEnvelope(entryPath(key), kStoreFormat,
                                   traceVersion_, key, {payload});
    if (s.ok())
        ++stats_->puts;
    return s;
}

Result<StoreFsckReport>
fsckStore(const std::string &dir, uint32_t trace_version, bool prune)
{
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return ioError("opendir failed", dir, errno);

    // Sorted for deterministic note order (readdir order is not).
    std::vector<std::string> names;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name != "." && name != "..")
            names.push_back(name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());

    StoreFsckReport rep;
    auto prune_file = [&](const std::string &path) {
        if (!prune)
            return;
        if (::unlink(path.c_str()) == 0)
            ++rep.pruned;
        else
            rep.notes.push_back("cannot remove " + path + ": " +
                                std::strerror(errno));
    };

    for (const std::string &name : names) {
        const std::string path = dir + "/" + name;
        // Orphaned O_EXCL temps: a put()/saveCheckpoint() killed
        // between open and rename. Readers never open them; gc may.
        if (name.find(".tmp.") != std::string::npos) {
            ++rep.orphanTemps;
            rep.notes.push_back("orphan temp file: " + path);
            prune_file(path);
            continue;
        }
        if (endsWith(name, ".quarantined")) {
            ++rep.quarantined;
            rep.notes.push_back("quarantined: " + path);
            prune_file(path);
            continue;
        }
        // Live mid-run checkpoints (and their rotated previous):
        // resumable state, verified report-only and deliberately
        // left alone — never renamed or pruned, even when corrupt
        // (the owning run quarantines on load; gc must not race it).
        if (endsWith(name, ".hckp") || endsWith(name, ".prev")) {
            ++rep.checkpoints;
            const Status v = verifyCheckpointFile(path,
                                                  trace_version);
            if (v.ok()) {
                ++rep.okCheckpoints;
            } else {
                ++rep.corruptCheckpoints;
                rep.notes.push_back("corrupt checkpoint (" +
                                    v.message() + "): " + path +
                                    " (left in place)");
            }
            continue;
        }
        if (!endsWith(name, ResultStore::kEntrySuffix))
            continue;

        const Result<Envelope> entry =
            readEnvelope(path, kStoreFormat, trace_version);
        if (entry.ok()) {
            ++rep.okEntries;
            continue;
        }
        if (entry.status().code() != ErrorCode::CorruptRecord) {
            rep.notes.push_back(entry.status().toString());
            continue;
        }
        const std::string &problem = entry.status().message();
        ++rep.corruptEntries;
        rep.notes.push_back("corrupt entry (" + problem + "): " + path);
        if (quarantineFile(path, "store fsck", problem)) {
            ++rep.quarantined;
            prune_file(path + ".quarantined");
        } else {
            rep.notes.push_back("quarantine rename failed; unlinked " +
                                path);
        }
    }
    return rep;
}

ResultStore::Counters
ResultStore::counters() const
{
    Counters c;
    c.hits = stats_->hits.load();
    c.misses = stats_->misses.load();
    c.quarantined = stats_->quarantined.load();
    c.puts = stats_->puts.load();
    return c;
}

} // namespace hetsim::core
