/**
 * @file
 * ResultCache disk persistence + the model fingerprint.
 *
 * The cache file is versioned JSON: a fingerprint of the simulated
 * model and one entry per memoized scenario, keyed on the canonical
 * scenarioKey().  The result/stats record bodies are the wire
 * fragments of tool/schema.hh, so the cache format follows their
 * field lists.  Loading trusts entries only under an exact
 * fingerprint match; anything else (stale fingerprint, corrupt or
 * truncated file, missing file, bad version) loads nothing and
 * reports false without raising — a persistent cache must never be
 * able to fail a run, only to stop accelerating it.  Saving is
 * atomic (sibling temp file + rename) and concurrent-writer safe:
 * each save load-merge-saves under a sibling ".lock" flock, so two
 * processes persisting to one path union their entries instead of
 * the last writer dropping the first writer's work.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <unordered_map>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "campaign.hh"
#include "core/catalog.hh"
#include "tool/jsonio.hh"
#include "tool/report.hh"
#include "tool/report_io.hh"
#include "tool/schema.hh"

namespace specsec::campaign
{

namespace
{

/// Bump on deliberate semantic model changes that keep every
/// config/result struct byte-identical (see modelFingerprint()).
constexpr unsigned kModelVersion = 1;

bool
loadFail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/**
 * Holds flock(LOCK_EX) on @p path's sibling ".lock" file for its
 * lifetime.  The lock file itself is created once and never
 * unlinked (removing it would race a waiter locking the dead
 * inode); it is zero bytes of permanent scaffolding next to the
 * cache.  Lock failure degrades to lockless operation — like
 * every other cache-persistence failure, contention may cost
 * entries but can never fail a run — but it is *reported*, not
 * swallowed: locked()/error() tell the caller the merge-union
 * guarantee is gone for this save so it can warn the user.
 */
class FileLock
{
  public:
    explicit FileLock(const std::string &path)
        : fd_(::open((path + ".lock").c_str(),
                     O_CREAT | O_RDWR | O_CLOEXEC, 0644))
    {
        if (fd_ < 0) {
            error_ = "cannot create " + path +
                     ".lock: " + std::strerror(errno);
            return;
        }
        if (::flock(fd_, LOCK_EX) != 0) {
            error_ = "cannot flock " + path +
                     ".lock: " + std::strerror(errno);
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~FileLock()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }
    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    bool locked() const { return fd_ >= 0; }
    const std::string &error() const { return error_; }

  private:
    int fd_ = -1;
    std::string error_;
};

/**
 * The parsing core shared by loadFromFile and the save-side
 * merge: validate @p text as a cache file written under
 * @p fingerprint and append its entries to @p loaded.  All-or-
 * nothing — any failure leaves @p loaded untouched.
 */
bool
parseCacheFile(const std::string &text,
               const std::string &fingerprint,
               std::vector<std::pair<std::string,
                                     ResultCache::Entry>> &loaded,
               std::string *error)
{
    tool::json::Cursor cur(text);
    unsigned version = 0;
    bool fingerprintOk = false;
    std::vector<std::pair<std::string, ResultCache::Entry>> parsed;

    if (!cur.expect('{'))
        return loadFail(error, cur.error());
    do {
        const std::string key = cur.parseString();
        if (cur.failed() || !cur.expect(':'))
            return loadFail(error, cur.error());
        if (key == "version") {
            version = cur.parseUnsigned();
            if (version != tool::kReportIoVersion)
                return loadFail(error,
                                "unsupported cache version");
        } else if (key == "fingerprint") {
            const std::string found = cur.parseString();
            if (found != fingerprint)
                return loadFail(
                    error,
                    "stale fingerprint (model changed); "
                    "ignoring cache");
            fingerprintOk = true;
        } else if (key == "entries") {
            if (!fingerprintOk || version == 0)
                return loadFail(error,
                                "entries before fingerprint/"
                                "version; ignoring cache");
            if (!cur.expect('['))
                return loadFail(error, cur.error());
            if (!cur.peekConsume(']')) {
                do {
                    std::string entry_key;
                    ResultCache::Entry entry;
                    if (!cur.expect('{'))
                        return loadFail(error, cur.error());
                    do {
                        const std::string field =
                            cur.parseString();
                        if (cur.failed() || !cur.expect(':'))
                            return loadFail(error, cur.error());
                        if (field == "key")
                            entry_key = cur.parseString();
                        else if (field == "result") {
                            if (!tool::parseAttackResultJson(
                                    cur, entry.result))
                                return loadFail(error,
                                                cur.error());
                        } else if (field == "stats") {
                            if (!tool::parseCpuStatsJson(
                                    cur, entry.stats))
                                return loadFail(error,
                                                cur.error());
                        } else
                            return loadFail(
                                error,
                                "unknown cache entry key '" +
                                    field + "'");
                    } while (!cur.failed() &&
                             cur.peekConsume(','));
                    if (!cur.expect('}'))
                        return loadFail(error, cur.error());
                    if (entry_key.empty())
                        return loadFail(error,
                                        "cache entry without key");
                    parsed.emplace_back(std::move(entry_key),
                                        std::move(entry));
                } while (!cur.failed() && cur.peekConsume(','));
                if (!cur.expect(']'))
                    return loadFail(error, cur.error());
            }
        } else {
            return loadFail(error,
                            "unknown cache key '" + key + "'");
        }
    } while (!cur.failed() && cur.peekConsume(','));
    if (cur.failed() || !cur.expect('}') || !cur.atEnd())
        return loadFail(error, cur.error().empty()
                                   ? "trailing content"
                                   : cur.error());
    if (version == 0 || !fingerprintOk)
        return loadFail(error, "cache missing version/fingerprint");
    for (auto &kv : parsed)
        loaded.push_back(std::move(kv));
    return true;
}

} // namespace

std::string
modelFingerprint()
{
    // The canonical key of a default-configured scenario serializes
    // every CpuConfig/AttackOptions field, so both struct *shape*
    // changes (via the sizeofs) and *default-value* changes (via
    // the key) invalidate persisted caches automatically.
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "specsec-model-v%u;cfg%zu;opt%zu;res%zu;stat%zu;",
                  kModelVersion, sizeof(CpuConfig),
                  sizeof(AttackOptions), sizeof(AttackResult),
                  sizeof(CpuStats));
    std::string fingerprint =
        buf + scenarioKey(core::AttackVariant::SpectreV1,
                          CpuConfig{}, AttackOptions{});
    // Extension attacks are keyed on catalog-assigned synthetic
    // slots, and slot assignment follows registration order — which
    // another binary (or a rebuild reordering static registrars) is
    // free to change.  Pinning each slot -> name binding into the
    // fingerprint makes a cache written under a different extension
    // set load nothing instead of silently replaying one extension's
    // results as another's.  Two binaries share caches exactly when
    // they register the same extensions in the same order (every
    // binary carries at least the built-in composed v2xFPU entry);
    // a binary registering more, like custom_attack, keeps its own.
    for (const core::AttackDescriptor *d :
         core::ScenarioCatalog::instance().attacks()) {
        if (!d->isExtension())
            continue;
        fingerprint += "ext";
        fingerprint += std::to_string(static_cast<unsigned>(d->id));
        fingerprint += "=";
        fingerprint += d->name;
        fingerprint += ";";
    }
    return fingerprint;
}

bool
ResultCache::loadFromFile(const std::string &path,
                          const std::string &fingerprint,
                          std::string *error)
{
    std::string text;
    if (!tool::readTextFile(path, text))
        return loadFail(error, "cannot read " + path);

    std::vector<std::pair<std::string, Entry>> loaded;
    if (!parseCacheFile(text, fingerprint, loaded, error))
        return false;

    // Only a fully validated file mutates the cache: a truncated
    // tail can't leave half a file's entries behind.
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &kv : loaded)
        entries_.emplace(std::move(kv.first),
                         std::move(kv.second));
    return true;
}

bool
ResultCache::saveToFile(const std::string &path,
                        const std::string &fingerprint,
                        std::string *error,
                        std::string *lockWarning) const
{
    // Load-merge-save under a lock file: two processes saving the
    // same path concurrently used to last-writer-win, dropping the
    // loser's fresh entries.  Under the lock each writer first
    // folds in whatever a concurrent writer already persisted, so
    // saves compose; entries are pure functions of their key, so
    // merge order cannot change any value (our snapshot wins on
    // the — necessarily identical — overlaps).
    const FileLock lock(path);
    if (!lock.locked() && lockWarning) {
        // A lock that cannot even be created (read-only dir,
        // ENOSPC) used to degrade silently; the save below still
        // proceeds — unlocked but atomic via tmp+rename — and the
        // caller learns the merge-union guarantee was lost.
        *lockWarning =
            lock.error() +
            "; falling back to an unlocked atomic save (a "
            "concurrent writer's entries may be dropped)";
    }

    auto merged = snapshot();
    {
        std::unordered_map<std::string, bool> ours;
        ours.reserve(merged.size());
        for (const auto &kv : merged)
            ours.emplace(kv.first, true);
        std::string existing;
        std::vector<std::pair<std::string, Entry>> on_disk;
        if (tool::readTextFile(path, existing) &&
            parseCacheFile(existing, fingerprint, on_disk,
                           nullptr)) {
            for (auto &kv : on_disk)
                if (ours.find(kv.first) == ours.end())
                    merged.push_back(std::move(kv));
        }
        // An unreadable / stale / corrupt existing file merges
        // nothing and is simply overwritten, as before.
    }
    // snapshot() is key-sorted; keep the file deterministic after
    // appending the other writer's entries.
    std::sort(merged.begin(), merged.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });

    std::ostringstream os;
    os << "{\n\"version\": " << tool::kReportIoVersion << ",\n";
    os << "\"fingerprint\": \"" << tool::jsonEscape(fingerprint)
       << "\",\n";
    os << "\"entries\": [";
    for (std::size_t i = 0; i < merged.size(); ++i) {
        os << (i ? ",\n" : "\n");
        os << "{\"key\": \"" << tool::jsonEscape(merged[i].first)
           << "\", \"result\": "
           << tool::attackResultJson(merged[i].second.result)
           << ", \"stats\": "
           << tool::cpuStatsJson(merged[i].second.stats) << "}";
    }
    os << "\n]\n}\n";

    const std::string tmp = path + ".tmp";
    if (!tool::writeTextFile(tmp, os.str()))
        return loadFail(error, "cannot write " + tmp);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return loadFail(error, "cannot rename " + tmp + " -> " +
                                   path);
    }
    return true;
}

} // namespace specsec::campaign
