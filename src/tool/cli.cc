#include "cli.hh"

#include <cstdio>

#include "serve/client.hh"
#include "tool/report.hh"
#include "tool/report_io.hh"

namespace specsec::tool::cli
{

namespace
{

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(2);
}

/** "PATH: what: why", the shape of a bad shard file's error. */
std::string
fileError(const std::string &path, const char *what,
          const std::string &why)
{
    return path + ": " + what + ": " + why;
}

} // namespace

bool
Args::next()
{
    if (next_ >= argc_)
        return false;
    arg_ = argv_[next_++];
    return true;
}

const char *
Args::value()
{
    if (next_ >= argc_)
        usageError(arg_ + " needs a value");
    return argv_[next_++];
}

const char *const kRunFlagUsage =
    "  --workers N        worker threads (default: all cores)\n"
    "  --backend B        verdict backend: simulator (default), model\n"
    "                     (graph verdicts only), differential (both,\n"
    "                     disagreements flagged), triage (one run per\n"
    "                     class of cells equal up to options the\n"
    "                     runner ignores) or static (Fig. 9\n"
    "                     program analysis beside simulation)\n"
    "  --shard I/N        execute only shard I of N of the grid\n"
    "  --cache-file F     persistent result cache: loaded before the\n"
    "                     run, saved atomically after\n"
    "  --connect HOST:P   execute on a `campaign_cli serve` daemon\n";

bool
parseRunFlag(Args &args, RunFlags &flags)
{
    if (args.is("--workers")) {
        if (!parseUnsigned(args.value(), flags.workers))
            usageError("--workers: not a number");
    } else if (args.is("--backend")) {
        const std::string name = args.value();
        verdict::VerdictBackend backend{};
        if (!verdict::parseBackend(name, backend))
            usageError(verdict::unknownBackendMessage(name));
        flags.backend = backend;
    } else if (args.is("--shard")) {
        const std::string text = args.value();
        const std::size_t slash = text.find('/');
        campaign::ShardRange shard;
        if (slash == std::string::npos ||
            !parseUnsigned(text.substr(0, slash), shard.index) ||
            !parseUnsigned(text.substr(slash + 1), shard.count) ||
            shard.index >= shard.count)
            usageError("--shard: expected I/N with I < N");
        flags.shard = shard;
    } else if (args.is("--cache-file")) {
        flags.cacheFile = args.value();
    } else if (args.is("--connect")) {
        flags.connect = args.value();
    } else {
        return false;
    }
    return true;
}

bool
connect(const std::string &endpoint, serve::Client &client)
{
    if (endpoint.empty()) {
        std::fprintf(stderr, "--connect HOST:PORT is required\n");
        return false;
    }
    serve::net::Endpoint parsed;
    std::string error;
    if (serve::net::parseEndpoint(endpoint, parsed, &error) &&
        client.connect(parsed, &error))
        return true;
    std::fprintf(stderr, "connect %s: %s\n", endpoint.c_str(),
                 error.c_str());
    return false;
}

bool
loadCache(const std::string &path, campaign::ResultCache &cache)
{
    std::string error;
    if (!cache.loadFromFile(path, campaign::modelFingerprint(),
                            &error)) {
        std::printf("cache: cold start (%s)\n", error.c_str());
        return false;
    }
    std::printf("cache: loaded %zu entries from %s\n", cache.size(),
                path.c_str());
    return true;
}

bool
saveCache(const std::string &path, const campaign::ResultCache &cache)
{
    std::string error, lockWarning;
    const bool saved = cache.saveToFile(
        path, campaign::modelFingerprint(), &error, &lockWarning);
    if (saved)
        std::printf("cache: saved %zu entries to %s\n", cache.size(),
                    path.c_str());
    else
        std::fprintf(stderr, "cache: save failed: %s\n",
                     error.c_str());
    if (!lockWarning.empty())
        std::fprintf(stderr, "cache: save degraded: %s\n",
                     lockWarning.c_str());
    return saved;
}

std::optional<campaign::CampaignReport>
mergeShardFiles(const std::vector<std::string> &paths,
                std::string *error)
{
    const auto fail = [error](const std::string &message) {
        if (error)
            *error = message;
        return std::nullopt;
    };
    if (paths.empty())
        return fail("no shard report files given");
    std::optional<campaign::CampaignReport> merged;
    for (const std::string &path : paths) {
        std::string text, why;
        if (!readTextFile(path, text))
            return fail("cannot read " + path);
        auto shard = parseShardReportJson(text, &why);
        if (!shard)
            return fail(fileError(path, "malformed shard report", why));
        if (!merged)
            merged = std::move(shard);
        else if (!merged->merge(*shard, &why))
            return fail(fileError(path, "merge conflict", why));
    }
    return merged;
}

} // namespace specsec::tool::cli
