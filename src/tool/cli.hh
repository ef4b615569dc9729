/**
 * @file
 * The command-line option layer of the four tools (campaign_cli,
 * specsec_regress, specsec_lint, custom_attack): the argv cursor,
 * strict numbers, the run flags the campaign front-ends share, and
 * the cache, shard-merge and daemon-connect steps those flags name.
 *
 * Each tool keeps its own flags, cross-flag rules and exit codes.
 * What lives here is one spelling per shared flag, one named error
 * per malformed value and one wording per cache line.  A usage error
 * prints to stderr and exits 2, the exit code every tool gives it.
 */

#ifndef SPECSEC_TOOL_CLI_HH
#define SPECSEC_TOOL_CLI_HH

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "verdict/verdict.hh"

namespace specsec::serve
{
class Client;
} // namespace specsec::serve

namespace specsec::tool::cli
{

/**
 * Strict decimal parse into @p out: digits only (strtoull would read
 * "-1" as its maximum and accept "+1"), and the value must fit
 * @p T.  @return false, leaving @p out untouched, otherwise.
 */
template <typename T>
bool
parseUnsigned(const std::string &s, T &out)
{
    if (s.empty() || s[0] < '0' || s[0] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno == ERANGE || *end != '\0' ||
        v > std::numeric_limits<T>::max())
        return false;
    out = static_cast<T>(v);
    return true;
}

/**
 * The argv cursor over argv[first .. argc):
 *
 *     for (cli::Args args(argc, argv); args.next();)
 *         if (args.is("--json")) path = args.value(); ...
 */
class Args
{
  public:
    Args(int argc, char **argv, int first = 1)
        : argc_(argc), argv_(argv), next_(first)
    {
    }

    /** Step to the next argument; false past the last one. */
    bool next();

    /** The current argument. */
    const std::string &arg() const { return arg_; }
    bool is(const char *flag) const { return arg_ == flag; }

    /** Consume the current flag's value; when argv ends first,
     *  print "FLAG needs a value" and exit 2. */
    const char *value();

  private:
    int argc_;
    char **argv_;
    int next_;
    std::string arg_;
};

/** The run flags the campaign front-ends share. */
struct RunFlags
{
    unsigned workers = 0; ///< --workers N (0 = all cores)
    std::optional<verdict::VerdictBackend> backend; ///< --backend B
    std::optional<campaign::ShardRange> shard;      ///< --shard I/N
    std::string cacheFile; ///< --cache-file F
    std::string connect;   ///< --connect HOST:P
};

/** One usage line per run flag, in RunFlags order. */
extern const char *const kRunFlagUsage;

/**
 * Parse the current argument if it is a run flag; @return false,
 * consuming nothing, when it is not.  A missing or malformed value
 * prints the flag's error and exits 2: "needs a value", "--workers:
 * not a number", the unknown-backend message, or "--shard: expected
 * I/N with I < N".
 */
bool parseRunFlag(Args &args, RunFlags &flags);

/** Dial and handshake @p endpoint ("HOST:PORT"); false after
 *  printing "connect ENDPOINT: why" (or that it is required). */
bool connect(const std::string &endpoint, serve::Client &client);

/**
 * @name The --cache-file steps under the current model fingerprint:
 * "cache: loaded N entries from F" or "cache: cold start (why)", and
 * "cache: saved N entries to F", on stdout; a failed save and lock
 * degradation go to stderr.  Each returns false on a cold start or
 * a failed save.
 * @{
 */
bool loadCache(const std::string &path, campaign::ResultCache &cache);
bool saveCache(const std::string &path,
               const campaign::ResultCache &cache);
/// @}

/**
 * Read the shard reports at @p paths and fold them in order with
 * CampaignReport::merge.  nullopt, with the reason in @p error, when
 * @p paths is empty or a file is unreadable, malformed or conflicts
 * with the ones before it.  The result may still be partial.
 */
std::optional<campaign::CampaignReport>
mergeShardFiles(const std::vector<std::string> &paths,
                std::string *error);

} // namespace specsec::tool::cli

#endif // SPECSEC_TOOL_CLI_HH
