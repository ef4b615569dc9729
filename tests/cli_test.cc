/**
 * @file
 * Tests for the tools' shared option layer (src/tool/cli.hh): strict
 * numbers, the run flags and their one named error each, the argv
 * cursor's missing-value exit, shard-file merging, and the one
 * forwarding-path table the vuln summaries, the vuln-ablation spec
 * and `--flip-vuln` all read.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "regress/specs.hh"
#include "tool/cli.hh"
#include "tool/report.hh"
#include "tool/report_io.hh"
#include "tool/schema.hh"

namespace
{

using namespace specsec;
using namespace specsec::campaign;
namespace cli = specsec::tool::cli;

/** A mutable argv: "tool", then @p words. */
class Argv
{
  public:
    Argv(std::initializer_list<const char *> words)
        : words_{"tool"}
    {
        words_.insert(words_.end(), words.begin(), words.end());
        for (std::string &w : words_)
            ptrs_.push_back(w.data());
    }
    cli::Args args()
    {
        return {static_cast<int>(ptrs_.size()), ptrs_.data()};
    }

  private:
    std::vector<std::string> words_;
    std::vector<char *> ptrs_;
};

/** Parse @p words, every one a run flag or its value. */
cli::RunFlags
runFlags(std::initializer_list<const char *> words)
{
    Argv argv(words);
    cli::RunFlags flags;
    for (cli::Args args = argv.args(); args.next();)
        if (!cli::parseRunFlag(args, flags))
            ADD_FAILURE() << "not a run flag: " << args.arg();
    return flags;
}

TEST(Cli, ParseUnsignedIsStrict)
{
    unsigned u = 7;
    for (const char *bad : {"", "-1", "+1", " 1", "1x", "4294967296"})
        EXPECT_FALSE(cli::parseUnsigned(bad, u)) << "'" << bad << "'";
    EXPECT_EQ(u, 7u); // untouched on failure
    EXPECT_TRUE(cli::parseUnsigned("4294967295", u));
    EXPECT_EQ(u, 4294967295u);
    std::uint64_t wide = 0;
    EXPECT_FALSE(cli::parseUnsigned("18446744073709551616", wide));
    EXPECT_TRUE(cli::parseUnsigned("18446744073709551615", wide));
    EXPECT_EQ(wide, UINT64_MAX);
}

TEST(Cli, RunFlagsParseEveryValue)
{
    const cli::RunFlags flags =
        runFlags({"--workers", "3", "--backend", "triage", "--shard",
                  "1/4", "--cache-file", "c.json", "--connect", "h:9"});
    EXPECT_EQ(flags.workers, 3u);
    EXPECT_EQ(flags.backend, verdict::VerdictBackend::Triage);
    ASSERT_TRUE(flags.shard.has_value());
    EXPECT_EQ(flags.shard->index, 1u);
    EXPECT_EQ(flags.shard->count, 4u);
    EXPECT_EQ(flags.cacheFile, "c.json");
    EXPECT_EQ(flags.connect, "h:9");

    // A tool's own flag is left to the tool, value and all.
    Argv argv({"--json", "out.json"});
    cli::Args args = argv.args();
    cli::RunFlags untouched;
    ASSERT_TRUE(args.next());
    EXPECT_FALSE(cli::parseRunFlag(args, untouched));
    EXPECT_STREQ(args.value(), "out.json");
    EXPECT_FALSE(args.next());
}

TEST(CliDeathTest, EachFlagErrorExitsTwoWithItsName)
{
    const auto parse = [](std::initializer_list<const char *> words) {
        runFlags(words);
        std::exit(0);
    };
    const auto code2 = testing::ExitedWithCode(2);
    EXPECT_EXIT(parse({"--workers", "-1"}), code2,
                "--workers: not a number");
    EXPECT_EXIT(parse({"--backend", "simulatr"}), code2,
                "unknown backend 'simulatr'");
    for (const char *shard : {"2/2", "1/0", "1/", "/2", "1/2/3",
                              "0/18446744073709551617"})
        EXPECT_EXIT(parse({"--shard", shard}), code2,
                    "--shard: expected I/N with I < N");
    EXPECT_EXIT(parse({"--cache-file"}), code2,
                "--cache-file needs a value");
    EXPECT_EXIT(parse({"--connect"}), code2, "--connect needs a value");

    // Args::value() alone, for a tool's own flag.
    Argv argv({"--golden-dir"});
    cli::Args args = argv.args();
    ASSERT_TRUE(args.next());
    EXPECT_EXIT(args.value(), code2, "^--golden-dir needs a value\n$");
}

TEST(Cli, MergeShardFilesFoldsInOrderAndNamesEachFailure)
{
    const CampaignEngine engine(CampaignEngine::Options{1});
    ScenarioSpec spec;
    spec.name = "cli-merge";
    spec.variants = {core::AttackVariant::SpectreV1,
                     core::AttackVariant::Meltdown};
    spec.permCheckLatencies = {10, 30};
    const auto write = [](const std::string &name,
                          const std::string &text) {
        const std::string path = testing::TempDir() + name;
        EXPECT_TRUE(tool::writeTextFile(path, text));
        return path;
    };
    const CampaignReport s0 = engine.run(spec, ShardRange{0, 2});
    const CampaignReport s1 = engine.run(spec, ShardRange{1, 2});
    const std::string p0 =
        write("cli-s0.json", tool::shardReportJson(s0));
    const std::string p1 =
        write("cli-s1.json", tool::shardReportJson(s1));

    std::string error;
    const auto merged = cli::mergeShardFiles({p0, p1}, &error);
    ASSERT_TRUE(merged.has_value()) << error;
    CampaignReport folded = s0;
    ASSERT_TRUE(folded.merge(s1, &error)) << error;
    EXPECT_EQ(tool::campaignJson(*merged, false),
              tool::campaignJson(folded, false));
    EXPECT_EQ(tool::campaignJson(*merged, false),
              tool::campaignJson(engine.run(spec), false));

    const std::string absent = testing::TempDir() + "cli-absent.json";
    EXPECT_FALSE(cli::mergeShardFiles({p0, absent}, &error));
    EXPECT_EQ(error, "cannot read " + absent);
    const std::string junk = write("cli-junk.json", "{\"version\": ");
    EXPECT_FALSE(cli::mergeShardFiles({p0, junk}, &error));
    EXPECT_EQ(error.rfind(junk + ": malformed shard report: ", 0), 0u)
        << error;
    spec.name = "cli-other";
    const std::string other = write(
        "cli-other.json",
        tool::shardReportJson(engine.run(spec, ShardRange{1, 2})));
    EXPECT_FALSE(cli::mergeShardFiles({p0, other}, &error));
    EXPECT_EQ(error.rfind(other + ": merge conflict: ", 0), 0u)
        << error;
    EXPECT_FALSE(cli::mergeShardFiles({}, &error));
}

TEST(Cli, VulnSummaryRoundTripsEverySubset)
{
    constexpr std::size_t kPaths = std::size(uarch::kVulnPaths);
    for (unsigned mask = 0; mask < (1u << kPaths); ++mask) {
        uarch::VulnConfig v;
        for (std::size_t p = 0; p < kPaths; ++p)
            v.*uarch::kVulnPaths[p].member = ((mask >> p) & 1u) != 0;
        const std::string summary = tool::vulnSummary(v);
        uarch::VulnConfig back;
        ASSERT_TRUE(tool::parseVulnSummary(summary, back)) << summary;
        for (const uarch::VulnPath &path : uarch::kVulnPaths)
            EXPECT_EQ(back.*path.member, v.*path.member) << summary;
    }
    uarch::VulnConfig v;
    for (const char *bad :
         {"", "mds", "no-", "no-MDS", "no-mds+", "all+no-mds"})
        EXPECT_FALSE(tool::parseVulnSummary(bad, v)) << bad;
}

TEST(Cli, ForwardingPathNamesAreTheTable)
{
    // The names --flip-vuln resolves, in table order; the
    // vuln-ablation golden spec ablates exactly these.
    const std::vector<std::string> names = {
        "meltdown", "l1tf", "mds", "lazyfp", "store-bypass", "msr",
        "taa"};
    ASSERT_EQ(std::size(uarch::kVulnPaths), names.size());
    std::vector<std::string> labels = {"all-paths"};
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(uarch::kVulnPaths[i].name, names[i]);
        EXPECT_EQ(uarch::findVulnPath(names[i]), &uarch::kVulnPaths[i]);
        labels.push_back("no-" + names[i]);
    }
    EXPECT_EQ(uarch::findVulnPath("lazyFp"), nullptr);
    EXPECT_EQ(uarch::findVulnPath("no-mds"), nullptr);
    for (const regress::NamedSpec &named : regress::registeredSpecs()) {
        if (named.name != "vuln-ablation")
            continue;
        std::vector<std::string> got;
        for (const VulnAblation &ablation : named.spec.vulnAblations)
            got.push_back(ablation.label);
        EXPECT_EQ(got, labels);
    }
}

} // namespace
