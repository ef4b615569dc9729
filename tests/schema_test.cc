/**
 * @file
 * Tests for the record formats (src/tool/schema.hh) and the cursor
 * behind every persisted-artifact parser (src/tool/jsonio.hh):
 *
 *  - Byte-identity: every serialization surface the field lists
 *    drive (outcome JSON, CSV header/rows, campaignJson /
 *    campaignCsv / campaignJsonl, the shard wire format, the
 *    result/stats wire fragments, cache files, golden matrices)
 *    is pinned against literals captured from the pre-schema
 *    hand-rolled formatters.  If one of these tests fails, a
 *    format changed — that is a compatibility break, not a test to
 *    update casually.
 *  - Round trips of the result/stats fragments, and named errors
 *    for values a member or the cursor cannot hold (out-of-range
 *    integers and doubles, non-ASCII \u escapes).
 *  - A seeded mutation fuzz of the cursor-based parsers (goldens,
 *    lint and disagreement pins, shard reports, cache files,
 *    scenario keys): no throw, a named error for every rejection,
 *    and a fixed point after one parse/emit step.
 *  - parseScenarioKey round-trips for catalog-extension
 *    (synthetic-slot) attacks.
 *  - The schema tag, pinned whole: mismatched producers are
 *    rejected before CampaignReport::merge can misparse them;
 *    legacy tagless files still load.
 *  - One escaping path: attackDescriptorJson and the outcome JSON
 *    emitter route every string through tool::jsonEscape
 *    (regression: quotes/backslashes/control chars in attack alias
 *    names).
 *  - Committed goldens under golden/ parse + re-emit
 *    byte-identically (the same invariant CI's record step checks
 *    end-to-end via --record).
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "core/catalog.hh"
#include "lint/lint.hh"
#include "regress/golden.hh"
#include "tool/report.hh"
#include "tool/report_io.hh"
#include "tool/schema.hh"
#include "tool/stream_export.hh"
#include "verdict/differential.hh"

namespace
{

using namespace specsec;
using namespace specsec::campaign;
using namespace specsec::tool;

/** The deterministic outcome the pre-refactor fixtures captured. */
ScenarioOutcome
fixtureOutcome(std::size_t gridIndex, std::size_t col, bool leaked)
{
    ScenarioOutcome o;
    o.variant = core::AttackVariant::SpectreV1;
    o.row = 0;
    o.col = col;
    o.gridIndex = gridIndex;
    o.rowLabel = "Spectre v1";
    o.colLabel = col ? "fence, \"quoted\"" : "baseline";
    o.config = CpuConfig{};
    o.options = AttackOptions{};
    if (col) {
        o.config.defense.fenceSpeculativeLoads = true;
        o.options.kpti = true;
        o.options.softwareLfence = true;
        o.config.vuln.mds = false;
        o.config.cache.sets = 64;
        o.config.cache.missLatency = 100;
    }
    o.result.name = "Spectre v1";
    o.result.recovered = {83, 69, 67, -1};
    o.result.expected = {83, 69, 67, 82};
    o.result.accuracy = leaked ? 1.0 : 0.75;
    o.result.leaked = leaked;
    o.result.guestCycles = 12345;
    o.result.transientForwards = 7;
    o.stats.cycles = 45678;
    o.stats.committed = 1200;
    o.stats.squashed = 88;
    o.stats.branchMispredicts = 17;
    o.stats.exceptions = 3;
    o.stats.memOrderViolations = 2;
    o.stats.speculativeFills = 99;
    o.stats.transientForwards = 7;
    o.wallMillis = 1.25;
    return o;
}

CampaignReport
fixtureReport()
{
    CampaignReport r;
    r.name = "fixture \"campaign\"";
    r.rowLabels = {"Spectre v1"};
    r.colLabels = {"baseline", "fence, \"quoted\""};
    r.outcomes.push_back(fixtureOutcome(0, 0, true));
    r.outcomes.push_back(fixtureOutcome(1, 1, false));
    r.expandedCount = 2;
    r.uniqueCount = 2;
    r.executedCount = 2;
    r.cacheHits = 0;
    r.shardIndex = 0;
    r.shardCount = 1;
    r.workers = 1;
    r.wallMillis = 3.5;
    r.recomputeCells();
    return r;
}

// -------------------------------------------------------------------
// Byte-identity against the pre-refactor formatters.
// -------------------------------------------------------------------

constexpr const char *kOutcomeJsonFixture =
    R"fx({"gridIndex": 0, "variant": "Spectre v1", "defense": "baseline", "robSize": 48, "permCheckLatency": 30, "channel": "flush-reload", "mitigations": "-", "vulns": "all", "cache": "256x4/64@4:200", "leaked": true, "accuracy": 1.0000, "guestCycles": 12345, "transientForwards": 7, "cycles": 45678, "committed": 1200, "squashed": 88, "branchMispredicts": 17, "exceptions": 3})fx";

constexpr const char *kOutcomeJsonTimingFixture =
    R"fx({"gridIndex": 1, "variant": "Spectre v1", "defense": "fence, \"quoted\"", "robSize": 48, "permCheckLatency": 30, "channel": "flush-reload", "mitigations": "kpti+lfence", "vulns": "no-mds", "cache": "64x4/64@4:100", "leaked": false, "accuracy": 0.7500, "guestCycles": 12345, "transientForwards": 7, "cycles": 45678, "committed": 1200, "squashed": 88, "branchMispredicts": 17, "exceptions": 3, "wallMillis": 1.2500})fx";

TEST(SchemaBytes, OutcomeJsonIsPreRefactorIdentical)
{
    const CampaignReport r = fixtureReport();
    EXPECT_EQ(outcomeJson(r.outcomes[0], false),
              kOutcomeJsonFixture);
    EXPECT_EQ(outcomeJson(r.outcomes[1], true),
              kOutcomeJsonTimingFixture);
}

TEST(SchemaBytes, CsvHeaderAndRowsArePreRefactorIdentical)
{
    const CampaignReport r = fixtureReport();
    EXPECT_EQ(campaignCsvHeader(false),
              "gridIndex,variant,defense,robSize,permCheckLatency,"
              "channel,mitigations,vulns,cache,leaked,accuracy,"
              "guestCycles,transientForwards,cycles,committed,"
              "squashed,branchMispredicts,exceptions\n");
    EXPECT_EQ(campaignCsvHeader(true),
              "gridIndex,variant,defense,robSize,permCheckLatency,"
              "channel,mitigations,vulns,cache,leaked,accuracy,"
              "guestCycles,transientForwards,cycles,committed,"
              "squashed,branchMispredicts,exceptions,wallMillis\n");
    EXPECT_EQ(
        campaignCsvRow(r.outcomes[1], false),
        "1,Spectre v1,\"fence, \"\"quoted\"\"\",48,30,"
        "flush-reload,kpti+lfence,no-mds,64x4/64@4:100,0,0.7500,"
        "12345,7,45678,1200,88,17,3\n");
}

constexpr const char *kCampaignJsonFixture = R"fx({
  "name": "fixture \"campaign\"",
  "expandedCount": 2,
  "uniqueCount": 2,
  "rows": ["Spectre v1"],
  "cols": ["baseline", "fence, \"quoted\""],
  "matrix": [
    {"variant": "Spectre v1", "cells": [{"runs": 1, "leaks": 1}, {"runs": 1, "leaks": 0}]}
  ],
  "outcomes": [
    {"gridIndex": 0, "variant": "Spectre v1", "defense": "baseline", "robSize": 48, "permCheckLatency": 30, "channel": "flush-reload", "mitigations": "-", "vulns": "all", "cache": "256x4/64@4:200", "leaked": true, "accuracy": 1.0000, "guestCycles": 12345, "transientForwards": 7, "cycles": 45678, "committed": 1200, "squashed": 88, "branchMispredicts": 17, "exceptions": 3},
    {"gridIndex": 1, "variant": "Spectre v1", "defense": "fence, \"quoted\"", "robSize": 48, "permCheckLatency": 30, "channel": "flush-reload", "mitigations": "kpti+lfence", "vulns": "no-mds", "cache": "64x4/64@4:100", "leaked": false, "accuracy": 0.7500, "guestCycles": 12345, "transientForwards": 7, "cycles": 45678, "committed": 1200, "squashed": 88, "branchMispredicts": 17, "exceptions": 3}
  ]
}
)fx";

TEST(SchemaBytes, CampaignJsonIsPreRefactorIdentical)
{
    EXPECT_EQ(campaignJson(fixtureReport(), false),
              kCampaignJsonFixture);
}

constexpr const char *kCampaignCsvFixture =
    "gridIndex,variant,defense,robSize,permCheckLatency,channel,"
    "mitigations,vulns,cache,leaked,accuracy,guestCycles,"
    "transientForwards,cycles,committed,squashed,branchMispredicts,"
    "exceptions\n"
    "0,Spectre v1,baseline,48,30,flush-reload,-,all,"
    "256x4/64@4:200,1,1.0000,12345,7,45678,1200,88,17,3\n"
    "1,Spectre v1,\"fence, \"\"quoted\"\"\",48,30,flush-reload,"
    "kpti+lfence,no-mds,64x4/64@4:100,0,0.7500,12345,7,45678,1200,"
    "88,17,3\n";

TEST(SchemaBytes, CampaignCsvIsPreRefactorIdentical)
{
    EXPECT_EQ(campaignCsv(fixtureReport(), false),
              kCampaignCsvFixture);
}

constexpr const char *kCampaignJsonlFixture =
    R"fx({"type": "header", "name": "fixture \"campaign\"", "expandedCount": 2, "uniqueCount": 2, "shardIndex": 0, "shardCount": 1, "rows": ["Spectre v1"], "cols": ["baseline", "fence, \"quoted\""]}
{"type": "outcome", "record": {"gridIndex": 0, "variant": "Spectre v1", "defense": "baseline", "robSize": 48, "permCheckLatency": 30, "channel": "flush-reload", "mitigations": "-", "vulns": "all", "cache": "256x4/64@4:200", "leaked": true, "accuracy": 1.0000, "guestCycles": 12345, "transientForwards": 7, "cycles": 45678, "committed": 1200, "squashed": 88, "branchMispredicts": 17, "exceptions": 3}}
{"type": "outcome", "record": {"gridIndex": 1, "variant": "Spectre v1", "defense": "fence, \"quoted\"", "robSize": 48, "permCheckLatency": 30, "channel": "flush-reload", "mitigations": "kpti+lfence", "vulns": "no-mds", "cache": "64x4/64@4:100", "leaked": false, "accuracy": 0.7500, "guestCycles": 12345, "transientForwards": 7, "cycles": 45678, "committed": 1200, "squashed": 88, "branchMispredicts": 17, "exceptions": 3}}
)fx";

TEST(SchemaBytes, CampaignJsonlIsPreRefactorIdentical)
{
    EXPECT_EQ(campaignJsonl(fixtureReport(), false),
              kCampaignJsonlFixture);
}

constexpr const char *kAttackResultJsonFixture =
    R"fx({"name": "Spectre v1", "recovered": [83, 69, 67, -1], "expected": [83, 69, 67, 82], "accuracy": 1, "leaked": true, "guestCycles": 12345, "transientForwards": 7})fx";

TEST(SchemaBytes, ResultAndStatsFragmentsArePreRefactorIdentical)
{
    const CampaignReport r = fixtureReport();
    EXPECT_EQ(attackResultJson(r.outcomes[0].result),
              kAttackResultJsonFixture);
    EXPECT_EQ(cpuStatsJson(r.outcomes[0].stats),
              "[45678, 1200, 88, 17, 3, 2, 99, 7]");
}

// The shard wire format changed in exactly two deliberate ways: it
// gained the "schema" tag line (so mismatched producers are
// rejected) and the verdict-backend counters (all zero under the
// plain simulator backend).  Everything else is byte-identical to
// the pre-refactor writer.
constexpr const char *kShardReportPrefix = "{\n\"version\": 1,\n";
constexpr const char *kShardReportBodyFixture =
    R"fx("name": "fixture \"campaign\"",
"rows": ["Spectre v1"],
"cols": ["baseline", "fence, \"quoted\""],
"expandedCount": 2,
"uniqueCount": 2,
"shardIndex": 0,
"shardCount": 1,
"executedCount": 2,
"cacheHits": 0,
"modelDecided": 0,
"modelUndecided": 0,
"disagreements": 0,
"replicatedCells": 0,
"workers": 1,
"wallMillis": 3.5,
"outcomes": [
{"gridIndex": 0, "row": 0, "col": 0, "rowLabel": "Spectre v1", "colLabel": "baseline", "key": "0;48;2;4;30;2;2;16;30;12;60;16;10;256;4;64;4;200;1;1;1;1;1;1;1;0;0;0;0;0;0;0;0;0;0;0;0;0;0;8;0;0;0;0;0;8;1;", "result": {"name": "Spectre v1", "recovered": [83, 69, 67, -1], "expected": [83, 69, 67, 82], "accuracy": 1, "leaked": true, "guestCycles": 12345, "transientForwards": 7}, "stats": [45678, 1200, 88, 17, 3, 2, 99, 7], "wallMillis": 1.25},
{"gridIndex": 1, "row": 0, "col": 1, "rowLabel": "Spectre v1", "colLabel": "fence, \"quoted\"", "key": "0;48;2;4;30;2;2;16;30;12;60;16;10;64;4;64;4;100;1;1;0;1;1;1;1;1;0;0;0;0;0;0;0;0;0;0;0;0;0;8;0;1;0;1;0;8;1;", "result": {"name": "Spectre v1", "recovered": [83, 69, 67, -1], "expected": [83, 69, 67, 82], "accuracy": 0.75, "leaked": false, "guestCycles": 12345, "transientForwards": 7}, "stats": [45678, 1200, 88, 17, 3, 2, 99, 7], "wallMillis": 1.25}
]
}
)fx";

std::string
schemaTagLine()
{
    std::string line = "\"schema\": \"";
    line += jsonEscape(wireSchemaTag());
    line += "\",\n";
    return line;
}

std::string
expectedShardReport()
{
    std::string out = kShardReportPrefix;
    out += schemaTagLine();
    out += kShardReportBodyFixture;
    return out;
}

TEST(SchemaBytes, ShardReportGainsOnlyTheSchemaTagLine)
{
    EXPECT_EQ(shardReportJson(fixtureReport()),
              expectedShardReport());
}

constexpr const char *kCacheFileFixture = R"fx({
"version": 1,
"fingerprint": "fp\"v1\"",
"entries": [
{"key": "a0;1;", "result": {"name": "Spectre v1", "recovered": [83, 69, 67, -1], "expected": [83, 69, 67, 82], "accuracy": 0.75, "leaked": false, "guestCycles": 12345, "transientForwards": 7}, "stats": [45678, 1200, 88, 17, 3, 2, 99, 7]},
{"key": "k1;2;3;", "result": {"name": "Spectre v1", "recovered": [83, 69, 67, -1], "expected": [83, 69, 67, 82], "accuracy": 1, "leaked": true, "guestCycles": 12345, "transientForwards": 7}, "stats": [45678, 1200, 88, 17, 3, 2, 99, 7]}
]
}
)fx";

TEST(SchemaBytes, CacheFileIsPreRefactorIdentical)
{
    const CampaignReport r = fixtureReport();
    ResultCache cache;
    cache.store("k1;2;3;",
                {r.outcomes[0].result, r.outcomes[0].stats});
    cache.store("a0;1;",
                {r.outcomes[1].result, r.outcomes[1].stats});
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "schema-test-cache.json")
            .string();
    ASSERT_TRUE(cache.saveToFile(path, "fp\"v1\""));
    std::string text;
    ASSERT_TRUE(readTextFile(path, text));
    std::filesystem::remove(path);
    EXPECT_EQ(text, kCacheFileFixture);
}

constexpr const char *kGoldenJsonFixture = R"fx({
  "spec": "fixture \"campaign\"",
  "cols": ["baseline", "fence, \"quoted\""],
  "rows": ["Spectre v1"],
  "cells": [
    [{"runs": 1, "leaks": 1, "pattern": "1"}, {"runs": 1, "leaks": 0, "pattern": "0"}]
  ]
}
)fx";

TEST(SchemaBytes, LegacyGoldenJsonIsPreRefactorIdentical)
{
    EXPECT_EQ(regress::goldenJson(
                  regress::GoldenMatrix::fromReport(fixtureReport())),
              kGoldenJsonFixture);
}

TEST(SchemaBytes, CommittedGoldensRoundTripByteIdentically)
{
    // Every golden under golden/ — legacy and accuracy-bearing —
    // must parse and re-emit to its exact committed bytes; this is
    // the in-process version of the CI schema-drift job.
    std::size_t checked = 0;
    std::size_t with_accuracy = 0;
    std::size_t pin_files = 0;
    std::size_t pinned_divergences = 0;
    std::size_t lint_files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(SPECSEC_GOLDEN_DIR)) {
        if (entry.path().extension() != ".json")
            continue;
        std::string text;
        ASSERT_TRUE(readTextFile(entry.path().string(), text))
            << entry.path();
        std::string error;
        const std::string stem = entry.path().filename().string();
        if (stem.rfind("lint-", 0) == 0) {
            // Lint pins round-trip through the lint serializer.
            const auto report = lint::parseLintReportJson(text, &error);
            ASSERT_TRUE(report) << entry.path() << ": " << error;
            EXPECT_EQ(lint::lintReportJson(*report), text)
                << entry.path();
            ++lint_files;
            continue;
        }
        if (stem.rfind("differential-", 0) == 0) {
            // Disagreement pins round-trip through their own
            // serializer with the same byte-identity contract.
            const auto pins =
                verdict::parseDisagreementJson(text, &error);
            ASSERT_TRUE(pins) << entry.path() << ": " << error;
            EXPECT_EQ(verdict::disagreementJson(*pins), text)
                << entry.path();
            ++pin_files;
            pinned_divergences += pins->disagreements.size();
            continue;
        }
        const auto golden = regress::parseGoldenJson(text, &error);
        ASSERT_TRUE(golden) << entry.path() << ": " << error;
        EXPECT_EQ(regress::goldenJson(*golden), text)
            << entry.path();
        ++checked;
        if (golden->hasAccuracy) {
            ++with_accuracy;
            EXPECT_GT(golden->absEps, 0.0) << entry.path();
        }
    }
    EXPECT_GE(checked, 10u);
    // The accuracy-golden migration landed: at least one committed
    // golden pins accuracy values under a nonzero tolerance.
    EXPECT_GE(with_accuracy, 1u);
    // The differential-backend migration landed: every matrix
    // golden has a model pin file AND a static pin file, and at
    // least one known model-vs-simulator divergence is documented.
    EXPECT_EQ(pin_files, 2 * checked);
    EXPECT_GE(pinned_divergences, 1u);
    // The lint migration landed: one lint pin per catalog attack
    // with a static program.
    std::size_t static_attacks = 0;
    for (const auto &a : core::ScenarioCatalog::instance().attacks())
        if (a->staticProgram)
            ++static_attacks;
    EXPECT_EQ(lint_files, static_attacks);
    EXPECT_GE(lint_files, 19u);
}

// -------------------------------------------------------------------
// Fragment round trips and values nothing can hold.
// -------------------------------------------------------------------

std::string
randomLabel(std::mt19937 &rng)
{
    static const char alphabet[] =
        "abcXYZ \"\\\n\t,;{}[]\x01\x1f";
    std::uniform_int_distribution<std::size_t> len(0, 24);
    std::uniform_int_distribution<std::size_t> pick(
        0, sizeof(alphabet) - 2);
    std::string out;
    for (std::size_t i = len(rng); i > 0; --i)
        out += alphabet[pick(rng)];
    return out;
}

TEST(SchemaRoundTrip, FuzzedResultAndStatsFragmentsAreExact)
{
    std::mt19937 rng(987654321);
    std::uniform_int_distribution<std::uint64_t> u64(
        0, std::numeric_limits<std::uint64_t>::max() / 2);
    std::uniform_real_distribution<double> real(0.0, 1.0);
    std::uniform_int_distribution<int> byte(0, 255);
    for (int iter = 0; iter < 300; ++iter) {
        attacks::AttackResult r;
        r.name = randomLabel(rng);
        for (int i = byte(rng) % 16; i > 0; --i) {
            r.recovered.push_back(byte(rng) - 1); // may be -1
            r.expected.push_back(
                static_cast<std::uint8_t>(byte(rng)));
        }
        r.accuracy = real(rng); // %.17g: exact for any double
        r.leaked = byte(rng) & 1;
        r.guestCycles = u64(rng);
        r.transientForwards = u64(rng);

        const std::string emitted = attackResultJson(r);
        json::Cursor cur(emitted);
        attacks::AttackResult parsed;
        ASSERT_TRUE(parseAttackResultJson(cur, parsed))
            << cur.error();
        EXPECT_EQ(parsed.name, r.name);
        EXPECT_EQ(parsed.recovered, r.recovered);
        EXPECT_EQ(parsed.expected, r.expected);
        EXPECT_EQ(parsed.accuracy, r.accuracy);
        EXPECT_EQ(parsed.leaked, r.leaked);
        EXPECT_EQ(attackResultJson(parsed), emitted);

        uarch::CpuStats s;
        s.cycles = u64(rng);
        s.committed = u64(rng);
        s.squashed = u64(rng);
        s.branchMispredicts = u64(rng);
        s.exceptions = u64(rng);
        s.memOrderViolations = u64(rng);
        s.speculativeFills = u64(rng);
        s.transientForwards = u64(rng);
        const std::string stats_emitted = cpuStatsJson(s);
        json::Cursor stats_cur(stats_emitted);
        uarch::CpuStats stats_parsed;
        ASSERT_TRUE(parseCpuStatsJson(stats_cur, stats_parsed));
        EXPECT_EQ(cpuStatsJson(stats_parsed), stats_emitted);
    }
}

TEST(SchemaRoundTrip, CursorIntegersOutOfRangeFailLoudly)
{
    // Every in-range value parses to itself, the extremes included.
    {
        const std::string text =
            "18446744073709551615 4294967295 9223372036854775807 "
            "-9223372036854775808 -0";
        json::Cursor cur(text);
        EXPECT_EQ(cur.parseU64(), UINT64_MAX);
        EXPECT_EQ(cur.parseUnsigned(), UINT_MAX);
        EXPECT_EQ(cur.parseI64(), INT64_MAX);
        EXPECT_EQ(cur.parseI64(), INT64_MIN);
        EXPECT_EQ(cur.parseI64(), 0);
        EXPECT_FALSE(cur.failed()) << cur.error();
    }
    // One past each limit fails at the number's offset instead of
    // wrapping (2^64 + 5 used to read as 5, 2^32 + 6 as 6).
    const auto fails = [](const std::string &text, auto parse) {
        json::Cursor cur(text);
        parse(cur);
        EXPECT_TRUE(cur.failed()) << text;
        EXPECT_EQ(cur.error(), "integer out of range at offset 2")
            << text;
    };
    fails("  18446744073709551621",
          [](json::Cursor &c) { return c.parseU64(); });
    fails("  1234567890123456789012345",
          [](json::Cursor &c) { return c.parseU64(); });
    fails("  4294967302",
          [](json::Cursor &c) { return c.parseUnsigned(); });
    fails("  9223372036854775808",
          [](json::Cursor &c) { return c.parseI64(); });
    fails("  -9223372036854775809",
          [](json::Cursor &c) { return c.parseI64(); });
}

TEST(SchemaRoundTrip, ResultArraysOutOfRangeFailLoudly)
{
    // Each element must fit the member's element type, at the
    // element's offset: 256 is no byte and 2^32 no int (they used to
    // wrap to 0 and 44, 0).
    const std::pair<const char *, std::size_t> bad[] = {
        {R"({"expected": [255, 256, 300]})", 19},
        {R"({"expected": [-1]})", 14},
        {R"({"recovered": [-1, 4294967296]})", 19},
        {R"({"recovered": [1, 99999999999999999999]})", 18},
    };
    for (const auto &[text, offset] : bad) {
        const std::string doc = text;
        json::Cursor cur(doc);
        attacks::AttackResult r;
        EXPECT_FALSE(parseAttackResultJson(cur, r)) << doc;
        EXPECT_EQ(cur.error(), "integer out of range at offset " +
                                   std::to_string(offset))
            << doc;
    }
    // The extremes still parse.
    const std::string doc =
        R"({"recovered": [-2147483648, 2147483647], )"
        R"("expected": [0, 255]})";
    json::Cursor cur(doc);
    attacks::AttackResult r;
    ASSERT_TRUE(parseAttackResultJson(cur, r)) << cur.error();
    EXPECT_EQ(r.recovered, (std::vector<int>{INT_MIN, INT_MAX}));
    EXPECT_EQ(r.expected, (std::vector<std::uint8_t>{0, 255}));
}

TEST(SchemaRoundTrip, CursorNumbersAndEscapesOutOfRangeFailLoudly)
{
    // 1e999 used to read as inf, which no writer can emit back, and
    // "\u4141" as "A" (the escape's low byte).
    for (const std::string text : {"  1e999", "  -1e999"}) {
        json::Cursor cur(text);
        cur.parseDouble();
        EXPECT_EQ(cur.error(), "number out of range at offset 2")
            << text;
    }
    const std::string wide = R"(  "ab\u4141")";
    json::Cursor escape(wide);
    escape.parseString();
    EXPECT_EQ(escape.error(), "unsupported \\u escape at offset 5");
    // What the writers emit still parses: escaped ASCII and the
    // finite extremes.
    const std::string ok =
        R"("\u0001\u007f" 1.7976931348623157e308 4.9e-324)";
    json::Cursor fine(ok);
    EXPECT_EQ(fine.parseString(), "\x01\x7f");
    EXPECT_EQ(fine.parseDouble(), DBL_MAX);
    EXPECT_EQ(fine.parseDouble(), 4.9e-324);
    EXPECT_FALSE(fine.failed()) << fine.error();
}

// -------------------------------------------------------------------
// Seeded mutation fuzz of the cursor-based parsers.
// -------------------------------------------------------------------

/**
 * Calls @p visit on @p seed truncated at every offset (itself
 * included), then on 2,000 seeded edits of it: a bit flip, a
 * deletion, or an inserted structural character, 25-digit run,
 * out-of-range double, non-ASCII \u escape or byte-overflowing
 * integer.
 */
template <typename Visit>
void
forEachMutant(const std::string &seed, Visit &&visit)
{
    for (std::size_t n = 0; n <= seed.size(); ++n)
        visit(seed.substr(0, n));
    static const char *const inserts[] = {
        "{", "}", "[", "]", "\"", ",", ":", "\\",
        "1234567890123456789012345", "1e999", "\\u4141", "256"};
    std::mt19937 rng(20261018);
    for (int i = 0; i < 2000; ++i) {
        std::string text = seed;
        const std::size_t at = rng() % text.size();
        switch (rng() % 3) {
          case 0:
            text[at] = static_cast<char>(text[at] ^ (1 << rng() % 8));
            break;
          case 1:
            text.erase(at, 1);
            break;
          default:
            text.insert(at, inserts[rng() % std::size(inserts)]);
        }
        visit(text);
    }
}

/**
 * Fuzz @p parse (text, error) -> optional against @p emit: no
 * mutant of @p seed may throw, every rejection names an error, and
 * every accepted mutant reaches a fixed point after one step —
 * emit(parse(x)) parses and re-emits the same bytes.
 */
template <typename Parse, typename Emit>
void
expectNamedErrorsOrFixedPoints(const std::string &seed, Parse parse,
                               Emit emit)
{
    forEachMutant(seed, [&](const std::string &text) {
        if (::testing::Test::HasFailure())
            return;
        try {
            std::string error;
            const auto parsed = parse(text, &error);
            if (!parsed) {
                EXPECT_FALSE(error.empty())
                    << "rejected without an error:\n" << text;
                return;
            }
            const std::string once = emit(*parsed);
            const auto again = parse(once, &error);
            ASSERT_TRUE(again) << error << "\nre-parsing:\n" << once;
            EXPECT_EQ(emit(*again), once) << "emitted from:\n" << text;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "threw " << e.what() << " on:\n" << text;
        }
    });
}

TEST(SchemaFuzz, CursorParsersNameEveryRejectionOrReachAFixedPoint)
{
    const auto committed = [](const char *name) {
        std::string text;
        EXPECT_TRUE(readTextFile(
            std::string(SPECSEC_GOLDEN_DIR) + "/" + name, text))
            << name;
        return text;
    };
    // Golden matrices: an accuracy-bearing one and a legacy one.
    for (const char *name :
         {"table3-baseline.json", "ablation-spectre-window.json"})
        expectNamedErrorsOrFixedPoints(committed(name),
                                       regress::parseGoldenJson,
                                       regress::goldenJson);
    expectNamedErrorsOrFixedPoints(committed("lint-spectre-v1.json"),
                                   lint::parseLintReportJson,
                                   lint::lintReportJson);
    expectNamedErrorsOrFixedPoints(
        committed("differential-table2-industry.json"),
        verdict::parseDisagreementJson, verdict::disagreementJson);
    expectNamedErrorsOrFixedPoints(shardReportJson(fixtureReport()),
                                   parseShardReportJson,
                                   shardReportJson);

    // Cache files, through files as the tools read and write them.
    const auto tmp = std::filesystem::temp_directory_path();
    const std::string in = (tmp / "schema-fuzz-in.json").string();
    const std::string out = (tmp / "schema-fuzz-out.json").string();
    const std::string fingerprint = "fp\"v1\"";
    using Entries =
        std::vector<std::pair<std::string, ResultCache::Entry>>;
    expectNamedErrorsOrFixedPoints(
        kCacheFileFixture,
        [&](const std::string &text,
            std::string *error) -> std::optional<Entries> {
            ResultCache cache;
            if (!writeTextFile(in, text) ||
                !cache.loadFromFile(in, fingerprint, error))
                return std::nullopt;
            return cache.snapshot();
        },
        [&](const Entries &entries) {
            ResultCache cache;
            for (const auto &[key, entry] : entries)
                cache.store(key, entry);
            std::filesystem::remove(out);
            std::string text;
            EXPECT_TRUE(cache.saveToFile(out, fingerprint) &&
                        readTextFile(out, text));
            return text;
        });
    for (const std::string &path : {in, out, out + ".lock"})
        std::filesystem::remove(path);

    // Scenario keys: an accepted key is its own canonical spelling.
    forEachMutant(
        scenarioKey(core::AttackVariant::SpectreV1, CpuConfig{},
                    AttackOptions{}),
        [](const std::string &text) {
            core::AttackVariant variant{};
            CpuConfig config;
            AttackOptions options;
            if (parseScenarioKey(text, variant, config, options)) {
                EXPECT_EQ(scenarioKey(variant, config, options), text);
            }
        });
}

// -------------------------------------------------------------------
// Scenario keys for catalog-extension (synthetic-slot) attacks.
// -------------------------------------------------------------------

TEST(SchemaRoundTrip, ParseScenarioKeyRoundTripsExtensionSlots)
{
    // Register a real extension: the catalog assigns a synthetic
    // slot >= kExtensionIdBase with no enumerator behind it.
    core::AttackDescriptor d;
    d.name = "schema-test synthetic attack";
    d.aliases = {"schema-test-synthetic"};
    const core::AttackDescriptor &registered =
        core::ScenarioCatalog::instance().registerAttack(
            std::move(d));
    ASSERT_TRUE(registered.isExtension());
    ASSERT_GE(static_cast<unsigned>(registered.id),
              core::kExtensionIdBase);

    CpuConfig config;
    config.robSize = 96;
    config.vuln.taa = false;
    AttackOptions options;
    options.channel = core::CovertChannelKind::PrimeProbe;
    options.kpti = true;

    const std::string key =
        scenarioKey(registered.id, config, options);
    core::AttackVariant variant{};
    CpuConfig parsed_config;
    AttackOptions parsed_options;
    ASSERT_TRUE(parseScenarioKey(key, variant, parsed_config,
                                 parsed_options));
    EXPECT_EQ(variant, registered.id);
    // The canonical key covers every field, so key equality is
    // config/options equality.
    EXPECT_EQ(scenarioKey(variant, parsed_config, parsed_options),
              key);
}

// -------------------------------------------------------------------
// The shard wire format's schema-version tag.
// -------------------------------------------------------------------

TEST(SchemaTag, MismatchedProducersAreRejectedBeforeMerge)
{
    std::string text = shardReportJson(fixtureReport());
    const std::string tag = jsonEscape(wireSchemaTag());
    const std::size_t at = text.find(tag);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, tag.size(),
                 "outcome{somebodyElsesField:u}");
    std::string error;
    EXPECT_FALSE(parseShardReportJson(text, &error));
    EXPECT_NE(error.find("schema mismatch"), std::string::npos)
        << error;
}

TEST(SchemaTag, LegacyTaglessShardReportsStillLoad)
{
    // Files written before the tag existed carry field lists
    // identical to the tagless-era schemas; dropping the schema
    // line reproduces one.
    std::string text = shardReportJson(fixtureReport());
    const std::string line = schemaTagLine();
    const std::size_t at = text.find(line);
    ASSERT_NE(at, std::string::npos);
    text.erase(at, line.size());
    std::string error;
    const auto report = parseShardReportJson(text, &error);
    ASSERT_TRUE(report) << error;
    EXPECT_EQ(report->outcomes.size(), 2u);
}

TEST(SchemaTag, TagNamesEveryOutcomeFieldWithItsType)
{
    // Pinned whole: any change to a field list changes the tag, so a
    // shard report or serve peer from the other side is refused.
    EXPECT_EQ(wireSchemaTag(),
              "result{name:s,recovered:a,expected:a,accuracy:d,"
              "leaked:b,guestCycles:u,transientForwards:u};"
              "stats{cycles:u,committed:u,squashed:u,"
              "branchMispredicts:u,exceptions:u,memOrderViolations:u,"
              "speculativeFills:u,transientForwards:u};"
              "outcome{gridIndex:u,variant:s,defense:s,robSize:u,"
              "permCheckLatency:u,channel:s,mitigations:s,vulns:s,"
              "cache:s,leaked:b,accuracy:d,guestCycles:u,"
              "transientForwards:u,cycles:u,committed:u,squashed:u,"
              "branchMispredicts:u,exceptions:u,wallMillis:d}");
}

// -------------------------------------------------------------------
// One escaping path: every string field goes through jsonEscape.
// -------------------------------------------------------------------

TEST(SchemaEscaping, AttackDescriptorJsonEscapesAliasNames)
{
    core::AttackDescriptor d;
    d.name = "nasty \"name\" with \\ and \x01 control";
    d.aliases = {"alias \"quoted\"", "back\\slash",
                 std::string("ctl\x1f\ttab")};
    d.cve = "CVE-\"?\"";
    d.paperSection = "Sec \\V-A\n";
    const core::AttackDescriptor &registered =
        core::ScenarioCatalog::instance().registerAttack(
            std::move(d));

    const std::string json = attackDescriptorJson(registered);
    // No raw control characters may survive anywhere in the object.
    for (const char c : json)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << json;
    EXPECT_NE(json.find("nasty \\\"name\\\" with \\\\ and "
                        "\\u0001 control"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("alias \\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("back\\\\slash"), std::string::npos);
    EXPECT_NE(json.find("ctl\\u001f\\ttab"), std::string::npos);
    EXPECT_NE(json.find("Sec \\\\V-A\\n"), std::string::npos);
}

TEST(SchemaEscaping, OutcomeEmittersEscapeAwkwardLabels)
{
    ScenarioOutcome o = fixtureOutcome(0, 0, true);
    o.rowLabel = "row \"x\"\nwith\\stuff\x02";
    o.colLabel = "col,with,commas\t";
    const std::string json = outcomeJson(o, false);
    for (const char c : json)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << json;
    EXPECT_NE(json.find(R"("variant": "row \"x\"\nwith\\stuff\u0002")"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find(R"("defense": "col,with,commas\t")"),
              std::string::npos)
        << json;
}

// -------------------------------------------------------------------
// Export-format inference (campaign_cli export).
// -------------------------------------------------------------------

TEST(ExportFormat, InfersFromExtensionCaseInsensitively)
{
    EXPECT_EQ(exportFormatFromPath("out.json"), "json");
    EXPECT_EQ(exportFormatFromPath("OUT.JSONL"), "jsonl");
    EXPECT_EQ(exportFormatFromPath("dir/sub.dir/table.csv"), "csv");
    EXPECT_EQ(exportFormatFromPath("noextension"), "");
    EXPECT_EQ(exportFormatFromPath("wrong.txt"), "");
    EXPECT_EQ(exportFormatFromPath("dotted.dir/noext"), "");
    EXPECT_EQ(exportFormatFromPath("typo.jsnl"), "");
}

TEST(ExportFormat, UnknownFormatsGetSuggestions)
{
    const auto suggestions =
        core::suggestNames(exportFormatNames(), "jsnl");
    ASSERT_FALSE(suggestions.empty());
    EXPECT_EQ(suggestions.front(), "jsonl");
}

} // namespace
