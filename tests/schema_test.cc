/**
 * @file
 * Tests for the OutcomeSchema field registry (src/tool/schema.hh):
 *
 *  - Byte-identity: every serialization surface the schema now
 *    drives (outcome JSON, CSV header/rows, campaignJson /
 *    campaignCsv / campaignJsonl, the shard wire format, the
 *    result/stats wire fragments, cache files, golden matrices)
 *    is pinned against literals captured from the pre-schema
 *    hand-rolled formatters.  If one of these tests fails, a
 *    format changed — that is a compatibility break, not a test to
 *    update casually.
 *  - Round-trip fuzz: schemaParse(schemaEmit(outcome)) == outcome
 *    across all field types, through the set hooks (including the
 *    mitigations/vulns/cache summary inverses).
 *  - parseScenarioKey round-trips for catalog-extension
 *    (synthetic-slot) attacks.
 *  - The shard wire format's schema tag: mismatched producers are
 *    rejected before CampaignReport::merge can misparse them;
 *    legacy tagless files still load.
 *  - One escaping path: attackDescriptorJson and the schema JSON
 *    emitters route every string through tool::jsonEscape
 *    (regression: quotes/backslashes/control chars in attack alias
 *    names).
 *  - Committed goldens under golden/ parse + re-emit
 *    byte-identically (the same invariant the CI schema-drift job
 *    checks end-to-end via --record).
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <filesystem>
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
    r.scenariosPerSecond = 571.428571;
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
// Round-trip fuzz: schemaParse(schemaEmit(outcome)) == outcome.
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

ScenarioOutcome
randomOutcome(std::mt19937 &rng)
{
    std::uniform_int_distribution<std::uint64_t> u64(0, 1u << 30);
    std::uniform_int_distribution<int> coin(0, 1);
    std::uniform_int_distribution<int> tenthousandths(0, 10000);
    ScenarioOutcome o;
    o.gridIndex = u64(rng);
    o.rowLabel = randomLabel(rng);
    o.colLabel = randomLabel(rng);
    o.config.robSize = 1 + u64(rng) % 512;
    o.config.permCheckLatency =
        static_cast<unsigned>(u64(rng) % 100);
    o.options.channel = coin(rng)
                            ? core::CovertChannelKind::PrimeProbe
                            : core::CovertChannelKind::FlushReload;
    o.options.kpti = coin(rng);
    o.options.rsbStuffing = coin(rng);
    o.options.softwareLfence = coin(rng);
    o.options.addressMasking = coin(rng);
    o.options.flushL1OnExit = coin(rng);
    o.config.vuln.meltdown = coin(rng);
    o.config.vuln.l1tf = coin(rng);
    o.config.vuln.mds = coin(rng);
    o.config.vuln.lazyFp = coin(rng);
    o.config.vuln.storeBypass = coin(rng);
    o.config.vuln.msr = coin(rng);
    o.config.vuln.taa = coin(rng);
    o.config.cache.sets = 1 + u64(rng) % 4096;
    o.config.cache.ways = 1 + u64(rng) % 16;
    o.config.cache.lineSize = 16 << (u64(rng) % 4);
    o.config.cache.hitLatency =
        static_cast<std::uint32_t>(1 + u64(rng) % 20);
    o.config.cache.missLatency =
        static_cast<std::uint32_t>(20 + u64(rng) % 400);
    o.result.leaked = coin(rng);
    // The export renders doubles as %.4f: any multiple of 1/10000
    // survives emit -> parse exactly, so equality below is exact.
    o.result.accuracy = tenthousandths(rng) / 10000.0;
    o.result.guestCycles = u64(rng);
    o.result.transientForwards = u64(rng);
    o.stats.cycles = u64(rng);
    o.stats.committed = u64(rng);
    o.stats.squashed = u64(rng);
    o.stats.branchMispredicts = u64(rng);
    o.stats.exceptions = u64(rng);
    o.wallMillis = tenthousandths(rng) / 10000.0;
    return o;
}

TEST(SchemaRoundTrip, FuzzedOutcomesSurviveEmitParseExactly)
{
    std::mt19937 rng(20260728);
    for (int iter = 0; iter < 300; ++iter) {
        const ScenarioOutcome original = randomOutcome(rng);
        const std::string emitted = outcomeJson(original, true);

        json::Cursor cur(emitted);
        ScenarioOutcome parsed;
        ASSERT_TRUE(outcomeSchema().parseJsonObject(cur, parsed))
            << cur.error() << "\nin: " << emitted;
        ASSERT_TRUE(cur.atEnd());

        // Field-for-field equality through the registry: every
        // declared getter sees the same value on both sides...
        for (const auto &field : outcomeSchema().fields())
            EXPECT_EQ(field.get(original), field.get(parsed))
                << field.name << "\nin: " << emitted;
        // ...and the set hooks really hit the backing structs (the
        // summary parsers invert their formatters).
        EXPECT_EQ(parsed.rowLabel, original.rowLabel);
        EXPECT_EQ(parsed.options.kpti, original.options.kpti);
        EXPECT_EQ(parsed.options.channel, original.options.channel);
        EXPECT_EQ(parsed.config.vuln.mds, original.config.vuln.mds);
        EXPECT_EQ(parsed.config.cache.sets,
                  original.config.cache.sets);
        EXPECT_EQ(parsed.config.cache.missLatency,
                  original.config.cache.missLatency);
        EXPECT_EQ(parsed.result.accuracy, original.result.accuracy);
        EXPECT_EQ(parsed.wallMillis, original.wallMillis);

        // Emit -> parse -> emit is a fixed point.
        EXPECT_EQ(outcomeJson(parsed, true), emitted);
    }
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

TEST(SchemaRoundTrip, UnparseableSummaryValuesFailLoudly)
{
    // A type-correct but meaningless value (unknown channel name,
    // misspelled mitigation) must fail the parse, not silently
    // leave the field at its default.
    for (const std::string doc :
         {R"({"channel": "carrier-pigeon"})",
          R"({"mitigations": "kpti+typo"})",
          R"({"vulns": "no-everything"})",
          R"({"cache": "not-a-geometry"})"}) {
        json::Cursor cur(doc);
        ScenarioOutcome parsed;
        EXPECT_FALSE(outcomeSchema().parseJsonObject(cur, parsed))
            << doc;
        EXPECT_NE(cur.error().find("bad value"), std::string::npos)
            << doc << " -> " << cur.error();
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
    const std::string ints = "[1, 99999999999999999999]";
    json::Cursor array(ints);
    json::parseIntArray(array);
    EXPECT_NE(array.error().find("integer out of range"),
              std::string::npos)
        << array.error();
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
    const std::string tag = wireSchemaTag();
    for (const auto &field : outcomeSchema().fields()) {
        std::string expect = field.name;
        expect += ':';
        expect += fieldTypeCode(field.type);
        EXPECT_NE(tag.find(expect), std::string::npos)
            << expect << " missing from " << tag;
    }
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
    // And the same label round-trips exactly through the parser.
    json::Cursor cur(json);
    ScenarioOutcome parsed;
    ASSERT_TRUE(outcomeSchema().parseJsonObject(cur, parsed));
    EXPECT_EQ(parsed.rowLabel, o.rowLabel);
    EXPECT_EQ(parsed.colLabel, o.colLabel);
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
