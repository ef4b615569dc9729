/**
 * @file
 * Tests for grid sharding and report merging: the partition is
 * deterministic, dedup-stable, disjoint and complete; the outcome
 * fan-out over a shard or a resume's subset runs each class's first
 * occurrence and emits every listed point once; the scenario
 * key round-trips through parseScenarioKey; a sharded-then-merged
 * report is byte-identical (JSON, CSV, success matrix, golden JSON)
 * to the unsharded report across worker counts 1/2/8; overlapping
 * shard sets (heterogeneous fleet sizes) merge cleanly when they
 * agree; and merge conflicts (cells with different results,
 * mismatched specs) are detected.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "campaign/campaign.hh"
#include "campaign/sink.hh"
#include "regress/golden.hh"
#include "tool/report.hh"
#include "tool/report_io.hh"

namespace
{

using namespace specsec;
using namespace specsec::campaign;
using core::AttackVariant;

DefenseAxis
fenceAxis()
{
    return {"fence(1)", [](CpuConfig &c, AttackOptions &) {
                c.defense.fenceSpeculativeLoads = true;
            }};
}

/** A small spec with dedup (noop column) and a knob sweep. */
ScenarioSpec
sampleSpec()
{
    ScenarioSpec spec;
    spec.name = "shard-sample";
    spec.variants = {AttackVariant::SpectreV1,
                     AttackVariant::Meltdown,
                     AttackVariant::ZombieLoad};
    spec.defenses = {{"baseline", nullptr},
                     {"noop", [](CpuConfig &, AttackOptions &) {}},
                     fenceAxis()};
    spec.permCheckLatencies = {10, 30};
    return spec;
}

/** Records the grid point of every outcome it is handed. */
class RecordingSink : public OutcomeSink
{
  public:
    void consume(const ScenarioOutcome &o) override
    {
        points.push_back(o.gridIndex);
    }

    std::vector<std::size_t> points;
};

/**
 * The fan-out over @p indices (ascending) has one execution per
 * distinct dupOf value they reach, in ascending unique position;
 * execution n runs that position's uniqueIndices entry, whether or
 * not @p indices lists it; and emitting every execution hands the
 * sink each listed point exactly once, each execution's ascending.
 */
void
expectFanOut(const ExpandedGrid &grid,
             const std::vector<std::size_t> &indices)
{
    RecordingSink sink;
    const OutcomeFanOut fanOut(grid, indices, {&sink});
    std::set<std::size_t> backed;
    for (const std::size_t e : indices)
        backed.insert(grid.dupOf[e]);
    ASSERT_EQ(fanOut.size(), backed.size());
    std::size_t n = 0;
    for (const std::size_t p : backed) {
        EXPECT_EQ(&fanOut.scenario(n),
                  &grid.expanded[grid.uniqueIndices[p]]);
        const std::size_t before = sink.points.size();
        fanOut.emit(n++, ScenarioOutcome{});
        ASSERT_GT(sink.points.size(), before);
        EXPECT_TRUE(std::is_sorted(sink.points.begin() + before,
                                   sink.points.end()));
        for (std::size_t i = before; i < sink.points.size(); ++i)
            EXPECT_EQ(grid.dupOf[sink.points[i]], p);
    }
    std::vector<std::size_t> emitted = sink.points;
    std::sort(emitted.begin(), emitted.end());
    EXPECT_EQ(emitted, indices);
}

TEST(Shard, PartitionIsDisjointCompleteAndDedupStable)
{
    const ExpandedGrid grid = dedupGrid(sampleSpec());
    for (const std::size_t n : {1UL, 2UL, 3UL, 7UL}) {
        std::vector<int> expandedSeen(grid.expanded.size(), 0);
        for (std::size_t i = 0; i < n; ++i) {
            const std::vector<std::size_t> indices = grid.shard(i, n);
            EXPECT_TRUE(std::is_sorted(indices.begin(), indices.end()));
            expectFanOut(grid, indices);
            for (const std::size_t e : indices) {
                expandedSeen.at(e) += 1;
                // Dedup-stable: every grid point lands in the
                // shard of its backing unique execution.
                EXPECT_EQ(grid.dupOf[e] % n, i);
            }
        }
        for (const int count : expandedSeen)
            EXPECT_EQ(count, 1) << "shard count " << n;
    }
}

TEST(Shard, FanOutRunsTheFirstOccurrenceOfAPartlyListedClass)
{
    // A resume lists only the missing points: here every point but
    // the first occurrence of a duplicated class, so the class is
    // backed by its later duplicate alone and must still run its
    // uniqueIndices entry.
    const ExpandedGrid grid = dedupGrid(sampleSpec());
    std::size_t first = grid.expanded.size();
    for (std::size_t e = 0; e < grid.expanded.size(); ++e) {
        if (grid.uniqueIndices[grid.dupOf[e]] != e) {
            first = grid.uniqueIndices[grid.dupOf[e]];
            break;
        }
    }
    ASSERT_LT(first, grid.expanded.size()) << "sample has no duplicate";
    std::vector<std::size_t> missing;
    for (std::size_t e = 0; e < grid.expanded.size(); ++e)
        if (e != first)
            missing.push_back(e);
    expectFanOut(grid, missing);
}

TEST(Shard, SingleShardSelectsEverything)
{
    const ExpandedGrid grid = dedupGrid(sampleSpec());
    EXPECT_EQ(grid.shard(0, 1).size(), grid.expanded.size());
}

TEST(Shard, SelectionIsDeterministic)
{
    const ExpandedGrid grid = dedupGrid(sampleSpec());
    EXPECT_EQ(grid.shard(1, 3), grid.shard(1, 3));
}

TEST(Shard, OutOfRangeIndexSelectsNothing)
{
    const ExpandedGrid grid = dedupGrid(sampleSpec());
    EXPECT_TRUE(grid.shard(5, 2).empty());
}

TEST(Shard, ScenarioKeyRoundTrips)
{
    // Every scenario of a sweep with all grid dimensions active
    // reconstructs exactly from its canonical key.
    ScenarioSpec spec = sampleSpec();
    SoftwareMitigation kpti;
    kpti.label = "kpti";
    kpti.toggles.kpti = true;
    spec.mitigations = {SoftwareMitigation{}, kpti};
    CacheGeometry small;
    small.label = "small";
    small.cache.sets = 64;
    spec.cacheGeometries = {CacheGeometry{}, small};
    spec.channels = {core::CovertChannelKind::FlushReload,
                     core::CovertChannelKind::PrimeProbe};

    for (const Scenario &s : expandGrid(spec)) {
        AttackVariant variant{};
        CpuConfig config;
        AttackOptions options;
        ASSERT_TRUE(
            parseScenarioKey(s.key, variant, config, options));
        EXPECT_EQ(variant, s.variant);
        // Re-keying the parsed triple reproduces the key exactly,
        // so every config/options field survived the round trip.
        EXPECT_EQ(scenarioKey(variant, config, options), s.key);
    }
}

TEST(Shard, ParseScenarioKeyRejectsMalformedKeys)
{
    AttackVariant variant{};
    CpuConfig config;
    AttackOptions options;
    EXPECT_FALSE(parseScenarioKey("", variant, config, options));
    EXPECT_FALSE(
        parseScenarioKey("1;2;3;", variant, config, options));
    EXPECT_FALSE(
        parseScenarioKey("not-a-key", variant, config, options));
    const std::string good =
        scenarioKey(AttackVariant::SpectreV1, CpuConfig{},
                    AttackOptions{});
    EXPECT_TRUE(
        parseScenarioKey(good, variant, config, options));
    // Truncated and extended keys both fail.
    EXPECT_FALSE(parseScenarioKey(
        good.substr(0, good.size() - 2), variant, config,
        options));
    EXPECT_FALSE(
        parseScenarioKey(good + "7;", variant, config, options));
    // Well-formed keys naming a cache the simulator cannot build
    // fail too: zero or non-power-of-two sets/lineSize, zero ways.
    for (const auto mutate :
         {+[](CpuConfig &c) { c.cache.sets = 0; },
          +[](CpuConfig &c) { c.cache.sets = 100; },
          +[](CpuConfig &c) { c.cache.ways = 0; },
          +[](CpuConfig &c) { c.cache.lineSize = 48; }}) {
        CpuConfig bad;
        mutate(bad);
        EXPECT_FALSE(parseScenarioKey(
            scenarioKey(AttackVariant::Meltdown, bad,
                        AttackOptions{}),
            variant, config, options));
    }
}

TEST(Shard, ShardedThenMergedIsByteIdentical)
{
    const ScenarioSpec spec = sampleSpec();
    const CampaignReport full =
        CampaignEngine(CampaignEngine::Options{1}).run(spec);
    const std::string fullJson = tool::campaignJson(full, false);
    const std::string fullCsv = tool::campaignCsv(full, false);
    const std::string fullGolden =
        regress::goldenJson(regress::GoldenMatrix::fromReport(full));

    for (const unsigned workers : {1u, 2u, 8u}) {
        for (const std::size_t n : {2UL, 3UL}) {
            const CampaignEngine engine(
                CampaignEngine::Options{workers});
            CampaignReport merged;
            bool first = true;
            for (std::size_t i = 0; i < n; ++i) {
                // Round-trip every shard through the wire format,
                // exactly like the multi-process pipeline.
                const CampaignReport shard =
                    engine.run(spec, ShardRange{i, n});
                EXPECT_TRUE(shard.partial());
                EXPECT_EQ(shard.shardIndex, i);
                EXPECT_EQ(shard.shardCount, n);
                std::string error;
                auto parsed = tool::parseShardReportJson(
                    tool::shardReportJson(shard), &error);
                ASSERT_TRUE(parsed.has_value()) << error;
                if (first) {
                    merged = std::move(*parsed);
                    first = false;
                } else {
                    ASSERT_TRUE(merged.merge(*parsed, &error))
                        << error;
                }
            }
            EXPECT_FALSE(merged.partial());
            EXPECT_EQ(merged.shardCount, 1u);
            EXPECT_EQ(tool::campaignJson(merged, false), fullJson)
                << "workers=" << workers << " shards=" << n;
            EXPECT_EQ(tool::campaignCsv(merged, false), fullCsv)
                << "workers=" << workers << " shards=" << n;
            EXPECT_EQ(merged.successMatrixText(),
                      full.successMatrixText());
            // The golden gate's comparison input is byte-identical
            // too: a sharded CI lane checks the same bytes.
            EXPECT_EQ(regress::goldenJson(
                          regress::GoldenMatrix::fromReport(
                              merged)),
                      fullGolden);
        }
    }
}

TEST(Shard, MergeIsOrderIndependent)
{
    const ScenarioSpec spec = sampleSpec();
    const CampaignEngine engine(CampaignEngine::Options{2});
    const CampaignReport s0 = engine.run(spec, ShardRange{0, 3});
    const CampaignReport s1 = engine.run(spec, ShardRange{1, 3});
    const CampaignReport s2 = engine.run(spec, ShardRange{2, 3});

    CampaignReport forward = s0;
    ASSERT_TRUE(forward.merge(s1));
    ASSERT_TRUE(forward.merge(s2));
    CampaignReport backward = s2;
    ASSERT_TRUE(backward.merge(s0));
    ASSERT_TRUE(backward.merge(s1));
    EXPECT_EQ(tool::campaignJson(forward, false),
              tool::campaignJson(backward, false));
    EXPECT_EQ(tool::campaignCsv(forward, false),
              tool::campaignCsv(backward, false));
}

TEST(Shard, MergeAcceptsAgreeingOverlap)
{
    // Every timing-free result field is a pure function of the
    // cell's configuration, so two runs covering the same
    // gridIndex agree by construction — merging a shard into
    // itself is a no-op on outcomes with summed provenance.
    const ScenarioSpec spec = sampleSpec();
    const CampaignEngine engine(CampaignEngine::Options{1});
    const CampaignReport s0 = engine.run(spec, ShardRange{0, 2});

    CampaignReport merged = s0;
    std::string error;
    EXPECT_TRUE(merged.merge(s0, &error)) << error;
    EXPECT_EQ(merged.outcomes.size(), s0.outcomes.size());
    EXPECT_EQ(tool::campaignCsv(merged, false),
              tool::campaignCsv(s0, false));
    // The overlap really was executed twice; provenance says so.
    EXPECT_EQ(merged.executedCount + merged.cacheHits,
              2 * (s0.executedCount + s0.cacheHits));
}

TEST(Shard, HeterogeneousShardCountsMergeCleanly)
{
    // A 3-shard and a 2-shard fleet of the same spec overlap in
    // arbitrary ways; their union must still equal the unsharded
    // run byte-for-byte in every timing-free export.
    const ScenarioSpec spec = sampleSpec();
    const CampaignEngine engine(CampaignEngine::Options{2});
    const CampaignReport whole = engine.run(spec);

    CampaignReport merged = engine.run(spec, ShardRange{0, 3});
    std::string error;
    ASSERT_TRUE(
        merged.merge(engine.run(spec, ShardRange{1, 3}), &error))
        << error;
    ASSERT_TRUE(
        merged.merge(engine.run(spec, ShardRange{0, 2}), &error))
        << error;
    ASSERT_TRUE(
        merged.merge(engine.run(spec, ShardRange{1, 2}), &error))
        << error;
    ASSERT_FALSE(merged.partial());
    EXPECT_EQ(tool::campaignJson(merged, false),
              tool::campaignJson(whole, false));
    EXPECT_EQ(tool::campaignCsv(merged, false),
              tool::campaignCsv(whole, false));
    EXPECT_EQ(merged.successMatrixText(),
              whole.successMatrixText());
}

TEST(Shard, MergeDetectsConflictingOverlap)
{
    // Same gridIndex, different results: a genuinely conflicting
    // cell (here: a doctored leak flag) must still fail the merge
    // and leave the target unchanged.
    const ScenarioSpec spec = sampleSpec();
    const CampaignEngine engine(CampaignEngine::Options{1});
    const CampaignReport s0 = engine.run(spec, ShardRange{0, 2});

    CampaignReport doctored = s0;
    ASSERT_FALSE(doctored.outcomes.empty());
    doctored.outcomes.front().result.leaked =
        !doctored.outcomes.front().result.leaked;
    doctored.outcomes.front().result.accuracy = 0.123;

    CampaignReport merged = s0;
    std::string error;
    EXPECT_FALSE(merged.merge(doctored, &error));
    EXPECT_NE(error.find("conflicting"), std::string::npos);
    EXPECT_EQ(tool::campaignCsv(merged, false),
              tool::campaignCsv(s0, false));
}

TEST(Shard, MergeDetectsMismatchedSpecs)
{
    ScenarioSpec spec = sampleSpec();
    const CampaignEngine engine(CampaignEngine::Options{1});
    const CampaignReport s0 = engine.run(spec, ShardRange{0, 2});

    ScenarioSpec renamed = spec;
    renamed.name = "other-spec";
    CampaignReport merged = s0;
    std::string error;
    EXPECT_FALSE(merged.merge(
        engine.run(renamed, ShardRange{1, 2}), &error));
    EXPECT_NE(error.find("name"), std::string::npos);

    // Different grid shape under the same name.
    ScenarioSpec wider = spec;
    wider.name = spec.name;
    wider.robSizes = {32, 48};
    error.clear();
    EXPECT_FALSE(merged.merge(
        engine.run(wider, ShardRange{1, 2}), &error));
    EXPECT_FALSE(error.empty());

    // Different column labels.
    ScenarioSpec relabeled = spec;
    relabeled.defenses[2].label = "fence-renamed";
    error.clear();
    EXPECT_FALSE(merged.merge(
        engine.run(relabeled, ShardRange{1, 2}), &error));
    EXPECT_NE(error.find("label"), std::string::npos);
}

TEST(Shard, ShardReportJsonRoundTrips)
{
    const ScenarioSpec spec = sampleSpec();
    const CampaignReport shard =
        CampaignEngine(CampaignEngine::Options{1})
            .run(spec, ShardRange{1, 2});
    const std::string wire = tool::shardReportJson(shard);

    std::string error;
    const auto parsed = tool::parseShardReportJson(wire, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->name, shard.name);
    EXPECT_EQ(parsed->rowLabels, shard.rowLabels);
    EXPECT_EQ(parsed->colLabels, shard.colLabels);
    EXPECT_EQ(parsed->expandedCount, shard.expandedCount);
    EXPECT_EQ(parsed->uniqueCount, shard.uniqueCount);
    EXPECT_EQ(parsed->shardIndex, 1u);
    EXPECT_EQ(parsed->shardCount, 2u);
    EXPECT_EQ(parsed->executedCount, shard.executedCount);
    ASSERT_EQ(parsed->outcomes.size(), shard.outcomes.size());
    for (std::size_t i = 0; i < shard.outcomes.size(); ++i) {
        const ScenarioOutcome &a = shard.outcomes[i];
        const ScenarioOutcome &b = parsed->outcomes[i];
        EXPECT_EQ(a.gridIndex, b.gridIndex);
        EXPECT_EQ(a.variant, b.variant);
        EXPECT_EQ(a.result.leaked, b.result.leaked);
        EXPECT_EQ(a.result.recovered, b.result.recovered);
        EXPECT_EQ(a.result.accuracy, b.result.accuracy);
        EXPECT_EQ(a.stats.cycles, b.stats.cycles);
        EXPECT_EQ(scenarioKey(a.variant, a.config, a.options),
                  scenarioKey(b.variant, b.config, b.options));
    }
    // Stable serialization: emit(parse(emit(x))) == emit(x).
    EXPECT_EQ(tool::shardReportJson(*parsed), wire);
}

TEST(Shard, ParseShardReportRejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(tool::parseShardReportJson("", &error));
    EXPECT_FALSE(tool::parseShardReportJson("not json", &error));
    EXPECT_FALSE(tool::parseShardReportJson("{}", &error));
    EXPECT_FALSE(error.empty());

    const ScenarioSpec spec = sampleSpec();
    const std::string wire = tool::shardReportJson(
        CampaignEngine(CampaignEngine::Options{1})
            .run(spec, ShardRange{0, 2}));
    // Truncation and trailing garbage both fail.
    EXPECT_FALSE(tool::parseShardReportJson(
        wire.substr(0, wire.size() / 2), &error));
    EXPECT_FALSE(tool::parseShardReportJson(wire + "x", &error));
    // Unsupported version fails.
    std::string wrong = wire;
    const std::string needle = "\"version\": 1";
    wrong.replace(wrong.find(needle), needle.size(),
                  "\"version\": 999");
    EXPECT_FALSE(tool::parseShardReportJson(wrong, &error));
    EXPECT_NE(error.find("version"), std::string::npos);
    // An outcome outside the report's rows or columns fails instead
    // of indexing past the matrix (GoldenMatrix::fromReport read out
    // of bounds on one).
    for (const std::string field : {"\"row\": ", "\"col\": "}) {
        std::string stray = wire;
        stray.insert(stray.find(field) + field.size(), "99");
        EXPECT_FALSE(tool::parseShardReportJson(stray, &error));
        EXPECT_NE(error.find("row/col out of range"), std::string::npos)
            << error;
    }
    // The second outcome line replaced by a copy of the first, or
    // moved past the grid: both used to merge as a complete report
    // with a bogus row.
    const std::string open = "{\"gridIndex\": ";
    const std::size_t one = wire.find(open);
    const std::size_t two = wire.find(open, one + 1);
    std::string repeated = wire;
    repeated.replace(two, wire.find('\n', two) - two,
                     wire.substr(one, wire.find('\n', one) - one));
    EXPECT_FALSE(tool::parseShardReportJson(repeated, &error));
    EXPECT_NE(error.find("gridIndex not ascending"), std::string::npos)
        << error;
    const std::size_t digits = two + open.size();
    std::string past = wire;
    past.replace(digits, wire.find(',', digits) - digits, "999");
    EXPECT_FALSE(tool::parseShardReportJson(past, &error));
    EXPECT_NE(error.find("gridIndex out of range"), std::string::npos)
        << error;
}

} // namespace
