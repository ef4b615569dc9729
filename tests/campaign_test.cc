/**
 * @file
 * Tests for the campaign engine: grid expansion counts, config
 * deduplication, report aggregation, and the determinism contract —
 * the parallel engine produces byte-identical results to a serial
 * run of the same spec.
 */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "attacks/runner.hh"
#include "campaign/campaign.hh"
#include "tool/report.hh"
#include "verdict/verdict.hh"

namespace
{

using namespace specsec;
using namespace specsec::campaign;
using core::AttackVariant;
using core::CovertChannelKind;

DefenseAxis
fenceAxis()
{
    return {"fence(1)", [](CpuConfig &c, AttackOptions &) {
                c.defense.fenceSpeculativeLoads = true;
            }};
}

DefenseAxis
flushAxis()
{
    return {"flush(4)", [](CpuConfig &c, AttackOptions &) {
                c.defense.flushPredictorOnContextSwitch = true;
            }};
}

TEST(Grid, ExpansionCounts)
{
    ScenarioSpec spec;
    spec.variants = {AttackVariant::SpectreV1,
                     AttackVariant::Meltdown};
    spec.defenses = {{"baseline", nullptr}, fenceAxis(), flushAxis()};
    spec.robSizes = {32, 48, 64};
    spec.permCheckLatencies = {10, 30};
    spec.channels = {CovertChannelKind::FlushReload};
    EXPECT_EQ(spec.gridSize(), 2u * 3u * 3u * 2u * 1u);
    const std::vector<Scenario> grid = expandGrid(spec);
    ASSERT_EQ(grid.size(), spec.gridSize());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(grid[i].gridIndex, i);
        EXPECT_LT(grid[i].row, 2u);
        EXPECT_LT(grid[i].col, 3u);
    }
    // Row-major order: the first variant fills the first half.
    EXPECT_EQ(grid.front().variant, AttackVariant::SpectreV1);
    EXPECT_EQ(grid.back().variant, AttackVariant::Meltdown);
}

TEST(Grid, EmptySpecDefaults)
{
    ScenarioSpec spec;
    EXPECT_EQ(spec.gridSize(), core::allVariants().size());
    const std::vector<Scenario> grid = expandGrid(spec);
    ASSERT_EQ(grid.size(), core::allVariants().size());
    EXPECT_EQ(grid.front().colLabel, "baseline");
    EXPECT_EQ(grid.front().config.robSize, spec.baseConfig.robSize);
}

TEST(Grid, DedupIdenticalKnobValues)
{
    ScenarioSpec spec;
    spec.variants = {AttackVariant::SpectreV1};
    spec.robSizes = {48, 48};
    const ExpandedGrid g = dedupGrid(spec);
    EXPECT_EQ(g.expanded.size(), 2u);
    ASSERT_EQ(g.uniqueIndices.size(), 1u);
    EXPECT_EQ(g.uniqueIndices[0], 0u);
    EXPECT_EQ(g.dupOf, (std::vector<std::size_t>{0, 0}));
}

TEST(Grid, DedupNoOpDefenseColumn)
{
    // A defense column whose mutation is a no-op produces cells
    // identical to the baseline column: executed once, reported in
    // both columns.
    ScenarioSpec spec;
    spec.variants = {AttackVariant::SpectreV1,
                     AttackVariant::Meltdown};
    spec.defenses = {{"baseline", nullptr},
                     {"noop", [](CpuConfig &, AttackOptions &) {}},
                     fenceAxis()};
    const ExpandedGrid g = dedupGrid(spec);
    EXPECT_EQ(g.expanded.size(), 6u);
    EXPECT_EQ(g.uniqueIndices.size(), 4u);

    const CampaignEngine engine(CampaignEngine::Options{1});
    const CampaignReport report = engine.run(spec);
    EXPECT_EQ(report.expandedCount, 6u);
    EXPECT_EQ(report.uniqueCount, 4u);
    ASSERT_EQ(report.outcomes.size(), 6u);
    for (std::size_t r = 0; r < 2; ++r) {
        EXPECT_EQ(report.cellGlyph(r, 0), report.cellGlyph(r, 1));
        EXPECT_EQ(report.outcomes[r * 3].result.accuracy,
                  report.outcomes[r * 3 + 1].result.accuracy);
    }
}

TEST(Grid, NewDimensionsMultiplyTheGrid)
{
    ScenarioSpec spec;
    spec.variants = {AttackVariant::SpectreV1};
    SoftwareMitigation kpti;
    kpti.label = "kpti";
    kpti.toggles.kpti = true;
    spec.mitigations = {SoftwareMitigation{}, kpti};
    uarch::VulnConfig noMds;
    noMds.mds = false;
    spec.vulnAblations = {{"all", uarch::VulnConfig{}},
                          {"no-mds", noMds}};
    CacheGeometry small;
    small.label = "small";
    small.cache.sets = 64;
    spec.cacheGeometries = {CacheGeometry{}, small};
    EXPECT_EQ(spec.gridSize(), 1u * 1u * 2u * 2u * 2u);
    const std::vector<Scenario> grid = expandGrid(spec);
    ASSERT_EQ(grid.size(), 8u);
    // Each dimension lands in the expanded cell's config/options.
    EXPECT_FALSE(grid[0].options.kpti);
    EXPECT_TRUE(grid[4].options.kpti); // mitigation is the outermost
    EXPECT_TRUE(grid[0].config.vuln.mds);
    EXPECT_FALSE(grid[2].config.vuln.mds);
    EXPECT_EQ(grid[0].config.cache.sets, 256u);
    EXPECT_EQ(grid[1].config.cache.sets, 64u);
    // All eight cells are distinct experiments.
    const ExpandedGrid g = dedupGrid(spec);
    EXPECT_EQ(g.uniqueIndices.size(), 8u);
}

TEST(Grid, DefenseColumnWinsOverKnobDimensions)
{
    // A defense column that pins a field overrides the sweep value,
    // so both sweep cells collapse onto one experiment.
    ScenarioSpec spec;
    spec.variants = {AttackVariant::SpectreV1};
    spec.defenses = {{"pin-cache",
                      [](CpuConfig &c, AttackOptions &) {
                          c.cache.sets = 512;
                      }}};
    CacheGeometry small;
    small.label = "small";
    small.cache.sets = 64;
    spec.cacheGeometries = {CacheGeometry{}, small};
    const ExpandedGrid g = dedupGrid(spec);
    EXPECT_EQ(g.expanded.size(), 2u);
    EXPECT_EQ(g.uniqueIndices.size(), 1u);
    EXPECT_EQ(g.expanded[0].config.cache.sets, 512u);
}

TEST(Grid, BadCacheGeometryFailsBeforeAnyCellRuns)
{
    ScenarioSpec spec;
    spec.variants = {AttackVariant::Meltdown};
    CacheGeometry odd;
    odd.label = "odd-100x4";
    odd.cache.sets = 100;
    spec.cacheGeometries = {CacheGeometry{}, odd};
    try {
        (void)expandGrid(spec);
        FAIL() << "expandGrid accepted 100 sets";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("odd-100x4"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("power of two"),
                  std::string::npos)
            << e.what();
    }
    CampaignEngine::Options opts;
    opts.workers = 1;
    EXPECT_THROW(CampaignEngine(opts).run(spec),
                 std::invalid_argument);

    // A defense column that pins a bad geometry is caught too.
    spec.cacheGeometries.clear();
    spec.defenses = {{"zero-ways", [](CpuConfig &c, AttackOptions &) {
                          c.cache.ways = 0;
                      }}};
    EXPECT_THROW(expandGrid(spec), std::invalid_argument);
}

TEST(Grid, KeyCoversConfigAndOptions)
{
    const CpuConfig base;
    const AttackOptions opts;
    const std::string k0 =
        scenarioKey(AttackVariant::SpectreV1, base, opts);
    EXPECT_EQ(k0, scenarioKey(AttackVariant::SpectreV1, base, opts));
    EXPECT_NE(k0, scenarioKey(AttackVariant::SpectreV2, base, opts));

    CpuConfig rob = base;
    rob.robSize = 64;
    EXPECT_NE(k0, scenarioKey(AttackVariant::SpectreV1, rob, opts));

    CpuConfig fence = base;
    fence.defense.fenceSpeculativeLoads = true;
    EXPECT_NE(k0, scenarioKey(AttackVariant::SpectreV1, fence, opts));

    AttackOptions pp = opts;
    pp.channel = CovertChannelKind::PrimeProbe;
    EXPECT_NE(k0, scenarioKey(AttackVariant::SpectreV1, base, pp));

    AttackOptions kpti = opts;
    kpti.kpti = true;
    EXPECT_NE(k0, scenarioKey(AttackVariant::SpectreV1, base, kpti));
}

TEST(Grid, KeyIsExhaustiveOverEveryField)
{
    // Tripwire companion to the static_asserts in campaign.cc: for
    // every field of CpuConfig (including nested CacheConfig /
    // VulnConfig / HwDefenseConfig) and AttackOptions, a config
    // differing only in that field must produce a distinct key.  A
    // field missing from scenarioKey() would silently fold distinct
    // scenarios in dedup and the result cache.
    const CpuConfig base;
    const AttackOptions opts;
    std::vector<std::pair<std::string, std::string>> keys;
    keys.emplace_back("base", scenarioKey(AttackVariant::SpectreV1,
                                          base, opts));
    keys.emplace_back("variant",
                      scenarioKey(AttackVariant::Meltdown, base,
                                  opts));

    const auto addConfig = [&](const char *name, auto mutate) {
        CpuConfig c = base;
        mutate(c);
        keys.emplace_back(
            name, scenarioKey(AttackVariant::SpectreV1, c, opts));
    };
    const auto addOpts = [&](const char *name, auto mutate) {
        AttackOptions o = opts;
        mutate(o);
        keys.emplace_back(
            name, scenarioKey(AttackVariant::SpectreV1, base, o));
    };

    // CpuConfig scalars.
    addConfig("robSize", [](CpuConfig &c) { c.robSize = 99; });
    addConfig("fetchWidth", [](CpuConfig &c) { c.fetchWidth = 9; });
    addConfig("commitWidth",
              [](CpuConfig &c) { c.commitWidth = 9; });
    addConfig("permCheckLatency",
              [](CpuConfig &c) { c.permCheckLatency = 99; });
    addConfig("branchResolveLatency",
              [](CpuConfig &c) { c.branchResolveLatency = 99; });
    addConfig("retResolveLatency",
              [](CpuConfig &c) { c.retResolveLatency = 99; });
    addConfig("exceptionDeliveryLatency", [](CpuConfig &c) {
        c.exceptionDeliveryLatency = 99;
    });
    addConfig("txnAbortDetectLatency", [](CpuConfig &c) {
        c.txnAbortDetectLatency = 99;
    });
    addConfig("partialAliasPenalty",
              [](CpuConfig &c) { c.partialAliasPenalty = 99; });
    addConfig("physAliasPenalty",
              [](CpuConfig &c) { c.physAliasPenalty = 99; });
    addConfig("rsbDepth", [](CpuConfig &c) { c.rsbDepth = 99; });
    addConfig("lfbEntries", [](CpuConfig &c) { c.lfbEntries = 99; });
    // CacheConfig.
    addConfig("cache.sets", [](CpuConfig &c) { c.cache.sets = 99; });
    addConfig("cache.ways", [](CpuConfig &c) { c.cache.ways = 99; });
    addConfig("cache.lineSize",
              [](CpuConfig &c) { c.cache.lineSize = 99; });
    addConfig("cache.hitLatency",
              [](CpuConfig &c) { c.cache.hitLatency = 99; });
    addConfig("cache.missLatency",
              [](CpuConfig &c) { c.cache.missLatency = 99; });
    // VulnConfig.
    addConfig("vuln.meltdown",
              [](CpuConfig &c) { c.vuln.meltdown = false; });
    addConfig("vuln.l1tf", [](CpuConfig &c) { c.vuln.l1tf = false; });
    addConfig("vuln.mds", [](CpuConfig &c) { c.vuln.mds = false; });
    addConfig("vuln.lazyFp",
              [](CpuConfig &c) { c.vuln.lazyFp = false; });
    addConfig("vuln.storeBypass",
              [](CpuConfig &c) { c.vuln.storeBypass = false; });
    addConfig("vuln.msr", [](CpuConfig &c) { c.vuln.msr = false; });
    addConfig("vuln.taa", [](CpuConfig &c) { c.vuln.taa = false; });
    // HwDefenseConfig.
    addConfig("defense.fenceSpeculativeLoads", [](CpuConfig &c) {
        c.defense.fenceSpeculativeLoads = true;
    });
    addConfig("defense.blockSpeculativeForwarding",
              [](CpuConfig &c) {
                  c.defense.blockSpeculativeForwarding = true;
              });
    addConfig("defense.blockTaintedTransmit", [](CpuConfig &c) {
        c.defense.blockTaintedTransmit = true;
    });
    addConfig("defense.invisibleSpeculation", [](CpuConfig &c) {
        c.defense.invisibleSpeculation = true;
    });
    addConfig("defense.cleanupSpec",
              [](CpuConfig &c) { c.defense.cleanupSpec = true; });
    addConfig("defense.conditionalSpeculation", [](CpuConfig &c) {
        c.defense.conditionalSpeculation = true;
    });
    addConfig("defense.partitionedCache", [](CpuConfig &c) {
        c.defense.partitionedCache = true;
    });
    addConfig("defense.flushPredictorOnContextSwitch",
              [](CpuConfig &c) {
                  c.defense.flushPredictorOnContextSwitch = true;
              });
    addConfig("defense.noIndirectPrediction", [](CpuConfig &c) {
        c.defense.noIndirectPrediction = true;
    });
    addConfig("defense.noBranchPrediction", [](CpuConfig &c) {
        c.defense.noBranchPrediction = true;
    });
    addConfig("defense.clearBuffersOnContextSwitch",
              [](CpuConfig &c) {
                  c.defense.clearBuffersOnContextSwitch = true;
              });
    addConfig("defense.eagerFpuSwitch", [](CpuConfig &c) {
        c.defense.eagerFpuSwitch = true;
    });
    addConfig("defense.safeStoreBypass", [](CpuConfig &c) {
        c.defense.safeStoreBypass = true;
    });
    // AttackOptions.
    addOpts("channel", [](AttackOptions &o) {
        o.channel = CovertChannelKind::PrimeProbe;
    });
    addOpts("secretLen", [](AttackOptions &o) { o.secretLen = 99; });
    addOpts("flushL1OnExit",
            [](AttackOptions &o) { o.flushL1OnExit = true; });
    addOpts("kpti", [](AttackOptions &o) { o.kpti = true; });
    addOpts("rsbStuffing",
            [](AttackOptions &o) { o.rsbStuffing = true; });
    addOpts("softwareLfence",
            [](AttackOptions &o) { o.softwareLfence = true; });
    addOpts("addressMasking",
            [](AttackOptions &o) { o.addressMasking = true; });
    addOpts("trainingRounds",
            [](AttackOptions &o) { o.trainingRounds = 99; });
    addOpts("delayAuthorization",
            [](AttackOptions &o) { o.delayAuthorization = false; });

    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i].second, keys[j].second)
                << "scenarioKey() does not separate '"
                << keys[i].first << "' from '" << keys[j].first
                << "'";
}

TEST(Cache, RepeatedCampaignsExecuteOnce)
{
    ScenarioSpec spec;
    spec.variants = {AttackVariant::SpectreV1,
                     AttackVariant::Meltdown};
    spec.defenses = {{"baseline", nullptr}, fenceAxis()};

    ResultCache cache;
    CampaignEngine::Options opts;
    opts.workers = 2;
    opts.cache = &cache;
    const CampaignEngine engine(opts);

    const CampaignReport first = engine.run(spec);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(first.executedCount, first.uniqueCount);
    EXPECT_EQ(cache.size(), first.uniqueCount);

    const CampaignReport second = engine.run(spec);
    EXPECT_EQ(second.cacheHits, second.uniqueCount);
    EXPECT_EQ(second.executedCount, 0u);
    EXPECT_EQ(cache.size(), first.uniqueCount);

    // Cached results are the same experiment outcomes.
    EXPECT_EQ(tool::campaignCsv(first, false),
              tool::campaignCsv(second, false));
    EXPECT_EQ(first.successMatrixText(),
              second.successMatrixText());
}

TEST(Cache, SharedAcrossOverlappingSpecs)
{
    // Two different specs whose grids overlap on the baseline cells:
    // the second campaign re-executes only its new cells.
    ScenarioSpec baseline;
    baseline.variants = {AttackVariant::SpectreV1,
                         AttackVariant::Meltdown};

    ScenarioSpec wider = baseline;
    wider.defenses = {{"baseline", nullptr}, fenceAxis()};

    ResultCache cache;
    CampaignEngine::Options opts;
    opts.workers = 1;
    opts.cache = &cache;
    const CampaignEngine engine(opts);

    engine.run(baseline);
    const CampaignReport report = engine.run(wider);
    EXPECT_EQ(report.uniqueCount, 4u);
    EXPECT_EQ(report.cacheHits, 2u);
    EXPECT_EQ(report.executedCount, 2u);
    EXPECT_EQ(cache.size(), 4u);
}

TEST(Engine, DeterministicAcrossWorkerCountsAndCache)
{
    // The regression gate's contract: sweeping worker counts, with
    // and without the result cache (cold and warm), every
    // timing-free export is byte-identical.
    ScenarioSpec spec;
    spec.name = "worker-sweep";
    spec.variants = {AttackVariant::SpectreV1,
                     AttackVariant::Meltdown,
                     AttackVariant::ZombieLoad};
    spec.defenses = {{"baseline", nullptr}, fenceAxis(),
                     flushAxis()};
    spec.permCheckLatencies = {10, 30};

    const CampaignReport reference =
        CampaignEngine(CampaignEngine::Options{1}).run(spec);
    const std::string refCsv = tool::campaignCsv(reference, false);
    const std::string refJson =
        tool::campaignJson(reference, false);
    const std::string refMatrix = reference.successMatrixText();

    ResultCache cache;
    for (const unsigned workers : {1u, 2u, 8u}) {
        for (const bool cached : {false, true}) {
            CampaignEngine::Options opts;
            opts.workers = workers;
            opts.cache = cached ? &cache : nullptr;
            const CampaignReport run =
                CampaignEngine(opts).run(spec);
            EXPECT_EQ(tool::campaignCsv(run, false), refCsv)
                << "workers=" << workers << " cached=" << cached;
            EXPECT_EQ(tool::campaignJson(run, false), refJson)
                << "workers=" << workers << " cached=" << cached;
            EXPECT_EQ(run.successMatrixText(), refMatrix)
                << "workers=" << workers << " cached=" << cached;
        }
    }
    // The cache ended warm: the last run executed nothing new.
    EXPECT_GT(cache.hits(), 0u);
}

TEST(Engine, ParallelMatchesSerialByteIdentical)
{
    ScenarioSpec spec;
    spec.name = "determinism";
    spec.variants = {AttackVariant::SpectreV1, AttackVariant::Meltdown,
                     AttackVariant::ZombieLoad};
    spec.defenses = {{"baseline", nullptr}, fenceAxis(), flushAxis()};
    spec.robSizes = {48, 64};

    const CampaignReport serial =
        CampaignEngine(CampaignEngine::Options{1}).run(spec);
    const CampaignReport parallel =
        CampaignEngine(CampaignEngine::Options{4}).run(spec);

    EXPECT_EQ(serial.workers, 1u);
    EXPECT_EQ(parallel.workers, 4u);
    // Every timing-free export is byte-identical.
    EXPECT_EQ(tool::campaignCsv(serial, false),
              tool::campaignCsv(parallel, false));
    EXPECT_EQ(tool::campaignJson(serial, false),
              tool::campaignJson(parallel, false));
    EXPECT_EQ(serial.successMatrixText(),
              parallel.successMatrixText());
    ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
        EXPECT_EQ(serial.outcomes[i].result.leaked,
                  parallel.outcomes[i].result.leaked);
        EXPECT_EQ(serial.outcomes[i].result.recovered,
                  parallel.outcomes[i].result.recovered);
        EXPECT_EQ(serial.outcomes[i].stats.cycles,
                  parallel.outcomes[i].stats.cycles);
    }
}

TEST(Engine, HugeWorkerCountMatchesSerial)
{
    // A worker count far above the work items must not spawn a
    // thread per requested worker: the pool is capped at the unique
    // cells (or triage classes), and the report keeps the request.
    ScenarioSpec spec;
    spec.variants = {AttackVariant::SpectreV1, AttackVariant::Meltdown};
    ASSERT_EQ(spec.gridSize(), 2u);

    for (const verdict::VerdictBackend backend :
         {verdict::VerdictBackend::Simulator,
          verdict::VerdictBackend::Triage}) {
        CampaignEngine::Options serialOpts;
        serialOpts.workers = 1;
        serialOpts.backend = backend;
        CampaignEngine::Options hugeOpts = serialOpts;
        hugeOpts.workers = std::numeric_limits<unsigned>::max();
        const CampaignReport serial =
            CampaignEngine(serialOpts).run(spec);
        const CampaignReport huge = CampaignEngine(hugeOpts).run(spec);
        EXPECT_EQ(huge.workers, hugeOpts.workers);
        EXPECT_EQ(tool::campaignJson(huge, false),
                  tool::campaignJson(serial, false));
    }
}

TEST(Engine, CollectsStatsAndThroughput)
{
    ScenarioSpec spec;
    spec.variants = {AttackVariant::SpectreV1};
    const CampaignReport report =
        CampaignEngine(CampaignEngine::Options{1}).run(spec);
    ASSERT_EQ(report.outcomes.size(), 1u);
    const ScenarioOutcome &o = report.outcomes.front();
    EXPECT_GT(o.stats.cycles, 0u);
    EXPECT_GT(o.stats.committed, 0u);
    EXPECT_GE(o.wallMillis, 0.0);
    EXPECT_GT(report.scenariosPerSecond, 0.0);
    EXPECT_EQ(report.expandedCount, 1u);
    EXPECT_EQ(report.uniqueCount, 1u);
}

TEST(Engine, MatrixAgreesWithDirectRunner)
{
    ScenarioSpec spec;
    spec.variants = {AttackVariant::SpectreV1};
    spec.defenses = {{"baseline", nullptr}, fenceAxis()};
    const CampaignReport report =
        CampaignEngine(CampaignEngine::Options{2}).run(spec);

    const attacks::AttackResult bare =
        attacks::runVariant(AttackVariant::SpectreV1, CpuConfig{});
    CpuConfig fenced;
    fenced.defense.fenceSpeculativeLoads = true;
    const attacks::AttackResult defended =
        attacks::runVariant(AttackVariant::SpectreV1, fenced);

    EXPECT_EQ(report.outcomes[0].result.leaked, bare.leaked);
    EXPECT_EQ(report.outcomes[1].result.leaked, defended.leaked);
    EXPECT_EQ(report.cellGlyph(0, 0), bare.leaked ? 'L' : '.');
    EXPECT_EQ(report.cellGlyph(0, 1), defended.leaked ? 'L' : '.');
}

TEST(Engine, KnobSweepAggregatesPerCell)
{
    ScenarioSpec spec;
    spec.variants = {AttackVariant::SpectreV1};
    spec.permCheckLatencies = {30, 60};
    const CampaignReport report =
        CampaignEngine(CampaignEngine::Options{2}).run(spec);
    ASSERT_EQ(report.cellRuns.size(), 1u);
    EXPECT_EQ(report.cellRuns[0][0], 2u);
    const unsigned leaks = report.cellLeaks[0][0];
    const char glyph = report.cellGlyph(0, 0);
    if (leaks == 2)
        EXPECT_EQ(glyph, 'L');
    else if (leaks == 0)
        EXPECT_EQ(glyph, '.');
    else
        EXPECT_EQ(glyph, 'p');
}

TEST(Spec, DefenseMatrixShape)
{
    const ScenarioSpec spec = ScenarioSpec::defenseMatrix();
    EXPECT_EQ(spec.variants.size(), core::allVariants().size() - 1);
    EXPECT_EQ(spec.defenses.size(), 8u);
    EXPECT_EQ(spec.gridSize(), spec.variants.size() * 8u);
    EXPECT_EQ(spec.defenses.front().label, "baseline");
}

TEST(Report, CsvAndJsonWellFormed)
{
    ScenarioSpec spec;
    spec.variants = {AttackVariant::SpectreV1};
    spec.defenses = {{"baseline", nullptr}, fenceAxis()};
    const CampaignReport report =
        CampaignEngine(CampaignEngine::Options{1}).run(spec);

    const std::string csv = tool::campaignCsv(report);
    // Header + one line per grid cell.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
    EXPECT_NE(csv.find("gridIndex,variant,defense"),
              std::string::npos);
    EXPECT_NE(csv.find("fence(1)"), std::string::npos);

    const std::string json = tool::campaignJson(report);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_NE(json.find("\"outcomes\""), std::string::npos);
    EXPECT_NE(json.find("\"scenariosPerSecond\""),
              std::string::npos);
}

} // namespace
