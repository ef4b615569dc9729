/**
 * @file
 * Tests for the golden success-matrix regression gate: JSON
 * round-trip, cell-level comparison and diff rendering, the named
 * spec registry, and the acceptance property that a deliberate
 * VulnConfig flip is caught with a diff naming the changed
 * (variant, defense) cells.
 */

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "regress/golden.hh"
#include "regress/specs.hh"

namespace
{

using namespace specsec;
using namespace specsec::regress;
using core::AttackVariant;

GoldenMatrix
sampleMatrix()
{
    GoldenMatrix m;
    m.spec = "sample";
    m.rows = {"Spectre v1", "Meltdown"};
    m.cols = {"baseline", "fence(1)"};
    m.cells = {{{1, 1, "1", {}}, {1, 0, "0", {}}},
               {{1, 1, "1", {}}, {2, 1, "10", {}}}};
    return m;
}

TEST(Golden, JsonRoundTrip)
{
    const GoldenMatrix m = sampleMatrix();
    const std::string json = goldenJson(m);
    std::string error;
    const auto parsed = parseGoldenJson(json, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->spec, m.spec);
    EXPECT_EQ(parsed->rows, m.rows);
    EXPECT_EQ(parsed->cols, m.cols);
    EXPECT_EQ(parsed->cells, m.cells);
    EXPECT_TRUE(compareGolden(m, *parsed).empty());
    // Serialization is stable: emit(parse(emit(x))) == emit(x).
    EXPECT_EQ(goldenJson(*parsed), json);
}

TEST(Golden, RoundTripsAwkwardLabels)
{
    GoldenMatrix m = sampleMatrix();
    m.rows = {"comma, quote \" label", "new\nline\tand\\slash"};
    const std::string json = goldenJson(m);
    std::string error;
    const auto parsed = parseGoldenJson(json, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->rows, m.rows);
}

TEST(Golden, ParseRejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(parseGoldenJson("", &error));
    EXPECT_FALSE(parseGoldenJson("not json", &error));
    EXPECT_FALSE(parseGoldenJson("{\"spec\": \"x\"}", &error));
    EXPECT_FALSE(error.empty());
    // Shape mismatch between rows and cells.
    EXPECT_FALSE(parseGoldenJson(
        "{\"spec\": \"x\", \"cols\": [\"a\"], \"rows\": [\"r\"], "
        "\"cells\": []}",
        &error));
    // Trailing garbage.
    const std::string good = goldenJson(sampleMatrix());
    EXPECT_TRUE(parseGoldenJson(good));
    EXPECT_FALSE(parseGoldenJson(good + "x", &error));
}

TEST(Golden, CompareDetectsCellDrift)
{
    const GoldenMatrix golden = sampleMatrix();
    GoldenMatrix actual = golden;
    // Meltdown x baseline stops leaking.
    actual.cells[1][0] = {1, 0, "0", {}};

    const MatrixDiff diff = compareGolden(golden, actual);
    EXPECT_TRUE(diff.structural.empty());
    ASSERT_EQ(diff.cells.size(), 1u);
    EXPECT_EQ(diff.cells[0].row, "Meltdown");
    EXPECT_EQ(diff.cells[0].col, "baseline");
    ASSERT_TRUE(diff.cells[0].golden.has_value());
    ASSERT_TRUE(diff.cells[0].actual.has_value());
    EXPECT_EQ(diff.cells[0].golden->leaks, 1u);
    EXPECT_EQ(diff.cells[0].actual->leaks, 0u);

    const std::string rendered = renderDiff(diff);
    EXPECT_NE(rendered.find("Meltdown"), std::string::npos);
    EXPECT_NE(rendered.find("baseline"), std::string::npos);
    EXPECT_NE(rendered.find("1/1"), std::string::npos);
    EXPECT_NE(rendered.find("0/1"), std::string::npos);
}

TEST(Golden, CompareDetectsShapeChanges)
{
    const GoldenMatrix golden = sampleMatrix();
    GoldenMatrix actual = golden;
    actual.cols = {"baseline", "nda(2)"};

    const MatrixDiff diff = compareGolden(golden, actual);
    ASSERT_EQ(diff.structural.size(), 2u);
    EXPECT_EQ(diff.structural[0], "column removed: fence(1)");
    EXPECT_EQ(diff.structural[1], "column added: nda(2)");
    // Every cell under both changed columns is reported.
    EXPECT_EQ(diff.cells.size(), 4u);
    for (const CellDiff &cell : diff.cells)
        EXPECT_TRUE(!cell.golden.has_value() ||
                    !cell.actual.has_value());
}

TEST(Golden, CompareIgnoresPureReordering)
{
    const GoldenMatrix golden = sampleMatrix();
    GoldenMatrix actual;
    actual.spec = golden.spec;
    actual.rows = {"Meltdown", "Spectre v1"};
    actual.cols = {"fence(1)", "baseline"};
    actual.cells = {{{2, 1, "10", {}}, {1, 1, "1", {}}},
                    {{1, 0, "0", {}}, {1, 1, "1", {}}}};
    EXPECT_TRUE(compareGolden(golden, actual).empty());
}

TEST(Golden, PatternDriftCaughtWhenLeakCountsMatch)
{
    // A cell aggregating a knob sweep must pin WHICH sweep values
    // leak, not just how many: swapping the leaking value while
    // preserving the count is still drift.
    const GoldenMatrix golden = sampleMatrix();
    GoldenMatrix actual = golden;
    ASSERT_EQ(actual.cells[1][1].pattern, "10");
    actual.cells[1][1].pattern = "01";

    const MatrixDiff diff = compareGolden(golden, actual);
    ASSERT_EQ(diff.cells.size(), 1u);
    EXPECT_EQ(diff.cells[0].row, "Meltdown");
    EXPECT_EQ(diff.cells[0].col, "fence(1)");
    const std::string rendered = renderDiff(diff);
    EXPECT_NE(rendered.find("[10]"), std::string::npos);
    EXPECT_NE(rendered.find("[01]"), std::string::npos);
}

/** sampleMatrix() with accuracy values pinned under @p eps. */
GoldenMatrix
accuracyMatrix(double eps)
{
    GoldenMatrix m = sampleMatrix();
    m.hasAccuracy = true;
    m.absEps = eps;
    m.cells[0][0].accuracy = {1.0};
    m.cells[0][1].accuracy = {0.0};
    m.cells[1][0].accuracy = {1.0};
    m.cells[1][1].accuracy = {0.75, 0.25};
    return m;
}

TEST(GoldenAccuracy, JsonRoundTripKeepsToleranceAndValues)
{
    const GoldenMatrix m = accuracyMatrix(0.005);
    const std::string json = goldenJson(m);
    EXPECT_NE(json.find("\"absEps\": 0.005"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"accuracy\": [0.75, 0.25]"),
              std::string::npos)
        << json;
    std::string error;
    const auto parsed = parseGoldenJson(json, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_TRUE(parsed->hasAccuracy);
    EXPECT_EQ(parsed->absEps, 0.005);
    EXPECT_EQ(parsed->cells, m.cells);
    EXPECT_EQ(goldenJson(*parsed), json);
}

TEST(GoldenAccuracy, DriftWithinToleranceIsNotDrift)
{
    const GoldenMatrix golden = accuracyMatrix(0.01);
    GoldenMatrix actual = golden;
    actual.cells[1][1].accuracy = {0.7501, 0.2499};
    EXPECT_TRUE(compareGolden(golden, actual).empty());
}

TEST(GoldenAccuracy, DriftBeyondToleranceNamesFieldAndDelta)
{
    // Leak counts and patterns unchanged — only an accuracy value
    // moved beyond the tolerance.  The pre-accuracy gate was blind
    // to exactly this.
    const GoldenMatrix golden = accuracyMatrix(0.005);
    GoldenMatrix actual = golden;
    actual.cells[1][1].accuracy = {0.75, 0.5};

    const MatrixDiff diff = compareGolden(golden, actual);
    ASSERT_EQ(diff.cells.size(), 1u);
    EXPECT_EQ(diff.cells[0].row, "Meltdown");
    EXPECT_EQ(diff.cells[0].col, "fence(1)");
    ASSERT_EQ(diff.cells[0].accuracyNotes.size(), 1u);
    const std::string rendered = renderDiff(diff);
    // The diff names the field, the grid point, both values, the
    // delta and the tolerance it exceeded.
    EXPECT_NE(rendered.find("accuracy[1]"), std::string::npos)
        << rendered;
    EXPECT_NE(rendered.find("0.25"), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("absEps 0.005"), std::string::npos)
        << rendered;
}

TEST(GoldenAccuracy, LegacyGoldensIgnoreAccuracyEntirely)
{
    // A golden recorded before the migration (hasAccuracy false)
    // compares exactly as it always did, even against an actual
    // matrix that carries accuracy values.
    const GoldenMatrix golden = sampleMatrix();
    GoldenMatrix actual = accuracyMatrix(0.0);
    EXPECT_TRUE(compareGolden(golden, actual).empty());
}

TEST(GoldenAccuracy, ParserRejectsAccuracyWithoutTolerance)
{
    GoldenMatrix m = accuracyMatrix(0.005);
    std::string json = goldenJson(m);
    // Strip the absEps line: values without a declared tolerance
    // would make the comparison contract ambiguous.
    const std::string line = "  \"absEps\": 0.005,\n";
    const std::size_t at = json.find(line);
    ASSERT_NE(at, std::string::npos);
    json.erase(at, line.size());
    std::string error;
    EXPECT_FALSE(parseGoldenJson(json, &error).has_value());
    EXPECT_NE(error.find("absEps"), std::string::npos) << error;
}

TEST(GoldenAccuracy, ParserRejectsWrongArity)
{
    // Each accuracy array must carry exactly one value per run.
    const std::string json = goldenJson(accuracyMatrix(0.005));
    std::string broken = json;
    const std::string needle = "\"accuracy\": [0.75, 0.25]";
    const std::size_t at = broken.find(needle);
    ASSERT_NE(at, std::string::npos);
    broken.replace(at, needle.size(), "\"accuracy\": [0.75]");
    std::string error;
    EXPECT_FALSE(parseGoldenJson(broken, &error).has_value());
    EXPECT_NE(error.find("values for"), std::string::npos) << error;
}

TEST(GoldenAccuracy, FromReportCapturesAccuracyPerRun)
{
    campaign::ScenarioSpec spec;
    spec.variants = {AttackVariant::SpectreV1,
                     AttackVariant::Meltdown};
    const campaign::CampaignReport report =
        campaign::CampaignEngine(
            campaign::CampaignEngine::Options{1})
            .run(spec);
    GoldenMatrix with = GoldenMatrix::fromReport(report, true);
    with.absEps = 0.001;
    EXPECT_TRUE(with.hasAccuracy);
    for (const auto &row : with.cells)
        for (const GoldenCell &cell : row)
            EXPECT_EQ(cell.accuracy.size(), cell.runs);
    // Self-comparison under any tolerance is clean, and the
    // accuracy-bearing golden round-trips byte-identically.
    const std::string json = goldenJson(with);
    const auto parsed = parseGoldenJson(json);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(compareGolden(*parsed, with).empty());
    EXPECT_EQ(goldenJson(*parsed), json);
}

TEST(Specs, RegistryMatchesTheCtestSuite)
{
    // Keep in sync with SPECSEC_REGRESS_SPECS in src/CMakeLists.txt:
    // each name here is registered as ctest suite regress_<name>.
    const std::vector<std::string> expected = {
        "defense-matrix",
        "table2-industry",
        "table2-academia",
        "table3-baseline",
        "ablation-spectre-window",
        "ablation-meltdown-delivery",
        "ablation-foreshadow-auth",
        "mitigation-matrix",
        "vuln-ablation",
        "cache-geometry",
        "static-hardening",
    };
    std::vector<std::string> actual;
    for (const NamedSpec &named : registeredSpecs())
        actual.push_back(named.name);
    EXPECT_EQ(actual, expected);

    for (const NamedSpec &named : registeredSpecs()) {
        EXPECT_GT(named.spec.gridSize(), 0u) << named.name;
        EXPECT_FALSE(named.description.empty()) << named.name;
        EXPECT_EQ(findSpec(named.name), &named);
    }
    EXPECT_EQ(findSpec("no-such-spec"), nullptr);
}

TEST(Specs, GoldenRoundTripFromEngineReport)
{
    const NamedSpec *named = findSpec("ablation-spectre-window");
    ASSERT_NE(named, nullptr);
    const campaign::CampaignReport report =
        campaign::CampaignEngine(campaign::CampaignEngine::Options{2})
            .run(named->spec);
    const GoldenMatrix actual = GoldenMatrix::fromReport(report);
    EXPECT_EQ(actual.spec, "ablation-spectre-window");
    EXPECT_EQ(actual.rows.size(), 1u);
    EXPECT_EQ(actual.cols.size(), 9u);

    std::string error;
    const auto parsed =
        parseGoldenJson(goldenJson(actual), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_TRUE(compareGolden(*parsed, actual).empty());
}

TEST(Specs, VulnFlipIsCaughtWithCellLevelDiff)
{
    // The acceptance property, at the API level: removing a
    // forwarding path from the baseline core changes exactly the
    // cells of the variants that need it, and the diff names them.
    campaign::ScenarioSpec spec;
    spec.name = "flip";
    spec.variants = {AttackVariant::SpectreV1,
                     AttackVariant::Meltdown};
    const campaign::CampaignEngine engine(
        campaign::CampaignEngine::Options{1});
    const GoldenMatrix golden =
        GoldenMatrix::fromReport(engine.run(spec));

    spec.baseConfig.vuln.meltdown = false;
    const GoldenMatrix flipped =
        GoldenMatrix::fromReport(engine.run(spec));

    const MatrixDiff diff = compareGolden(golden, flipped);
    ASSERT_EQ(diff.cells.size(), 1u);
    EXPECT_EQ(diff.cells[0].row,
              core::variantInfo(AttackVariant::Meltdown).name);
    EXPECT_EQ(diff.cells[0].col, "baseline");
    EXPECT_EQ(diff.cells[0].golden->leaks, 1u);
    EXPECT_EQ(diff.cells[0].actual->leaks, 0u);
    const std::string rendered = renderDiff(diff);
    EXPECT_NE(rendered.find("Meltdown"), std::string::npos);
}

} // namespace
