#include "report_io.hh"

#include <sstream>
#include <type_traits>

#include "report.hh"
#include "schema.hh"

namespace specsec::tool
{

namespace
{

/** Exact round-trip double rendering (shortest via %.17g). */
std::string
exactNum(double value)
{
    return formatDouble(value, DoubleStyle::Exact17);
}

/** Write one report scalar: doubles round-trip exactly. */
template <typename T>
void
writeScalar(std::ostream &os, T value)
{
    if constexpr (std::is_floating_point_v<T>)
        os << exactNum(value);
    else
        os << value;
}

template <typename T>
void
readScalar(json::Cursor &cur, T &value)
{
    if constexpr (std::is_floating_point_v<T>)
        value = cur.parseDouble();
    else if constexpr (std::is_same_v<T, unsigned>)
        value = cur.parseUnsigned();
    else
        value = cur.parseU64();
}

} // namespace

std::string
shardReportJson(const campaign::CampaignReport &report)
{
    std::ostringstream os;
    os << "{\n\"version\": " << kReportIoVersion << ",\n";
    // The schema-version tag: which field lists produced this file.
    // A consumer whose schemas differ rejects the file at parse
    // time, so CampaignReport::merge never folds misparsed outcomes
    // from a binary with different field lists.
    os << "\"schema\": \"" << jsonEscape(wireSchemaTag())
       << "\",\n";
    os << "\"name\": \"" << jsonEscape(report.name) << "\",\n";
    os << "\"rows\": " << jsonStringArray(report.rowLabels)
       << ",\n";
    os << "\"cols\": " << jsonStringArray(report.colLabels)
       << ",\n";
    campaign::forEachReportScalar(
        [&](const char *name, auto field, campaign::ScalarFold) {
            os << '"' << name << "\": ";
            writeScalar(os, report.*field);
            os << ",\n";
        });
    os << "\"outcomes\": [";
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        const campaign::ScenarioOutcome &o = report.outcomes[i];
        os << (i ? ",\n" : "\n");
        os << "{\"gridIndex\": " << o.gridIndex
           << ", \"row\": " << o.row << ", \"col\": " << o.col
           << ", \"rowLabel\": \"" << jsonEscape(o.rowLabel)
           << "\", \"colLabel\": \"" << jsonEscape(o.colLabel)
           << "\", \"key\": \""
           << jsonEscape(campaign::scenarioKey(o.variant, o.config,
                                               o.options))
           << "\", \"result\": " << attackResultJson(o.result)
           << ", \"stats\": " << cpuStatsJson(o.stats)
           << ", \"wallMillis\": " << exactNum(o.wallMillis);
        // Verdict-backend annotations are empty under the plain
        // simulator backend; emitting them only when set keeps
        // simulator shard files byte-identical across backends.
        if (!o.modelVerdict.empty())
            os << ", \"modelVerdict\": \""
               << jsonEscape(o.modelVerdict) << "\"";
        if (!o.agreement.empty())
            os << ", \"agreement\": \"" << jsonEscape(o.agreement)
               << "\"";
        if (!o.evidence.empty())
            os << ", \"evidence\": \"" << jsonEscape(o.evidence)
               << "\"";
        os << "}";
    }
    os << "\n]\n}\n";
    return os.str();
}

std::optional<campaign::CampaignReport>
parseShardReportJson(const std::string &text, std::string *error)
{
    json::Cursor cur(text);
    campaign::CampaignReport report;
    unsigned version = 0;
    bool sawOutcomes = false;
    const auto failed =
        [&]() -> std::optional<campaign::CampaignReport> {
        if (error)
            *error = cur.error().empty() ? "parse error"
                                         : cur.error();
        return std::nullopt;
    };

    if (!cur.expect('{'))
        return failed();
    do {
        const std::string key = cur.parseString();
        if (cur.failed() || !cur.expect(':'))
            return failed();
        if (key == "version") {
            version = cur.parseUnsigned();
            if (version != kReportIoVersion) {
                cur.fail("unsupported shard report version");
                return failed();
            }
        } else if (key == "schema") {
            // Absent in files from pre-tag producers, whose result
            // and stats fragments are the current ones; when
            // present it must match ours or the outcomes would
            // misparse.
            const std::string found = cur.parseString();
            if (!cur.failed() && found != wireSchemaTag()) {
                cur.fail("schema mismatch: file has '" + found +
                         "', this binary expects '" +
                         wireSchemaTag() + "'");
                return failed();
            }
        } else if (key == "name") {
            report.name = cur.parseString();
        } else if (key == "rows") {
            report.rowLabels = json::parseStringArray(cur);
        } else if (key == "cols") {
            report.colLabels = json::parseStringArray(cur);
        } else if (key == "outcomes") {
            sawOutcomes = true;
            if (!cur.expect('['))
                return failed();
            if (!cur.peekConsume(']')) {
                do {
                    campaign::ScenarioOutcome o;
                    std::string scenario_key;
                    if (!cur.expect('{'))
                        return failed();
                    do {
                        const std::string field =
                            cur.parseString();
                        if (cur.failed() || !cur.expect(':'))
                            return failed();
                        if (field == "gridIndex")
                            o.gridIndex = cur.parseU64();
                        else if (field == "row")
                            o.row = cur.parseU64();
                        else if (field == "col")
                            o.col = cur.parseU64();
                        else if (field == "rowLabel")
                            o.rowLabel = cur.parseString();
                        else if (field == "colLabel")
                            o.colLabel = cur.parseString();
                        else if (field == "key")
                            scenario_key = cur.parseString();
                        else if (field == "result") {
                            if (!parseAttackResultJson(cur,
                                                       o.result))
                                return failed();
                        } else if (field == "stats") {
                            if (!parseCpuStatsJson(cur, o.stats))
                                return failed();
                        } else if (field == "wallMillis")
                            o.wallMillis = cur.parseDouble();
                        else if (field == "modelVerdict")
                            o.modelVerdict = cur.parseString();
                        else if (field == "agreement")
                            o.agreement = cur.parseString();
                        else if (field == "evidence")
                            o.evidence = cur.parseString();
                        else {
                            cur.fail("unknown outcome key '" +
                                     field + "'");
                            return failed();
                        }
                    } while (!cur.failed() &&
                             cur.peekConsume(','));
                    if (!cur.expect('}'))
                        return failed();
                    if (!campaign::parseScenarioKey(
                            scenario_key, o.variant, o.config,
                            o.options)) {
                        cur.fail("malformed scenario key '" +
                                 scenario_key + "'");
                        return failed();
                    }
                    report.outcomes.push_back(std::move(o));
                } while (!cur.failed() && cur.peekConsume(','));
                if (!cur.expect(']'))
                    return failed();
            }
        } else {
            bool scalar = false;
            campaign::forEachReportScalar(
                [&](const char *name, auto field, campaign::ScalarFold) {
                    if (!scalar && key == name) {
                        scalar = true;
                        readScalar(cur, report.*field);
                    }
                });
            if (!scalar) {
                cur.fail("unknown report key '" + key + "'");
                return failed();
            }
        }
    } while (!cur.failed() && cur.peekConsume(','));
    if (cur.failed() || !cur.expect('}'))
        return failed();
    if (!cur.atEnd()) {
        cur.fail("trailing content after shard report");
        return failed();
    }
    if (version == 0) {
        cur.fail("shard report has no version");
        return failed();
    }
    if (!sawOutcomes) {
        cur.fail("shard report has no outcomes");
        return failed();
    }
    // Every consumer indexes the report's matrix by (row, col), and
    // a merge takes each outcome as one distinct grid point.
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        const campaign::ScenarioOutcome &o = report.outcomes[i];
        const std::string at =
            "outcome at gridIndex " + std::to_string(o.gridIndex);
        if (o.row >= report.rowLabels.size() ||
            o.col >= report.colLabels.size()) {
            cur.fail(at + ": row/col out of range");
            return failed();
        }
        if (o.gridIndex >= report.expandedCount) {
            cur.fail(at + ": gridIndex out of range (" +
                     std::to_string(report.expandedCount) +
                     " expanded)");
            return failed();
        }
        if (i > 0 && o.gridIndex <= report.outcomes[i - 1].gridIndex) {
            cur.fail(at + ": gridIndex not ascending");
            return failed();
        }
    }
    report.recomputeCells();
    return report;
}

} // namespace specsec::tool
