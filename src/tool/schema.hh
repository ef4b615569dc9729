/**
 * @file
 * The record formats behind every export and wire surface: one
 * compile-time field list per record, in src/tool/schema.cc.
 *
 * An outcome's export columns (campaignJson/campaignCsv, the
 * streaming JSONL/CSV sinks) and the AttackResult/CpuStats wire
 * fragments (shard reports, the persistent ResultCache, serve
 * result lines) are each declared exactly once there as a list of
 * (name, member) visits.  Every emitter below, both fragment
 * parsers and wireSchemaTag() iterate those lists, so adding an
 * exported field is one line in schema.cc.  See README.md "Adding
 * a new exported field".
 */

#ifndef SPECSEC_TOOL_SCHEMA_HH
#define SPECSEC_TOOL_SCHEMA_HH

#include <cstdint>
#include <string>
#include <vector>

#include "jsonio.hh"

namespace specsec::core
{
struct AttackDescriptor;
}

namespace specsec::attacks
{
struct AttackOptions;
struct AttackResult;
}

namespace specsec::uarch
{
struct CacheConfig;
struct CpuStats;
struct VulnConfig;
}

namespace specsec::campaign
{
struct ScenarioOutcome;
}

namespace specsec::tool
{

/**
 * How doubles are rendered: the human-facing exports use fixed %.4f
 * (stable, compact); the lossless wire formats use shortest-exact
 * %.17g so emit/parse round-trips are exact.
 */
enum class DoubleStyle : std::uint8_t
{
    Fixed4,
    Exact17,
};

/** Render @p value per @p style (locale-independent). */
std::string formatDouble(double value, DoubleStyle style);

/**
 * Shortest decimal rendering that parses back to exactly @p value
 * ("0.005", not "0.0050000000000000001") — for human-edited files
 * (golden matrices) that must still round-trip exactly.
 */
std::string shortestExactDouble(double value);

/**
 * @name Outcome exporters.
 * One formatter per format, shared by the batch exporters
 * (report.hh) and the streaming sinks (stream_export.hh), so
 * "stream then concatenate" is byte-identical to "collect then
 * export" by construction.  The wallMillis column appears only with
 * @p include_timing.
 * @{
 */

/** The campaignCsv column header line, with trailing newline. */
std::string campaignCsvHeader(bool include_timing);

/** One campaignCsv data row for @p outcome, with trailing newline. */
std::string campaignCsvRow(const campaign::ScenarioOutcome &outcome,
                           bool include_timing);

/**
 * The one-line JSON object campaignJson() emits for @p outcome (no
 * surrounding indentation, comma or newline).
 */
std::string outcomeJson(const campaign::ScenarioOutcome &outcome,
                        bool include_timing);
/// @}

/**
 * @name Execution-result JSON fragments.
 * `{"name": ..., "recovered": [...], "expected": [...],
 *   "accuracy": ..., "leaked": ..., "guestCycles": ...,
 *   "transientForwards": ...}` and the 8-element CpuStats array.
 * The accuracy double is printed with %.17g, so a parse/emit
 * round-trip is exact.  The parsers fail (with the cursor's error)
 * on an unknown key and on a value the member cannot hold.
 * @{
 */
std::string attackResultJson(const attacks::AttackResult &result);
std::string cpuStatsJson(const uarch::CpuStats &stats);
bool parseAttackResultJson(json::Cursor &cur,
                           attacks::AttackResult &result);
bool parseCpuStatsJson(json::Cursor &cur, uarch::CpuStats &stats);
/// @}

/**
 * The schema-version tag shard reports and the serve handshake
 * carry: every field of the result, stats and outcome lists as
 * "name:typecode", in order.  A producer and a consumer interoperate
 * exactly when their tags match; parseShardReportJson rejects a
 * mismatch with a message naming both tags, so CampaignReport::merge
 * never sees misparsed outcomes from a binary with a different
 * field list.
 */
std::string wireSchemaTag();

/**
 * @name Summary columns, shared with the scenario-describing CLIs.
 * "kpti+lfence", "no-mds+no-taa"/"all", "256x4/64@4:200".
 * parseVulnSummary (campaign_cli --vuln-ablate) returns false,
 * leaving @p out untouched, on text vulnSummary cannot produce.
 * @{
 */
std::string mitigationSummary(const attacks::AttackOptions &options);
std::string vulnSummary(const uarch::VulnConfig &vuln);
bool parseVulnSummary(const std::string &text,
                      uarch::VulnConfig &out);
std::string cacheSummary(const uarch::CacheConfig &cache);
/// @}

/**
 * The JSON object `campaign_cli list-attacks --json` / `describe
 * --json` emit per attack.  Lives in the library (not the CLI) so
 * the escaping of every string field — including registered alias
 * names — is covered by tests/schema_test.cc.
 */
std::string attackDescriptorJson(const core::AttackDescriptor &d);

/**
 * @name Export-format names for file exports ("json", "csv",
 * "jsonl") and extension inference, shared by `campaign_cli
 * export`.  exportFormatFromPath maps "out.jsonl" -> "jsonl"
 * (case-insensitive), empty string when the extension is not a
 * known format.
 * @{
 */
const std::vector<std::string> &exportFormatNames();
std::string exportFormatFromPath(const std::string &path);
/// @}

} // namespace specsec::tool

#endif // SPECSEC_TOOL_SCHEMA_HH
