/**
 * @file
 * Report writers: human-readable vulnerability reports for analyzer
 * results, plus JSON/CSV exporters for campaign sweeps.
 */

#ifndef SPECSEC_TOOL_REPORT_HH
#define SPECSEC_TOOL_REPORT_HH

#include <string>
#include <vector>

#include "analyzer.hh"

namespace specsec::campaign
{
struct CampaignReport;
}

namespace specsec::tool
{

/** Render a report: program, graph summary, findings, suggestions. */
std::string renderReport(const AnalysisResult &result,
                         const Program &program);

/**
 * JSON string-body escaping (quotes, backslash, control characters)
 * shared by every JSON writer in the tree.
 */
std::string jsonEscape(const std::string &s);

/** `["a", "b"]` with each element jsonEscape()d. */
std::string jsonStringArray(const std::vector<std::string> &items);

/** RFC-4180 CSV field quoting (commas, quotes, newlines). */
std::string csvField(const std::string &s);

/**
 * Serialize a campaign report as JSON: campaign metadata, the
 * success matrix (per-cell run/leak counts) and one record per grid
 * cell (tool::outcomeJson, schema.hh).  With @p include_timing
 * false the output is a pure function of the spec (byte-identical
 * across serial/parallel runs and machines); with true it adds
 * wall-clock and throughput fields.
 */
std::string campaignJson(const campaign::CampaignReport &report,
                         bool include_timing = true);

/**
 * Serialize a campaign report as CSV, one row per grid cell
 * (tool::campaignCsvHeader/campaignCsvRow, schema.hh).  Same
 * determinism contract as campaignJson: timing columns only appear
 * when @p include_timing is set.
 */
std::string campaignCsv(const campaign::CampaignReport &report,
                        bool include_timing = false);

/** Write @p contents to @p path; @return false on I/O failure. */
bool writeTextFile(const std::string &path,
                   const std::string &contents);

/** Slurp @p path into @p out; @return false on I/O failure. */
bool readTextFile(const std::string &path, std::string &out);

} // namespace specsec::tool

#endif // SPECSEC_TOOL_REPORT_HH
