/**
 * @file
 * Lossless CampaignReport (de)serialization: the wire format that
 * lets one campaign fan out across processes.  Each shard run writes
 * its partial CampaignReport as a versioned JSON file; a merge step
 * parses them back and folds them with CampaignReport::merge into a
 * report byte-identical — in every timing-free export — to a
 * single-process run of the whole spec.
 *
 * A scenario's full configuration travels as its canonical
 * scenarioKey() string (parsed back with parseScenarioKey), so the
 * format tracks CpuConfig/AttackOptions growth automatically instead
 * of maintaining ~47 named fields in a second schema.
 *
 * Each outcome's result and stats travel as the AttackResult/
 * CpuStats fragments of schema.hh, the same encoding the persistent
 * ResultCache (src/campaign/persist.cc) and serve result lines use,
 * and every shard report carries tool::wireSchemaTag() so a consumer
 * with different field lists rejects the file instead of misparsing
 * it (a file without the tag line, as pre-tag producers wrote,
 * still loads).  The verdict annotations (modelVerdict, agreement,
 * evidence) travel only when set, so simulator shard files stay
 * byte-identical across backends.
 */

#ifndef SPECSEC_TOOL_REPORT_IO_HH
#define SPECSEC_TOOL_REPORT_IO_HH

#include <optional>
#include <string>

#include "campaign/campaign.hh"

namespace specsec::tool
{

/** Current shard-report / result-cache file format version. */
inline constexpr unsigned kReportIoVersion = 1;

/**
 * Serialize @p report — full or shard — as a self-contained,
 * deterministic JSON document (one outcome per line).
 */
std::string shardReportJson(const campaign::CampaignReport &report);

/**
 * Parse shardReportJson() output.  @return nullopt (with a message
 * in @p error) on malformed input, an unsupported version, or an
 * outcome whose scenario key does not parse, whose row/col lies
 * outside the report's labels, or whose gridIndex is not below
 * expandedCount and above the previous outcome's.
 */
std::optional<campaign::CampaignReport>
parseShardReportJson(const std::string &text,
                     std::string *error = nullptr);

} // namespace specsec::tool

#endif // SPECSEC_TOOL_REPORT_IO_HH
