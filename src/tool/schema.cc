#include "schema.hh"

#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "campaign/campaign.hh"
#include "core/catalog.hh"
#include "report.hh"

namespace specsec::tool
{

std::string
formatDouble(double value, DoubleStyle style)
{
    char buf[40];
    std::snprintf(buf, sizeof buf,
                  style == DoubleStyle::Fixed4 ? "%.4f" : "%.17g",
                  value);
    return buf;
}

std::string
shortestExactDouble(double value)
{
    char buf[40];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            return buf;
    }
    return buf;
}

std::string
mitigationSummary(const attacks::AttackOptions &o)
{
    std::string out;
    const auto add = [&out](bool on, const char *name) {
        if (!on)
            return;
        if (!out.empty())
            out += '+';
        out += name;
    };
    add(o.kpti, "kpti");
    add(o.rsbStuffing, "rsb-stuff");
    add(o.softwareLfence, "lfence");
    add(o.addressMasking, "addr-mask");
    add(o.flushL1OnExit, "flush-l1");
    return out.empty() ? "-" : out;
}

std::string
vulnSummary(const uarch::VulnConfig &v)
{
    std::string out;
    for (const uarch::VulnPath &path : uarch::kVulnPaths) {
        if (v.*path.member)
            continue;
        if (!out.empty())
            out += '+';
        out += "no-";
        out += path.name;
    }
    return out.empty() ? "all" : out;
}

bool
parseVulnSummary(const std::string &text, uarch::VulnConfig &out)
{
    uarch::VulnConfig parsed;
    for (const uarch::VulnPath &path : uarch::kVulnPaths)
        parsed.*path.member = true;
    if (text != "all") {
        std::size_t start = 0;
        while (start <= text.size()) {
            const std::size_t plus = text.find('+', start);
            const std::string name =
                text.substr(start, plus == std::string::npos
                                       ? std::string::npos
                                       : plus - start);
            const uarch::VulnPath *path =
                name.rfind("no-", 0) == 0
                    ? uarch::findVulnPath(
                          std::string_view(name).substr(3))
                    : nullptr;
            if (path == nullptr)
                return false;
            parsed.*path->member = false;
            if (plus == std::string::npos)
                break;
            start = plus + 1;
        }
    }
    out = parsed;
    return true;
}

std::string
cacheSummary(const uarch::CacheConfig &c)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%zux%zu/%zu@%u:%u", c.sets,
                  c.ways, c.lineSize, c.hitLatency, c.missLatency);
    return buf;
}

namespace
{

using campaign::ScenarioOutcome;

/**
 * The field lists.  Each calls @p visit(name, value) once per field,
 * in the record's one wire or export order; every emitter, parser
 * and the schema tag below iterates them.
 */

/** AttackResult's wire fragment, by reference (emit and parse). */
template <typename Result, typename Visit>
void
forEachResultField(Result &r, Visit &&visit)
{
    visit("name", r.name);
    visit("recovered", r.recovered);
    visit("expected", r.expected);
    visit("accuracy", r.accuracy);
    visit("leaked", r.leaked);
    visit("guestCycles", r.guestCycles);
    visit("transientForwards", r.transientForwards);
}

/** CpuStats' wire fragment: a positional array in this order. */
template <typename Stats, typename Visit>
void
forEachStatsField(Stats &s, Visit &&visit)
{
    visit("cycles", s.cycles);
    visit("committed", s.committed);
    visit("squashed", s.squashed);
    visit("branchMispredicts", s.branchMispredicts);
    visit("exceptions", s.exceptions);
    visit("memOrderViolations", s.memOrderViolations);
    visit("speculativeFills", s.speculativeFills);
    visit("transientForwards", s.transientForwards);
}

/**
 * An outcome's export columns: the 18 deterministic ones, then
 * wallMillis, the one timing column, only when @p timing is set.
 * Export-only — the channel and summary columns are computed, and
 * no reader parses outcomes back (a shard report carries the
 * configuration as its scenario key).
 */
template <typename Visit>
void
forEachOutcomeField(const ScenarioOutcome &o, bool timing,
                    Visit &&visit)
{
    visit("gridIndex", o.gridIndex);
    visit("variant", o.rowLabel);
    visit("defense", o.colLabel);
    visit("robSize", o.config.robSize);
    visit("permCheckLatency", o.config.permCheckLatency);
    visit("channel",
          std::string(core::covertChannelName(o.options.channel)));
    visit("mitigations", mitigationSummary(o.options));
    visit("vulns", vulnSummary(o.config.vuln));
    visit("cache", cacheSummary(o.config.cache));
    visit("leaked", o.result.leaked);
    visit("accuracy", o.result.accuracy);
    visit("guestCycles", o.result.guestCycles);
    visit("transientForwards", o.result.transientForwards);
    visit("cycles", o.stats.cycles);
    visit("committed", o.stats.committed);
    visit("squashed", o.stats.squashed);
    visit("branchMispredicts", o.stats.branchMispredicts);
    visit("exceptions", o.stats.exceptions);
    if (timing)
        visit("wallMillis", o.wallMillis);
}

/** @name JSON value writers, one per field type. @{ */
void
appendJson(std::string &out, const std::string &v, DoubleStyle)
{
    out += '"';
    out += jsonEscape(v);
    out += '"';
}

void
appendJson(std::string &out, bool v, DoubleStyle)
{
    out += v ? "true" : "false";
}

void
appendJson(std::string &out, double v, DoubleStyle style)
{
    out += formatDouble(v, style);
}

template <std::integral T>
void
appendJson(std::string &out, T v, DoubleStyle)
{
    out += std::to_string(v);
}

template <std::integral T>
void
appendJson(std::string &out, const std::vector<T> &v, DoubleStyle)
{
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ", ";
        out += std::to_string(v[i]);
    }
    out += ']';
}
/// @}

/** @name CSV value writers, one per outcome column type. @{ */
void
appendCsv(std::string &out, const std::string &v)
{
    out += csvField(v);
}

void
appendCsv(std::string &out, bool v)
{
    out += v ? '1' : '0';
}

void
appendCsv(std::string &out, double v)
{
    out += formatDouble(v, DoubleStyle::Fixed4);
}

template <std::integral T>
void
appendCsv(std::string &out, T v)
{
    out += std::to_string(v);
}
/// @}

/**
 * @name Fragment value readers, one per field type; failures stay
 * on the cursor.  Array elements are range-checked against the
 * member's element type, so `"expected": [256]` fails instead of
 * wrapping to 0.
 * @{
 */
void
readJson(json::Cursor &cur, std::string &v)
{
    v = cur.parseString();
}

void
readJson(json::Cursor &cur, bool &v)
{
    v = cur.parseBool();
}

void
readJson(json::Cursor &cur, double &v)
{
    v = cur.parseDouble();
}

void
readJson(json::Cursor &cur, std::uint64_t &v)
{
    v = cur.parseU64();
}

template <std::integral T>
void
readJson(json::Cursor &cur, std::vector<T> &v)
{
    v.clear();
    if (!cur.expect('[') || cur.peekConsume(']'))
        return;
    do {
        v.push_back(static_cast<T>(
            cur.parseI64(std::numeric_limits<T>::min(),
                         std::numeric_limits<T>::max())));
    } while (!cur.failed() && cur.peekConsume(','));
    cur.expect(']');
}
/// @}

/** The schema tag's type code of one field type. */
template <typename T>
constexpr char
typeCode()
{
    if constexpr (std::is_same_v<T, std::string>)
        return 's';
    else if constexpr (std::is_same_v<T, bool>)
        return 'b';
    else if constexpr (std::is_floating_point_v<T>)
        return 'd';
    else if constexpr (std::is_integral_v<T>)
        return 'u';
    else
        return 'a'; // integer vector
}

/** Visitor appending `"name": value` members to a JSON object. */
struct JsonMembers
{
    std::string &out;
    DoubleStyle style;

    template <typename T>
    void operator()(const char *name, const T &value) const
    {
        if (out.back() != '{')
            out += ", ";
        out += '"';
        out += name;
        out += "\": ";
        appendJson(out, value, style);
    }
};

/** Visitor appending `name:typecode` entries to a schema tag. */
struct TagEntries
{
    std::string &out;

    template <typename T>
    void operator()(const char *name, const T &) const
    {
        if (out.back() != '{')
            out += ',';
        out += name;
        out += ':';
        out += typeCode<T>();
    }
};

} // namespace

std::string
outcomeJson(const ScenarioOutcome &o, bool include_timing)
{
    std::string out = "{";
    forEachOutcomeField(o, include_timing,
                        JsonMembers{out, DoubleStyle::Fixed4});
    out += '}';
    return out;
}

std::string
campaignCsvHeader(bool include_timing)
{
    std::string out;
    forEachOutcomeField(ScenarioOutcome{}, include_timing,
                        [&out](const char *name, const auto &) {
                            if (!out.empty())
                                out += ',';
                            out += name;
                        });
    out += '\n';
    return out;
}

std::string
campaignCsvRow(const ScenarioOutcome &o, bool include_timing)
{
    std::string out;
    bool first = true;
    forEachOutcomeField(o, include_timing,
                        [&](const char *, const auto &value) {
                            if (!first)
                                out += ',';
                            first = false;
                            appendCsv(out, value);
                        });
    out += '\n';
    return out;
}

std::string
attackResultJson(const attacks::AttackResult &r)
{
    std::string out = "{";
    forEachResultField(r, JsonMembers{out, DoubleStyle::Exact17});
    out += '}';
    return out;
}

std::string
cpuStatsJson(const uarch::CpuStats &s)
{
    std::string out = "[";
    forEachStatsField(s, [&out](const char *, std::uint64_t value) {
        if (out.back() != '[')
            out += ", ";
        out += std::to_string(value);
    });
    out += ']';
    return out;
}

bool
parseAttackResultJson(json::Cursor &cur, attacks::AttackResult &r)
{
    // Unknown keys fail (every file we read is one we wrote);
    // absent fields keep their current value.
    if (!cur.expect('{'))
        return false;
    if (cur.peekConsume('}'))
        return true;
    do {
        const std::string key = cur.parseString();
        if (cur.failed() || !cur.expect(':'))
            return false;
        bool known = false;
        forEachResultField(r, [&](const char *name, auto &value) {
            if (!known && key == name) {
                known = true;
                readJson(cur, value);
            }
        });
        if (!known)
            return cur.fail("unknown result key '" + key + "'");
    } while (!cur.failed() && cur.peekConsume(','));
    return !cur.failed() && cur.expect('}');
}

bool
parseCpuStatsJson(json::Cursor &cur, uarch::CpuStats &s)
{
    if (!cur.expect('['))
        return false;
    bool first = true;
    forEachStatsField(s, [&](const char *, std::uint64_t &value) {
        if (!first)
            cur.expect(',');
        first = false;
        if (!cur.failed())
            readJson(cur, value);
    });
    return !cur.failed() && cur.expect(']');
}

std::string
wireSchemaTag()
{
    const attacks::AttackResult result;
    const uarch::CpuStats stats;
    std::string tag = "result{";
    forEachResultField(result, TagEntries{tag});
    tag += "};stats{";
    forEachStatsField(stats, TagEntries{tag});
    tag += "};outcome{";
    forEachOutcomeField(ScenarioOutcome{}, true, TagEntries{tag});
    tag += '}';
    return tag;
}

std::string
attackDescriptorJson(const core::AttackDescriptor &d)
{
    std::string out = "{\"name\": \"" + jsonEscape(d.name) +
                      "\", \"aliases\": " +
                      jsonStringArray(d.aliases);
    out += ", \"class\": \"";
    out += jsonEscape(core::attackClassName(d.klass));
    out += "\", \"cve\": \"" + jsonEscape(d.cve) +
           "\", \"paperSection\": \"" + jsonEscape(d.paperSection) +
           "\", \"defaultChannel\": \"";
    out += jsonEscape(core::covertChannelName(d.defaultChannel));
    out += "\", \"builtin\": ";
    out += d.isExtension() ? "false" : "true";
    out += ", \"executable\": ";
    out += d.execute ? "true" : "false";
    out += ", \"hasGraph\": ";
    out += d.buildGraph ? "true" : "false";
    out += ", \"hasModelVerdict\": ";
    out += d.modelVerdict ? "true" : "false";
    out += ", \"hasStaticProgram\": ";
    out += d.staticProgram ? "true" : "false";
    out += "}";
    return out;
}

const std::vector<std::string> &
exportFormatNames()
{
    static const std::vector<std::string> names{"json", "csv",
                                               "jsonl"};
    return names;
}

std::string
exportFormatFromPath(const std::string &path)
{
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.find_last_of("/\\");
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return "";
    std::string ext = path.substr(dot + 1);
    for (char &c : ext)
        if (c >= 'A' && c <= 'Z')
            c = static_cast<char>(c - 'A' + 'a');
    for (const std::string &name : exportFormatNames())
        if (ext == name)
            return name;
    return "";
}

} // namespace specsec::tool
