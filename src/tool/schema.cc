#include "schema.hh"

#include <cstdio>
#include <cstdlib>

#include "campaign/campaign.hh"
#include "core/catalog.hh"
#include "report.hh"

namespace specsec::tool
{

char
fieldTypeCode(FieldType type)
{
    switch (type) {
      case FieldType::String:
        return 's';
      case FieldType::UInt:
        return 'u';
      case FieldType::Double:
        return 'd';
      case FieldType::Bool:
        return 'b';
      case FieldType::IntArray:
        return 'a';
    }
    return '?';
}

FieldValue
FieldValue::ofString(std::string v)
{
    FieldValue out;
    out.type = FieldType::String;
    out.s = std::move(v);
    return out;
}

FieldValue
FieldValue::ofUInt(std::uint64_t v)
{
    FieldValue out;
    out.type = FieldType::UInt;
    out.u = v;
    return out;
}

FieldValue
FieldValue::ofDouble(double v)
{
    FieldValue out;
    out.type = FieldType::Double;
    out.d = v;
    return out;
}

FieldValue
FieldValue::ofBool(bool v)
{
    FieldValue out;
    out.type = FieldType::Bool;
    out.b = v;
    return out;
}

FieldValue
FieldValue::ofIntArray(std::vector<std::int64_t> v)
{
    FieldValue out;
    out.type = FieldType::IntArray;
    out.a = std::move(v);
    return out;
}

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

namespace detail
{

std::string
jsonValue(const FieldValue &value, DoubleStyle style)
{
    switch (value.type) {
      case FieldType::String: {
          std::string out = "\"";
          out += jsonEscape(value.s);
          out += '"';
          return out;
      }
      case FieldType::UInt:
        return std::to_string(value.u);
      case FieldType::Double:
        return formatDouble(value.d, style);
      case FieldType::Bool:
        return value.b ? "true" : "false";
      case FieldType::IntArray: {
          std::string out = "[";
          for (std::size_t i = 0; i < value.a.size(); ++i) {
              if (i)
                  out += ", ";
              out += std::to_string(value.a[i]);
          }
          out += ']';
          return out;
      }
    }
    return "null";
}

std::string
csvValue(const FieldValue &value, DoubleStyle style)
{
    switch (value.type) {
      case FieldType::String:
        return csvField(value.s);
      case FieldType::UInt:
        return std::to_string(value.u);
      case FieldType::Double:
        return formatDouble(value.d, style);
      case FieldType::Bool:
        return value.b ? "1" : "0";
      case FieldType::IntArray: {
          // No CSV surface exports arrays today; ';'-join inside one
          // quotable field keeps the generic writer total.
          std::string joined;
          for (std::size_t i = 0; i < value.a.size(); ++i) {
              if (i)
                  joined += ';';
              joined += std::to_string(value.a[i]);
          }
          return csvField(joined);
      }
    }
    return "";
}

bool
parseValue(json::Cursor &cur, FieldType type, FieldValue &out)
{
    out.type = type;
    switch (type) {
      case FieldType::String:
        out.s = cur.parseString();
        break;
      case FieldType::UInt:
        out.u = cur.parseU64();
        break;
      case FieldType::Double:
        out.d = cur.parseDouble();
        break;
      case FieldType::Bool:
        out.b = cur.parseBool();
        break;
      case FieldType::IntArray:
        out.a = json::parseIntArray(cur);
        break;
    }
    return !cur.failed();
}

} // namespace detail

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

bool
parseMitigationSummary(const std::string &text,
                       attacks::AttackOptions &out)
{
    attacks::AttackOptions parsed = out;
    parsed.kpti = parsed.rsbStuffing = parsed.softwareLfence =
        parsed.addressMasking = parsed.flushL1OnExit = false;
    if (text != "-") {
        std::size_t start = 0;
        while (start <= text.size()) {
            const std::size_t plus = text.find('+', start);
            const std::string name =
                text.substr(start, plus == std::string::npos
                                       ? std::string::npos
                                       : plus - start);
            if (name == "kpti")
                parsed.kpti = true;
            else if (name == "rsb-stuff")
                parsed.rsbStuffing = true;
            else if (name == "lfence")
                parsed.softwareLfence = true;
            else if (name == "addr-mask")
                parsed.addressMasking = true;
            else if (name == "flush-l1")
                parsed.flushL1OnExit = true;
            else
                return false;
            if (plus == std::string::npos)
                break;
            start = plus + 1;
        }
    }
    out = parsed;
    return true;
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

bool
parseCacheSummary(const std::string &text, uarch::CacheConfig &out)
{
    std::size_t sets = 0, ways = 0, line = 0;
    unsigned hit = 0, miss = 0;
    int consumed = 0;
    if (std::sscanf(text.c_str(), "%zux%zu/%zu@%u:%u%n", &sets,
                    &ways, &line, &hit, &miss, &consumed) != 5 ||
        static_cast<std::size_t>(consumed) != text.size())
        return false;
    out.sets = sets;
    out.ways = ways;
    out.lineSize = line;
    out.hitLatency = hit;
    out.missLatency = miss;
    return true;
}

namespace
{

using campaign::ScenarioOutcome;

/** covertChannelName()'s inverse; false on unknown names. */
bool
parseChannelName(const std::string &name,
                 core::CovertChannelKind &out)
{
    for (const auto kind : {core::CovertChannelKind::FlushReload,
                            core::CovertChannelKind::PrimeProbe}) {
        if (name == core::covertChannelName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

RecordSchema<ScenarioOutcome>
makeOutcomeSchema()
{
    using F = FieldDescriptor<ScenarioOutcome>;
    std::vector<F> fields;
    fields.push_back(
        {"gridIndex", FieldType::UInt, 0,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofUInt(o.gridIndex);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.gridIndex = static_cast<std::size_t>(v.u);
             return true;
         }});
    fields.push_back(
        {"variant", FieldType::String, 0,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofString(o.rowLabel);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.rowLabel = v.s;
             return true;
         }});
    fields.push_back(
        {"defense", FieldType::String, 0,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofString(o.colLabel);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.colLabel = v.s;
             return true;
         }});
    fields.push_back(
        {"robSize", FieldType::UInt, kKeyComponent,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofUInt(o.config.robSize);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.config.robSize = static_cast<std::size_t>(v.u);
             return true;
         }});
    fields.push_back(
        {"permCheckLatency", FieldType::UInt, kKeyComponent,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofUInt(o.config.permCheckLatency);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.config.permCheckLatency =
                 static_cast<unsigned>(v.u);
             return true;
         }});
    fields.push_back(
        {"channel", FieldType::String, kKeyComponent,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofString(
                 core::covertChannelName(o.options.channel));
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             return parseChannelName(v.s, o.options.channel);
         }});
    fields.push_back(
        {"mitigations", FieldType::String, kKeyComponent,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofString(
                 mitigationSummary(o.options));
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             return parseMitigationSummary(v.s, o.options);
         }});
    fields.push_back(
        {"vulns", FieldType::String, kKeyComponent,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofString(vulnSummary(o.config.vuln));
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             return parseVulnSummary(v.s, o.config.vuln);
         }});
    fields.push_back(
        {"cache", FieldType::String, kKeyComponent,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofString(
                 cacheSummary(o.config.cache));
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             return parseCacheSummary(v.s, o.config.cache);
         }});
    fields.push_back(
        {"leaked", FieldType::Bool, 0,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofBool(o.result.leaked);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.result.leaked = v.b;
             return true;
         }});
    fields.push_back(
        {"accuracy", FieldType::Double, kAccuracy,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofDouble(o.result.accuracy);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.result.accuracy = v.d;
             return true;
         }});
    fields.push_back(
        {"guestCycles", FieldType::UInt, 0,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofUInt(o.result.guestCycles);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.result.guestCycles = v.u;
             return true;
         }});
    fields.push_back(
        {"transientForwards", FieldType::UInt, 0,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofUInt(o.result.transientForwards);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.result.transientForwards = v.u;
             return true;
         }});
    fields.push_back(
        {"cycles", FieldType::UInt, 0,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofUInt(o.stats.cycles);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.stats.cycles = v.u;
             return true;
         }});
    fields.push_back(
        {"committed", FieldType::UInt, 0,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofUInt(o.stats.committed);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.stats.committed = v.u;
             return true;
         }});
    fields.push_back(
        {"squashed", FieldType::UInt, 0,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofUInt(o.stats.squashed);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.stats.squashed = v.u;
             return true;
         }});
    fields.push_back(
        {"branchMispredicts", FieldType::UInt, 0,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofUInt(o.stats.branchMispredicts);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.stats.branchMispredicts = v.u;
             return true;
         }});
    fields.push_back(
        {"exceptions", FieldType::UInt, 0,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofUInt(o.stats.exceptions);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.stats.exceptions = v.u;
             return true;
         }});
    fields.push_back(
        {"wallMillis", FieldType::Double, kTiming,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofDouble(o.wallMillis);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.wallMillis = v.d;
             return true;
         }});
    fields.push_back(
        {"model_verdict", FieldType::String, kVerdict,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofString(o.modelVerdict);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.modelVerdict = v.s;
             return true;
         }});
    fields.push_back(
        {"agreement", FieldType::String, kVerdict,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofString(o.agreement);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.agreement = v.s;
             return true;
         }});
    fields.push_back(
        {"evidence", FieldType::String, kVerdict,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofString(o.evidence);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.evidence = v.s;
             return true;
         }});
    // Static-backend rewrite overhead (zero elsewhere): how many
    // fences / index masks the in-program mitigation inserted and
    // the resulting instruction-count growth.
    fields.push_back(
        {"fences_inserted", FieldType::UInt, kVerdict,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofUInt(o.fencesInserted);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.fencesInserted = v.u;
             return true;
         }});
    fields.push_back(
        {"masks_inserted", FieldType::UInt, kVerdict,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofUInt(o.masksInserted);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.masksInserted = v.u;
             return true;
         }});
    fields.push_back(
        {"extra_instructions", FieldType::UInt, kVerdict,
         [](const ScenarioOutcome &o) {
             return FieldValue::ofUInt(o.extraInstructions);
         },
         [](ScenarioOutcome &o, const FieldValue &v) {
             o.extraInstructions = v.u;
             return true;
         }});
    return RecordSchema<ScenarioOutcome>("outcome",
                                         std::move(fields));
}

RecordSchema<attacks::AttackResult>
makeAttackResultSchema()
{
    using R = attacks::AttackResult;
    using F = FieldDescriptor<R>;
    std::vector<F> fields;
    fields.push_back({"name", FieldType::String, 0,
                      [](const R &r) {
                          return FieldValue::ofString(r.name);
                      },
                      [](R &r, const FieldValue &v) {
                          r.name = v.s;
             return true;
                      }});
    fields.push_back(
        {"recovered", FieldType::IntArray, 0,
         [](const R &r) {
             std::vector<std::int64_t> a(r.recovered.begin(),
                                         r.recovered.end());
             return FieldValue::ofIntArray(std::move(a));
         },
         [](R &r, const FieldValue &v) {
             r.recovered.clear();
             for (const std::int64_t x : v.a)
                 r.recovered.push_back(static_cast<int>(x));
             return true;
         }});
    fields.push_back(
        {"expected", FieldType::IntArray, 0,
         [](const R &r) {
             std::vector<std::int64_t> a(r.expected.begin(),
                                         r.expected.end());
             return FieldValue::ofIntArray(std::move(a));
         },
         [](R &r, const FieldValue &v) {
             r.expected.clear();
             for (const std::int64_t x : v.a)
                 r.expected.push_back(
                     static_cast<std::uint8_t>(x));
             return true;
         }});
    fields.push_back({"accuracy", FieldType::Double, kAccuracy,
                      [](const R &r) {
                          return FieldValue::ofDouble(r.accuracy);
                      },
                      [](R &r, const FieldValue &v) {
                          r.accuracy = v.d;
             return true;
                      }});
    fields.push_back({"leaked", FieldType::Bool, 0,
                      [](const R &r) {
                          return FieldValue::ofBool(r.leaked);
                      },
                      [](R &r, const FieldValue &v) {
                          r.leaked = v.b;
             return true;
                      }});
    fields.push_back({"guestCycles", FieldType::UInt, 0,
                      [](const R &r) {
                          return FieldValue::ofUInt(r.guestCycles);
                      },
                      [](R &r, const FieldValue &v) {
                          r.guestCycles = v.u;
             return true;
                      }});
    fields.push_back(
        {"transientForwards", FieldType::UInt, 0,
         [](const R &r) {
             return FieldValue::ofUInt(r.transientForwards);
         },
         [](R &r, const FieldValue &v) {
             r.transientForwards = v.u;
             return true;
         }});
    return RecordSchema<R>("result", std::move(fields));
}

RecordSchema<uarch::CpuStats>
makeCpuStatsSchema()
{
    using S = uarch::CpuStats;
    using F = FieldDescriptor<S>;
    const auto u64 = [](const char *name,
                        std::uint64_t S::*member) {
        return F{name, FieldType::UInt, 0,
                 [member](const S &s) {
                     return FieldValue::ofUInt(s.*member);
                 },
                 [member](S &s, const FieldValue &v) {
                     s.*member = v.u;
             return true;
                 }};
    };
    std::vector<F> fields{
        u64("cycles", &S::cycles),
        u64("committed", &S::committed),
        u64("squashed", &S::squashed),
        u64("branchMispredicts", &S::branchMispredicts),
        u64("exceptions", &S::exceptions),
        u64("memOrderViolations", &S::memOrderViolations),
        u64("speculativeFills", &S::speculativeFills),
        u64("transientForwards", &S::transientForwards),
    };
    return RecordSchema<S>("stats", std::move(fields));
}

} // namespace

const RecordSchema<campaign::ScenarioOutcome> &
outcomeSchema()
{
    static const RecordSchema<campaign::ScenarioOutcome> schema =
        makeOutcomeSchema();
    return schema;
}

const RecordSchema<attacks::AttackResult> &
attackResultSchema()
{
    static const RecordSchema<attacks::AttackResult> schema =
        makeAttackResultSchema();
    return schema;
}

const RecordSchema<uarch::CpuStats> &
cpuStatsSchema()
{
    static const RecordSchema<uarch::CpuStats> schema =
        makeCpuStatsSchema();
    return schema;
}

std::string
wireSchemaTag()
{
    return attackResultSchema().tag() + ";" +
           cpuStatsSchema().tag() + ";" + outcomeSchema().tag();
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
