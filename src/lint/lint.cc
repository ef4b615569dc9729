#include "lint.hh"

#include <cctype>
#include <sstream>
#include <stdexcept>

#include "core/security_dependency.hh"
#include "tool/jsonio.hh"
#include "tool/report.hh"
#include "uarch/isa.hh"
#include "verdict/static_verdict.hh"

namespace specsec::lint
{

namespace
{

constexpr const char *kSchemaTag = "specsec-lint-v1";

} // namespace

const std::vector<LintRule> &
rules()
{
    static const std::vector<LintRule> kRules = {
        {"spec-bypass-read", "error",
         "a speculatively-reachable load reads protected memory "
         "before the guarding authorization resolves"},
        {"spec-bypass-write", "error",
         "a speculatively-reachable store clobbers memory before "
         "the guarding authorization resolves"},
        {"intra-instruction-race", "error",
         "a faulting access races its own permission check "
         "(Meltdown-type; software fences cannot close it)"},
        {"stale-forward", "error",
         "a load can consume stale data before store-load address "
         "disambiguation resolves (v4-type)"},
        {"transient-send", "warning",
         "a covert send transmits possibly-secret data before an "
         "authorization resolves (exfiltration half of a leak)"},
    };
    return kRules;
}

const LintRule *
findRule(const std::string &id)
{
    for (const LintRule &r : rules())
        if (id == r.id)
            return &r;
    return nullptr;
}

LintReport
lintAttack(const core::AttackDescriptor &descriptor)
{
    if (!descriptor.staticProgram)
        throw std::invalid_argument("attack '" + descriptor.name +
                                    "' has no static program");
    // The unmitigated program's analysis, made once per process and
    // shared with the static verdict backend.
    const verdict::detail::ProgramAnalysis &analyzed =
        verdict::detail::analyzedProgram(descriptor, false, false);
    const tool::AnalysisResult &analysis = analyzed.analysis;
    const uarch::Program &program = analyzed.program;

    LintReport report;
    report.attack = descriptor.name;
    report.vulnerable = analysis.vulnerable;
    for (const tool::Finding &f : analysis.findings) {
        LintFinding lf;
        const LintRule *rule = nullptr;
        const std::string &auth =
            analysis.graph.tsg().label(f.authorization);
        if (f.operationRole == core::NodeRole::Send)
            rule = findRule("transient-send");
        else if (auth.find("disambiguation") != std::string::npos)
            rule = findRule("stale-forward");
        else if (f.authPc && f.accessPc && *f.authPc == *f.accessPc)
            rule = findRule("intra-instruction-race");
        else if (f.accessPc && *f.accessPc < program.size() &&
                 uarch::isStore(program.at(*f.accessPc).op))
            rule = findRule("spec-bypass-write");
        else
            rule = findRule("spec-bypass-read");
        lf.rule = rule->id;
        lf.severity = rule->severity;
        lf.authPc = f.authPc ? static_cast<std::int64_t>(*f.authPc) : -1;
        lf.accessPc =
            f.accessPc ? static_cast<std::int64_t>(*f.accessPc) : -1;
        if (f.accessPc && *f.accessPc < program.size())
            lf.instruction =
                uarch::disassemble(program.at(*f.accessPc));
        lf.witness = f.description;
        lf.suggested = core::defenseStrategyName(f.suggested);
        report.findings.push_back(std::move(lf));
    }
    return report;
}

std::string
lintFileSlug(const std::string &attack_name)
{
    std::string slug;
    bool pendingDash = false;
    for (char c : attack_name) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (std::isalnum(u)) {
            if (pendingDash && !slug.empty())
                slug.push_back('-');
            pendingDash = false;
            slug.push_back(
                static_cast<char>(std::tolower(u)));
        } else {
            pendingDash = true;
        }
    }
    return slug;
}

std::string
lintReportJson(const LintReport &report)
{
    std::ostringstream os;
    os << "{\n \"schema\": \"" << kSchemaTag << "\",\n \"attack\": \""
       << tool::jsonEscape(report.attack) << "\",\n \"vulnerable\": "
       << (report.vulnerable ? "true" : "false")
       << ",\n \"findings\": [";
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
        const LintFinding &f = report.findings[i];
        os << (i ? ",\n  " : "\n  ") << "{\"rule\": \""
           << tool::jsonEscape(f.rule) << "\", \"severity\": \""
           << tool::jsonEscape(f.severity) << "\",\n   \"authPc\": "
           << f.authPc << ", \"accessPc\": " << f.accessPc
           << ",\n   \"instruction\": \""
           << tool::jsonEscape(f.instruction)
           << "\",\n   \"witness\": \"" << tool::jsonEscape(f.witness)
           << "\",\n   \"suggested\": \""
           << tool::jsonEscape(f.suggested) << "\"}";
    }
    os << (report.findings.empty() ? "]" : "\n ]") << "\n}\n";
    return os.str();
}

std::optional<LintReport>
parseLintReportJson(const std::string &text, std::string *error)
{
    tool::json::Cursor c(text);
    LintReport report;
    bool sawSchema = false;

    c.expect('{');
    while (!c.failed()) {
        const std::string key = c.parseString();
        c.expect(':');
        if (key == "schema") {
            if (c.parseString() != kSchemaTag)
                c.fail("unsupported lint schema");
            sawSchema = true;
        } else if (key == "attack") {
            report.attack = c.parseString();
        } else if (key == "vulnerable") {
            report.vulnerable = c.parseBool();
        } else if (key == "findings") {
            c.expect('[');
            if (!c.peekConsume(']')) {
                do {
                    LintFinding f;
                    c.expect('{');
                    while (!c.failed()) {
                        const std::string fk = c.parseString();
                        c.expect(':');
                        if (fk == "rule")
                            f.rule = c.parseString();
                        else if (fk == "severity")
                            f.severity = c.parseString();
                        else if (fk == "authPc")
                            f.authPc = c.parseI64();
                        else if (fk == "accessPc")
                            f.accessPc = c.parseI64();
                        else if (fk == "instruction")
                            f.instruction = c.parseString();
                        else if (fk == "witness")
                            f.witness = c.parseString();
                        else if (fk == "suggested")
                            f.suggested = c.parseString();
                        else
                            c.fail("unknown finding key '" + fk + "'");
                        if (!c.peekConsume(','))
                            break;
                    }
                    c.expect('}');
                    report.findings.push_back(std::move(f));
                } while (c.peekConsume(','));
                c.expect(']');
            }
        } else {
            c.fail("unknown report key '" + key + "'");
        }
        if (!c.peekConsume(','))
            break;
    }
    c.expect('}');
    if (!c.failed() && !c.atEnd())
        c.fail("trailing content after report");
    if (!c.failed() && !sawSchema)
        c.fail("missing schema tag");
    if (c.failed()) {
        if (error != nullptr)
            *error = c.error();
        return std::nullopt;
    }
    return report;
}

namespace
{

std::string
findingKey(const LintFinding &f)
{
    std::ostringstream os;
    os << f.rule << " @ auth=" << f.authPc << " access=" << f.accessPc;
    return os.str();
}

} // namespace

std::vector<std::string>
compareLintReports(const LintReport &pinned, const LintReport &fresh)
{
    std::vector<std::string> drift;
    if (pinned.attack != fresh.attack)
        drift.push_back("attack name changed: pinned '" +
                        pinned.attack + "', fresh '" + fresh.attack +
                        "'");
    if (pinned.vulnerable != fresh.vulnerable)
        drift.push_back(
            std::string("verdict flipped: pinned ") +
            (pinned.vulnerable ? "vulnerable" : "safe") + ", fresh " +
            (fresh.vulnerable ? "vulnerable" : "safe"));

    std::vector<bool> matched(pinned.findings.size(), false);
    for (const LintFinding &f : fresh.findings) {
        bool found = false;
        for (std::size_t i = 0; i < pinned.findings.size(); ++i) {
            const LintFinding &p = pinned.findings[i];
            if (matched[i] || findingKey(p) != findingKey(f))
                continue;
            matched[i] = true;
            found = true;
            if (p != f) {
                std::string detail;
                if (p.severity != f.severity)
                    detail += " severity '" + p.severity + "' -> '" +
                              f.severity + "';";
                if (p.instruction != f.instruction)
                    detail += " instruction '" + p.instruction +
                              "' -> '" + f.instruction + "';";
                if (p.witness != f.witness)
                    detail += " witness '" + p.witness + "' -> '" +
                              f.witness + "';";
                if (p.suggested != f.suggested)
                    detail += " suggested '" + p.suggested + "' -> '" +
                              f.suggested + "';";
                drift.push_back("finding changed [" + findingKey(f) +
                                "]:" + detail);
            }
            break;
        }
        if (!found)
            drift.push_back("unpinned finding [" + findingKey(f) +
                            "]: " + f.witness);
    }
    for (std::size_t i = 0; i < pinned.findings.size(); ++i)
        if (!matched[i])
            drift.push_back("pinned finding vanished [" +
                            findingKey(pinned.findings[i]) +
                            "]: " + pinned.findings[i].witness);
    return drift;
}

} // namespace specsec::lint
