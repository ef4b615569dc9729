#include "report.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/campaign.hh"
#include "core/security_dependency.hh"
#include "schema.hh"

namespace specsec::tool
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonStringArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        out += i ? ", \"" : "\"";
        out += jsonEscape(items[i]);
        out += "\"";
    }
    out += "]";
    return out;
}

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

namespace
{

/** Fixed-precision double rendering: locale-independent, stable. */
std::string
num(double value)
{
    return formatDouble(value, DoubleStyle::Fixed4);
}

} // namespace

std::string
renderReport(const AnalysisResult &result, const Program &program)
{
    std::ostringstream os;
    os << "=== speculative execution vulnerability report ===\n";
    os << "program (" << program.size() << " instructions):\n";
    os << program.disassembleAll();
    os << "\nattack graph: " << result.graph.tsg().nodeCount()
       << " operations, " << result.graph.tsg().edgeCount()
       << " dependencies\n";
    os << "  authorization operations: "
       << result.graph.authorizationNodes().size() << "\n";
    os << "  potential secret accesses: "
       << result.graph.secretAccessNodes().size() << "\n";
    os << "  covert send operations: "
       << result.graph.sendNodes().size() << "\n";
    os << "\nverdict: "
       << (result.vulnerable ? "VULNERABLE" : "no exploitable race")
       << "\n";
    if (result.findings.empty()) {
        os << "no missing security dependencies found\n";
        return os.str();
    }
    os << "missing security dependencies ("
       << result.findings.size() << "):\n";
    for (const Finding &f : result.findings) {
        os << "  - " << f.description << "\n";
        os << "    authorization pc: ";
        if (f.authPc)
            os << *f.authPc;
        else
            os << "(none)";
        os << ", operation pc: ";
        if (f.accessPc)
            os << *f.accessPc;
        else
            os << "(none)";
        os << "\n    suggested strategy: "
           << core::defenseStrategyName(f.suggested) << "\n";
    }
    return os.str();
}

std::string
campaignJson(const campaign::CampaignReport &report,
             bool include_timing)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"name\": \"" << jsonEscape(report.name) << "\",\n";
    os << "  \"expandedCount\": " << report.expandedCount << ",\n";
    os << "  \"uniqueCount\": " << report.uniqueCount << ",\n";
    if (include_timing) {
        // Run provenance: which cells executed vs. hit the result
        // cache is machine/history-dependent, so it lives with the
        // timing fields, outside the deterministic contract.
        os << "  \"executedCount\": " << report.executedCount
           << ",\n";
        os << "  \"cacheHits\": " << report.cacheHits << ",\n";
        os << "  \"workers\": " << report.workers << ",\n";
        os << "  \"wallMillis\": " << num(report.wallMillis)
           << ",\n";
        os << "  \"scenariosPerSecond\": "
           << num(report.scenariosPerSecond()) << ",\n";
    }
    os << "  \"rows\": [";
    for (std::size_t i = 0; i < report.rowLabels.size(); ++i) {
        os << (i ? ", " : "") << "\""
           << jsonEscape(report.rowLabels[i]) << "\"";
    }
    os << "],\n  \"cols\": [";
    for (std::size_t i = 0; i < report.colLabels.size(); ++i) {
        os << (i ? ", " : "") << "\""
           << jsonEscape(report.colLabels[i]) << "\"";
    }
    os << "],\n  \"matrix\": [\n";
    for (std::size_t r = 0; r < report.rowLabels.size(); ++r) {
        os << "    {\"variant\": \""
           << jsonEscape(report.rowLabels[r]) << "\", \"cells\": [";
        for (std::size_t c = 0; c < report.colLabels.size(); ++c) {
            os << (c ? ", " : "") << "{\"runs\": "
               << report.cellRuns[r][c] << ", \"leaks\": "
               << report.cellLeaks[r][c] << "}";
        }
        os << "]}"
           << (r + 1 < report.rowLabels.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"outcomes\": [\n";
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        os << "    " << outcomeJson(report.outcomes[i],
                                    include_timing)
           << (i + 1 < report.outcomes.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

std::string
campaignCsv(const campaign::CampaignReport &report,
            bool include_timing)
{
    std::string out = campaignCsvHeader(include_timing);
    for (const campaign::ScenarioOutcome &o : report.outcomes)
        out += campaignCsvRow(o, include_timing);
    return out;
}

bool
writeTextFile(const std::string &path, const std::string &contents)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    f << contents;
    return static_cast<bool>(f);
}

bool
readTextFile(const std::string &path, std::string &out)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return false;
    std::ostringstream ss;
    ss << f.rdbuf();
    out = ss.str();
    return static_cast<bool>(f);
}

} // namespace specsec::tool
