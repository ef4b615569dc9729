/**
 * @file
 * CI perf gate: checks the machine-readable bench results
 * (BENCH_*.json) against the committed baseline
 * bench/perf_baseline.json, failing the build when a pinned metric
 * regresses past its bound.
 *
 * The baseline follows the golden suite's tolerance idiom: every
 * gate carries an explicit absEps and one bound, a floor or a
 * ceiling: a metric passes while value >= min - absEps, or while
 * value <= max + absEps.  Floors pin machine-independent ratios
 * (model_vs_sim_speedup is the analytic model vs. the simulator,
 * measured in the same process on the same machine), ceilings pin
 * exact work counters (heap allocations per expanded cell), never
 * absolute scenarios/sec — those swing with the CI runner and
 * would make the gate flaky.
 *
 * Usage: perf_gate [--baseline PATH] [--dir DIR]
 *   --baseline  gate definitions (default bench/perf_baseline.json)
 *   --dir       where the BENCH_*.json files live (default ".")
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "tool/jsonio.hh"
#include "tool/report.hh"

using namespace specsec;
using tool::json::Cursor;

namespace
{

/** One pinned metric: pass while value >= min - absEps (a floor)
 *  or value <= max + absEps (a ceiling). */
struct Gate
{
    std::string file; ///< bench results file, relative to --dir
    std::string key;
    double limit = 0.0;   ///< the min or the max
    bool ceiling = false; ///< limit is a max
    double absEps = 0.0;
};

bool
parseBaseline(const std::string &text, std::vector<Gate> &gates,
              std::string &error)
{
    Cursor cur(text);
    if (!cur.expect('{'))
        return false;
    bool sawSchema = false;
    while (!cur.peekConsume('}')) {
        const std::string key = cur.parseString();
        if (!cur.expect(':'))
            break;
        if (key == "schema") {
            const std::string schema = cur.parseString();
            if (schema != "specsec-perf-baseline-v1") {
                error = "unknown baseline schema '" + schema + "'";
                return false;
            }
            sawSchema = true;
        } else if (key == "gates") {
            if (!cur.expect('['))
                break;
            while (!cur.peekConsume(']')) {
                Gate gate;
                int limits = 0;
                if (!cur.expect('{'))
                    break;
                while (!cur.peekConsume('}')) {
                    const std::string field = cur.parseString();
                    if (!cur.expect(':'))
                        break;
                    if (field == "file")
                        gate.file = cur.parseString();
                    else if (field == "key")
                        gate.key = cur.parseString();
                    else if (field == "min" || field == "max") {
                        gate.limit = cur.parseDouble();
                        gate.ceiling = field == "max";
                        ++limits;
                    } else if (field == "absEps")
                        gate.absEps = cur.parseDouble();
                    else {
                        error = "unknown gate field '" + field + "'";
                        return false;
                    }
                    cur.peekConsume(',');
                }
                if (limits != 1) {
                    error = "gate '" + gate.key +
                            "' needs exactly one of min and max";
                    return false;
                }
                gates.push_back(gate);
                cur.peekConsume(',');
            }
        } else {
            error = "unknown baseline field '" + key + "'";
            return false;
        }
        cur.peekConsume(',');
    }
    if (cur.failed()) {
        error = cur.error();
        return false;
    }
    if (!sawSchema) {
        error = "baseline is missing its schema tag";
        return false;
    }
    return true;
}

/**
 * Flat BENCH_*.json object -> numeric fields.  BenchJson writes
 * one object of string/number values with no nesting; string
 * values (the bench name) are skipped, numbers collected.  Parsed
 * by hand because tool::json::Cursor cannot look ahead past a
 * value's opening quote to skip it.
 */
bool
parseBenchResults(const std::string &text,
                  std::map<std::string, double> &values,
                  std::string &error)
{
    std::size_t pos = 0;
    const auto skipWs = [&] {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n' ||
                text[pos] == '\t' || text[pos] == '\r'))
            ++pos;
    };
    const auto fail = [&](const std::string &message) {
        error = message + " at byte " + std::to_string(pos);
        return false;
    };
    const auto parseQuoted = [&](std::string &out) {
        if (pos >= text.size() || text[pos] != '"')
            return false;
        const std::size_t close = text.find('"', pos + 1);
        if (close == std::string::npos)
            return false;
        out = text.substr(pos + 1, close - pos - 1);
        pos = close + 1;
        return true;
    };

    skipWs();
    if (pos >= text.size() || text[pos++] != '{')
        return fail("expected '{'");
    skipWs();
    if (pos < text.size() && text[pos] == '}')
        return true;
    for (;;) {
        skipWs();
        std::string key;
        if (!parseQuoted(key))
            return fail("expected a key string");
        skipWs();
        if (pos >= text.size() || text[pos++] != ':')
            return fail("expected ':'");
        skipWs();
        if (pos < text.size() && text[pos] == '"') {
            std::string skipped;
            if (!parseQuoted(skipped))
                return fail("unterminated string value");
        } else {
            char *end = nullptr;
            const double value =
                std::strtod(text.c_str() + pos, &end);
            if (end == text.c_str() + pos)
                return fail("expected a number");
            values[key] = value;
            pos = static_cast<std::size_t>(end - text.c_str());
        }
        skipWs();
        if (pos < text.size() && text[pos] == ',') {
            ++pos;
            continue;
        }
        if (pos < text.size() && text[pos] == '}')
            return true;
        return fail("expected ',' or '}'");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baseline_path = "bench/perf_baseline.json";
    std::string dir = ".";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc)
            baseline_path = argv[++i];
        else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc)
            dir = argv[++i];
        else {
            std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
            return 2;
        }
    }

    std::string text;
    if (!tool::readTextFile(baseline_path, text)) {
        std::fprintf(stderr, "perf gate: cannot read %s\n",
                     baseline_path.c_str());
        return 2;
    }
    std::vector<Gate> gates;
    std::string error;
    if (!parseBaseline(text, gates, error)) {
        std::fprintf(stderr, "perf gate: %s: %s\n",
                     baseline_path.c_str(), error.c_str());
        return 2;
    }
    if (gates.empty()) {
        std::fprintf(stderr, "perf gate: baseline pins nothing\n");
        return 2;
    }

    std::map<std::string, std::map<std::string, double>> loaded;
    bool ok = true;
    std::printf("%-20s %-32s %10s %11s  %s\n", "file", "metric",
                "value", "bound", "verdict");
    for (const Gate &gate : gates) {
        if (loaded.find(gate.file) == loaded.end()) {
            const std::string path = dir + "/" + gate.file;
            std::string bench_text;
            if (!tool::readTextFile(path, bench_text)) {
                std::fprintf(stderr,
                             "perf gate: cannot read %s\n",
                             path.c_str());
                return 2;
            }
            if (!parseBenchResults(bench_text, loaded[gate.file],
                                   error)) {
                std::fprintf(stderr, "perf gate: %s: %s\n",
                             path.c_str(), error.c_str());
                return 2;
            }
        }
        const auto &values = loaded[gate.file];
        const auto it = values.find(gate.key);
        const char *op = gate.ceiling ? "<=" : ">=";
        const double bound = gate.ceiling ? gate.limit + gate.absEps
                                          : gate.limit - gate.absEps;
        if (it == values.end()) {
            std::printf("%-20s %-32s %10s %s %8.3f  MISSING\n",
                        gate.file.c_str(), gate.key.c_str(), "-", op,
                        bound);
            ok = false;
            continue;
        }
        const bool pass =
            gate.ceiling ? it->second <= bound : it->second >= bound;
        std::printf("%-20s %-32s %10.3f %s %8.3f  %s\n",
                    gate.file.c_str(), gate.key.c_str(), it->second, op,
                    bound, pass ? "ok" : "REGRESSED");
        ok &= pass;
    }
    std::printf("perf gate: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
