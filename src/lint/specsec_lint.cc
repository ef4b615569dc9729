/**
 * @file
 * specsec_lint: the static leak lint CLI.
 *
 *   specsec_lint --list-rules
 *   specsec_lint --show <attack>
 *   specsec_lint --check  [--golden-dir DIR] [attack ...]
 *   specsec_lint --record [--golden-dir DIR] [attack ...]
 *
 * --check re-analyzes every targeted attack's static program and
 * compares the classified findings finding-by-finding against the
 * committed golden/lint-<slug>.json pins; --record rewrites them.
 * With no attack arguments, every catalog attack exposing a static
 * program is targeted.  Exit codes: 0 clean, 1 drift or missing
 * pin, 2 usage error.
 */

#include <iostream>
#include <string>
#include <vector>

#include "core/catalog.hh"
#include "lint/lint.hh"
#include "tool/cli.hh"
#include "tool/report.hh"

namespace
{

using namespace specsec;

int
usage(std::ostream &os, int code)
{
    os << "usage: specsec_lint --list-rules\n"
          "       specsec_lint --show <attack>\n"
          "       specsec_lint --check  [--golden-dir DIR] "
          "[attack ...]\n"
          "       specsec_lint --record [--golden-dir DIR] "
          "[attack ...]\n";
    return code;
}

int
listRules()
{
    for (const lint::LintRule &r : lint::rules())
        std::cout << r.id << "  [" << r.severity << "]  " << r.summary
                  << "\n";
    return 0;
}

std::string
goldenPath(const std::string &dir, const std::string &attack)
{
    return dir + "/lint-" + lint::lintFileSlug(attack) + ".json";
}

/** Resolve attack args (or default to every static-program attack). */
int
resolveTargets(const std::vector<std::string> &args,
               std::vector<const core::AttackDescriptor *> &out)
{
    core::ScenarioCatalog &catalog = core::ScenarioCatalog::instance();
    if (args.empty()) {
        for (const core::AttackDescriptor *d : catalog.attacks())
            if (d->staticProgram)
                out.push_back(d);
        return 0;
    }
    for (const std::string &name : args) {
        const core::AttackDescriptor *d = catalog.findAttack(name);
        if (d == nullptr) {
            std::cerr << core::unknownNameMessage(
                             "attack", name,
                             catalog.attackSuggestions(name))
                      << "\n";
            return 2;
        }
        if (!d->staticProgram) {
            std::cerr << "attack '" << d->name
                      << "' has no static program to lint\n";
            return 2;
        }
        out.push_back(d);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode;
    std::string goldenDir = "golden";
    std::vector<std::string> attackArgs;

    for (tool::cli::Args args(argc, argv); args.next();) {
        const std::string &arg = args.arg();
        if (arg == "--list-rules" || arg == "--show" ||
            arg == "--check" || arg == "--record") {
            if (!mode.empty())
                return usage(std::cerr, 2);
            mode = arg;
        } else if (args.is("--golden-dir")) {
            goldenDir = args.value();
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option '" << arg << "'\n";
            return usage(std::cerr, 2);
        } else {
            attackArgs.push_back(arg);
        }
    }
    if (mode.empty())
        return usage(std::cerr, 2);
    if (mode == "--list-rules")
        return listRules();
    if (mode == "--show" && attackArgs.size() != 1)
        return usage(std::cerr, 2);

    std::vector<const core::AttackDescriptor *> targets;
    if (int rc = resolveTargets(attackArgs, targets); rc != 0)
        return rc;

    if (mode == "--show") {
        std::cout << lint::lintReportJson(
            lint::lintAttack(*targets.front()));
        return 0;
    }

    std::size_t failures = 0;
    std::size_t findings = 0;
    for (const core::AttackDescriptor *d : targets) {
        const lint::LintReport fresh = lint::lintAttack(*d);
        findings += fresh.findings.size();
        const std::string path = goldenPath(goldenDir, d->name);
        if (mode == "--record") {
            if (!tool::writeTextFile(path, lint::lintReportJson(fresh))) {
                std::cerr << "cannot write " << path << "\n";
                return 2;
            }
            std::cout << "recorded " << path << " ("
                      << fresh.findings.size() << " findings)\n";
            continue;
        }
        std::string text;
        if (!tool::readTextFile(path, text)) {
            std::cerr << d->name << ": missing lint pin " << path
                      << " (run --record)\n";
            ++failures;
            continue;
        }
        std::string error;
        const auto pinned = lint::parseLintReportJson(text, &error);
        if (!pinned) {
            std::cerr << d->name << ": unreadable lint pin " << path
                      << ": " << error << "\n";
            ++failures;
            continue;
        }
        const std::vector<std::string> drift =
            lint::compareLintReports(*pinned, fresh);
        for (const std::string &line : drift)
            std::cerr << d->name << ": " << line << "\n";
        failures += drift.empty() ? 0 : 1;
    }
    if (mode == "--check") {
        if (failures != 0) {
            std::cerr << "lint: " << failures << " of "
                      << targets.size() << " attacks drifted\n";
            return 1;
        }
        std::cout << "lint: " << targets.size() << " attacks, "
                  << findings << " pinned findings, clean\n";
    }
    return 0;
}
