/**
 * @file
 * specsec_regress: the golden success-matrix regression gate.
 *
 * Records one golden matrix per named campaign spec (JSON under
 * golden/) and checks fresh runs against them cell-by-cell:
 *
 *   specsec_regress --list
 *   specsec_regress --record [--spec NAME] [--golden-dir DIR]
 *   specsec_regress --check  [--spec NAME] [--golden-dir DIR]
 *                            [--artifact-dir DIR] [--workers N]
 *                            [--cache-file PATH]
 *   specsec_regress --check --shard I/N [--shard-dir DIR]
 *   specsec_regress --merge [--shard-dir DIR] ...
 *
 * --check exits 0 when every matrix matches its golden, 1 on drift
 * (printing a diff naming each changed (variant, defense) cell and
 * writing actual/diff/campaign artifacts for CI upload), 2 on usage
 * or I/O errors.  --flip-vuln PATH deliberately removes a forwarding
 * path from the checked specs' baseline core -- a self-test that the
 * gate catches model changes.
 *
 * Sharded operation fans one gate across processes: `--check
 * --shard I/N` executes shard I of every selected spec and writes a
 * mergeable shard report per spec into --shard-dir instead of
 * comparing; a final `--merge` invocation loads every shard file,
 * re-joins them with CampaignReport::merge, and compares the merged
 * matrices against the goldens -- byte-identically to a
 * single-process --check (tests/shard_test.cc pins this).
 *
 * --cache-file makes the cross-spec ResultCache persistent: entries
 * are loaded before the first spec (ignored wholesale when the
 * model fingerprint is stale or the file is corrupt) and saved back
 * atomically at exit, so an unchanged matrix re-run executes zero
 * cells even across processes and CI jobs.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "campaign/sink.hh"
#include "core/catalog.hh"
#include "regress/golden.hh"
#include "regress/specs.hh"
#include "serve/client.hh"
#include "tool/cli.hh"
#include "tool/report.hh"
#include "tool/report_io.hh"
#include "verdict/differential.hh"
#include "verdict/model.hh"
#include "verdict/static_verdict.hh"
#include "verdict/verdict.hh"

using namespace specsec;
using namespace specsec::regress;
namespace cli = specsec::tool::cli;

namespace
{

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [--list | --record | --check | --merge] "
        "[options]\n"
        "  --list             print the registered specs\n"
        "  --json             with --list: one JSON object per spec "
        "(the same\n"
        "                     shape campaign_cli list-attacks --json "
        "uses)\n"
        "  --record           (re)write goldens from a fresh run; "
        "always runs the\n"
        "                     differential backend and also "
        "(re)writes the\n"
        "                     disagreement pins "
        "golden/differential-<spec>.json and\n"
        "                     golden/differential-static-<spec>.json\n"
        "  --check            compare a fresh run against goldens "
        "(default)\n"
        "  --merge            merge shard reports from --shard-dir "
        "and compare\n"
        "                     the merged matrices against goldens\n"
        "  --spec NAME        limit to one registered spec\n"
        "  --golden-dir DIR   golden file directory (default: "
        "golden)\n"
        "  --artifact-dir DIR where --check drops actual/diff/"
        "campaign files on drift\n"
        "                     (default: regress-artifacts)\n"
        "  --shard-dir DIR    shard report directory (default: "
        "regress-shards)\n"
        "  --flip-vuln PATH   drift self-test: disable a forwarding "
        "path (meltdown,\n"
        "                     l1tf, mds, lazyfp, store-bypass, msr, "
        "taa) before running\n"
        "%s"
        "  --backend, --shard and --connect apply to --check: backend "
        "differential\n"
        "  or static also gates the pinned divergences, and --shard "
        "writes shard\n"
        "  reports to --shard-dir instead of comparing.\n",
        prog, cli::kRunFlagUsage);
    return 2;
}

bool
ensureDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return !ec;
}

std::string
shardFileName(const std::string &spec, std::size_t index,
              std::size_t count)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, ".shard-%zu-of-%zu.json", index,
                  count);
    return spec + buf;
}

/** Exit-code bookkeeping shared by --check and --merge. */
struct GateStatus
{
    bool drift = false;
    bool io_error = false;
};

/**
 * The golden comparison step: compare @p report against the
 * committed golden of @p named, printing ok/DRIFT and dropping
 * artifacts on drift.
 */
void
checkAgainstGolden(const NamedSpec &named,
                   const campaign::CampaignReport &report,
                   const std::string &golden_dir,
                   const std::string &artifact_dir,
                   GateStatus &status)
{
    const std::string golden_path =
        golden_dir + "/" + named.name + ".json";

    std::string text;
    if (!tool::readTextFile(golden_path, text)) {
        std::fprintf(stderr,
                     "%s: missing golden %s (run "
                     "specsec_regress --record)\n",
                     named.name.c_str(), golden_path.c_str());
        status.io_error = true;
        return;
    }
    std::string parse_error;
    const auto golden = parseGoldenJson(text, &parse_error);
    if (!golden) {
        std::fprintf(stderr, "%s: malformed golden %s: %s\n",
                     named.name.c_str(), golden_path.c_str(),
                     parse_error.c_str());
        status.io_error = true;
        return;
    }

    // The golden dictates the comparison contract: accuracy values
    // are captured and checked (under its absEps) only when the
    // golden pins them.
    GoldenMatrix actual =
        GoldenMatrix::fromReport(report, golden->hasAccuracy);
    actual.absEps = golden->absEps;

    const MatrixDiff diff = compareGolden(*golden, actual);
    if (diff.empty()) {
        std::printf("ok       %-28s %4zu cells (%zu executed, "
                    "%zu cached)\n",
                    named.name.c_str(), report.expandedCount,
                    report.executedCount, report.cacheHits);
        return;
    }

    status.drift = true;
    std::printf("DRIFT    %-28s %zu structural, %zu cell "
                "change(s):\n%s",
                named.name.c_str(), diff.structural.size(),
                diff.cells.size(), renderDiff(diff).c_str());
    if (ensureDir(artifact_dir)) {
        const std::string stem = artifact_dir + "/" + named.name;
        tool::writeTextFile(stem + ".actual.json",
                            goldenJson(actual));
        tool::writeTextFile(stem + ".diff.txt", renderDiff(diff));
        tool::writeTextFile(stem + ".campaign.json",
                            tool::campaignJson(report, false));
        tool::writeTextFile(stem + ".campaign.csv",
                            tool::campaignCsv(report, false));
        std::printf("         artifacts under %s/\n",
                    artifact_dir.c_str());
    }
}

/**
 * --merge: load and fold every shard report of @p named from
 * @p shard_dir; nullopt (with a printed message) when files are
 * missing, malformed, conflicting, or the union is incomplete.
 */
std::optional<campaign::CampaignReport>
mergeShards(const NamedSpec &named, const std::string &shard_dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    const std::string prefix = named.name + ".shard-";
    for (const auto &entry :
         std::filesystem::directory_iterator(shard_dir, ec)) {
        const std::string file = entry.path().filename().string();
        if (file.rfind(prefix, 0) == 0 &&
            file.size() > 5 &&
            file.compare(file.size() - 5, 5, ".json") == 0)
            files.push_back(entry.path().string());
    }
    if (ec) {
        std::fprintf(stderr, "%s: cannot read shard dir %s\n",
                     named.name.c_str(), shard_dir.c_str());
        return std::nullopt;
    }
    if (files.empty()) {
        std::fprintf(stderr,
                     "%s: no shard reports under %s (run --check "
                     "--shard I/N first)\n",
                     named.name.c_str(), shard_dir.c_str());
        return std::nullopt;
    }
    // Deterministic fold order regardless of directory order.
    std::sort(files.begin(), files.end());

    std::string error;
    auto merged = cli::mergeShardFiles(files, &error);
    if (!merged) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return std::nullopt;
    }
    if (merged->partial()) {
        std::fprintf(stderr,
                     "%s: merged shards cover %zu of %zu grid "
                     "points -- missing shard file(s)?\n",
                     named.name.c_str(), merged->outcomes.size(),
                     merged->expandedCount);
        return std::nullopt;
    }
    return merged;
}

/** Pin-file basename prefix for a judging backend's divergences. */
const char *
pinPrefix(verdict::VerdictBackend backend)
{
    return backend == verdict::VerdictBackend::Static
               ? "differential-static-"
               : "differential-";
}

/**
 * The disagreements of a differential- or static-backend run, one
 * entry per distinct scenario key (grid dedup can back several cells
 * with one execution), with the judging backend's rationale
 * re-derived so recorded pins are self-documenting.
 */
verdict::DisagreementSet
freshDisagreements(const NamedSpec &named,
                   const campaign::CampaignReport &report,
                   verdict::VerdictBackend backend)
{
    verdict::DisagreementSet set;
    set.spec = named.name;
    std::vector<std::string> seen;
    for (const campaign::ScenarioOutcome &o : report.outcomes) {
        if (o.agreement != "disagree")
            continue;
        const std::string key = campaign::scenarioKey(
            o.variant, o.config, o.options);
        if (std::find(seen.begin(), seen.end(), key) != seen.end())
            continue;
        seen.push_back(key);
        verdict::Disagreement d;
        d.key = key;
        d.row = o.rowLabel;
        d.col = o.colLabel;
        d.model = o.modelVerdict;
        d.simulator = o.result.leaked ? "leak" : "blocked";
        d.evidence = o.evidence;
        d.rationale =
            (backend == verdict::VerdictBackend::Static
                 ? verdict::judgeScenarioStatic(o.variant, o.config,
                                                o.options)
                 : verdict::judgeScenario(o.variant, o.config,
                                          o.options))
                .rationale;
        set.disagreements.push_back(std::move(d));
    }
    return set;
}

/**
 * The differential gate: compare the run's disagreements against
 * the committed pins in golden/differential-<spec>.json.  A missing
 * pin file is only an error when the run actually disagrees
 * somewhere (pre-pin goldens stay checkable).
 */
void
checkDisagreements(const NamedSpec &named,
                   const campaign::CampaignReport &report,
                   verdict::VerdictBackend backend,
                   const std::string &golden_dir,
                   const std::string &artifact_dir,
                   GateStatus &status)
{
    const verdict::DisagreementSet fresh =
        freshDisagreements(named, report, backend);
    const std::string pin_path = golden_dir + "/" +
                                 pinPrefix(backend) + named.name +
                                 ".json";

    verdict::DisagreementSet pinned;
    pinned.spec = named.name;
    std::string text;
    if (tool::readTextFile(pin_path, text)) {
        std::string parse_error;
        const auto parsed =
            verdict::parseDisagreementJson(text, &parse_error);
        if (!parsed) {
            std::fprintf(stderr,
                         "%s: malformed disagreement pins %s: %s\n",
                         named.name.c_str(), pin_path.c_str(),
                         parse_error.c_str());
            status.io_error = true;
            return;
        }
        pinned = *parsed;
    } else if (!fresh.disagreements.empty()) {
        std::fprintf(stderr,
                     "%s: missing disagreement pins %s (run "
                     "specsec_regress --record)\n",
                     named.name.c_str(), pin_path.c_str());
        status.io_error = true;
        return;
    }

    const std::vector<std::string> drift =
        verdict::compareDisagreements(pinned, fresh);
    if (drift.empty()) {
        std::printf("agree    %-28s %zu decided, %zu undecided, "
                    "%zu pinned divergence(s)\n",
                    named.name.c_str(), report.modelDecided,
                    report.modelUndecided,
                    fresh.disagreements.size());
        return;
    }

    status.drift = true;
    std::printf("DISAGREE %-28s %zu drift line(s):\n",
                named.name.c_str(), drift.size());
    for (const std::string &line : drift)
        std::printf("  %s\n", line.c_str());
    if (ensureDir(artifact_dir)) {
        const std::string stem = artifact_dir + "/" + named.name;
        tool::writeTextFile(stem + ".disagreements.json",
                            verdict::disagreementJson(fresh));
        std::string lines;
        for (const std::string &line : drift)
            lines += line + "\n";
        tool::writeTextFile(stem + ".disagreement-drift.txt",
                            lines);
        std::printf("         artifacts under %s/\n",
                    artifact_dir.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    enum class Mode { List, Record, Check, Merge };
    Mode mode = Mode::Check;
    std::string only_spec;
    std::string golden_dir = "golden";
    std::string artifact_dir = "regress-artifacts";
    std::string shard_dir = "regress-shards";
    std::string flip;
    bool list_json = false;
    cli::RunFlags run;

    for (cli::Args args(argc, argv); args.next();) {
        if (cli::parseRunFlag(args, run))
            continue;
        if (args.is("--list"))
            mode = Mode::List;
        else if (args.is("--record"))
            mode = Mode::Record;
        else if (args.is("--check"))
            mode = Mode::Check;
        else if (args.is("--merge"))
            mode = Mode::Merge;
        else if (args.is("--json"))
            list_json = true;
        else if (args.is("--spec"))
            only_spec = args.value();
        else if (args.is("--golden-dir"))
            golden_dir = args.value();
        else if (args.is("--artifact-dir"))
            artifact_dir = args.value();
        else if (args.is("--shard-dir"))
            shard_dir = args.value();
        else if (args.is("--flip-vuln"))
            flip = args.value();
        else
            return usage(argv[0]);
    }
    const bool backend_given = run.backend.has_value();
    const verdict::VerdictBackend backend =
        run.backend.value_or(verdict::VerdictBackend::Simulator);
    const bool sharded = run.shard.has_value();
    const campaign::ShardRange shard =
        run.shard.value_or(campaign::ShardRange{});
    const std::string &connect_endpoint = run.connect;

    if (list_json && mode != Mode::List) {
        std::fprintf(stderr, "--json only applies to --list\n");
        return 2;
    }
    if (backend_given) {
        if (mode != Mode::Check) {
            std::fprintf(stderr,
                         "--backend only applies to --check "
                         "(--record always runs the differential "
                         "backend; --merge re-joins shard runs)\n");
            return 2;
        }
        if (backend == verdict::VerdictBackend::Model) {
            std::fprintf(stderr,
                         "--backend model cannot gate goldens: the "
                         "model synthesizes verdicts and the golden "
                         "matrices pin the simulator -- use "
                         "differential or triage\n");
            return 2;
        }
        if (sharded ||
            (!connect_endpoint.empty() &&
             backend != verdict::VerdictBackend::Simulator)) {
            std::fprintf(stderr,
                         "--backend cannot be combined with --shard "
                         "or --connect (shard reports and the serve "
                         "daemon always carry simulator results)\n");
            return 2;
        }
    }
    if (mode == Mode::Record && !flip.empty()) {
        // Recording from a deliberately broken core would poison the
        // goldens: every later --check would pass against the wrong
        // model.  The flip is a --check self-test only.
        std::fprintf(stderr,
                     "--flip-vuln cannot be combined with --record\n");
        return 2;
    }
    if (mode == Mode::Merge && !flip.empty()) {
        // Merge never executes scenarios, so the flip would be a
        // silent no-op and the self-test would "pass" vacuously.
        std::fprintf(stderr,
                     "--flip-vuln cannot be combined with --merge "
                     "(merge runs nothing; flip the shard runs "
                     "instead)\n");
        return 2;
    }
    if (sharded && mode != Mode::Check) {
        std::fprintf(stderr,
                     "--shard only applies to --check (goldens and "
                     "merges need the whole grid)\n");
        return 2;
    }
    if (!connect_endpoint.empty()) {
        if (mode != Mode::Check) {
            std::fprintf(stderr,
                         "--connect only applies to --check "
                         "(goldens are recorded from the local "
                         "model)\n");
            return 2;
        }
        if (sharded || !run.cacheFile.empty()) {
            // Remote runs already share the daemon's cache and
            // its worker pool; client-side shards and caches
            // would only obscure whose results a check used.
            std::fprintf(stderr,
                         "--connect cannot be combined with "
                         "--shard or --cache-file (the daemon "
                         "owns both concerns)\n");
            return 2;
        }
    }
    if (mode == Mode::List) {
        if (list_json) {
            // The same shape `campaign_cli list-attacks --json`
            // uses: a JSON array, one object per line, so fleet
            // tooling can discover specs and attacks identically.
            const auto &specs = registeredSpecs();
            std::printf("[\n");
            for (std::size_t i = 0; i < specs.size(); ++i) {
                const NamedSpec &named = specs[i];
                std::printf(
                    "  {\"name\": \"%s\", \"cells\": %zu, "
                    "\"description\": \"%s\"}%s\n",
                    tool::jsonEscape(named.name).c_str(),
                    named.spec.gridSize(),
                    tool::jsonEscape(named.description).c_str(),
                    i + 1 < specs.size() ? "," : "");
            }
            std::printf("]\n");
            return 0;
        }
        for (const NamedSpec &named : registeredSpecs())
            std::printf("%-28s %4zu cells  %s\n",
                        named.name.c_str(), named.spec.gridSize(),
                        named.description.c_str());
        return 0;
    }

    const uarch::VulnPath *flip_path =
        flip.empty() ? nullptr : uarch::findVulnPath(flip);
    if (!flip.empty() && flip_path == nullptr) {
        std::fprintf(stderr, "unknown --flip-vuln path '%s'\n",
                     flip.c_str());
        return 2;
    }

    std::vector<NamedSpec> selected;
    for (const NamedSpec &named : registeredSpecs())
        if (only_spec.empty() || named.name == only_spec)
            selected.push_back(named);
    if (selected.empty()) {
        // One near-miss helper for the whole tree: the same
        // suggestion list the catalog lookups print.
        std::vector<std::string> names;
        for (const NamedSpec &named : registeredSpecs())
            names.push_back(named.name);
        std::fprintf(stderr, "%s\n",
                     core::unknownNameMessage(
                         "spec", only_spec,
                         core::suggestNames(names, only_spec))
                         .c_str());
        return 2;
    }

    campaign::ResultCache cache;
    campaign::CampaignEngine::Options engine_opts;
    engine_opts.workers = run.workers;
    engine_opts.cache = &cache;
    // Recording always runs the differential backend so the golden
    // matrices (simulator results, byte-identical to a plain run)
    // and the disagreement pins come from one sweep.
    if (mode == Mode::Record)
        engine_opts.backend = verdict::VerdictBackend::Differential;
    else if (mode == Mode::Check)
        engine_opts.backend = backend;
    const campaign::CampaignEngine engine(engine_opts);
    serve::Client client;
    if (!connect_endpoint.empty()) {
        if (!cli::connect(connect_endpoint, client))
            return 2;
        std::printf("connected to %s (%u server workers)\n",
                    connect_endpoint.c_str(),
                    client.serverWorkers());
    }
    if (!run.cacheFile.empty() && mode != Mode::Merge)
        cli::loadCache(run.cacheFile, cache);

    if (mode == Mode::Record && !ensureDir(golden_dir)) {
        std::fprintf(stderr, "cannot create %s\n",
                     golden_dir.c_str());
        return 2;
    }
    if (sharded && !ensureDir(shard_dir)) {
        std::fprintf(stderr, "cannot create %s\n",
                     shard_dir.c_str());
        return 2;
    }

    GateStatus status;
    for (NamedSpec &named : selected) {
        if (flip_path != nullptr) {
            bool &path = named.spec.baseConfig.vuln.*flip_path->member;
            path = !path;
        }

        if (mode == Mode::Merge) {
            const auto merged = mergeShards(named, shard_dir);
            if (!merged) {
                status.io_error = true;
                continue;
            }
            checkAgainstGolden(named, *merged, golden_dir,
                               artifact_dir, status);
            continue;
        }

        campaign::CampaignReport report;
        if (connect_endpoint.empty()) {
            report = engine.run(named.spec, shard);
        } else {
            // The remote path drives the same ReportSink the
            // engine's collect API is built on, so the report —
            // and every golden comparison below — is
            // byte-identical to the offline run by construction.
            campaign::ReportSink sink;
            std::string error;
            if (!client.run(named.spec, {&sink}, shard, &error)) {
                std::fprintf(stderr, "%s: remote run failed: %s\n",
                             named.name.c_str(), error.c_str());
                status.io_error = true;
                continue;
            }
            report = sink.takeReport();
        }

        if (sharded) {
            const std::string path =
                shard_dir + "/" +
                shardFileName(named.name, shard.index,
                              shard.count);
            if (!tool::writeTextFile(
                    path, tool::shardReportJson(report))) {
                std::fprintf(stderr, "cannot write %s\n",
                             path.c_str());
                status.io_error = true;
                continue;
            }
            std::printf("sharded  %-28s shard %zu/%zu: %4zu of "
                        "%4zu cells (%zu executed, %zu cached) "
                        "-> %s\n",
                        named.name.c_str(), shard.index,
                        shard.count, report.outcomes.size(),
                        report.expandedCount,
                        report.executedCount, report.cacheHits,
                        path.c_str());
            continue;
        }

        if (mode == Mode::Record) {
            // The spec declares its golden's format, so a record
            // into a scratch directory reproduces the committed
            // files byte-for-byte (CI's record step relies on it).
            GoldenMatrix actual = GoldenMatrix::fromReport(
                report, named.accuracyEps > 0.0);
            actual.absEps = named.accuracyEps;
            const std::string golden_path =
                golden_dir + "/" + named.name + ".json";
            if (!tool::writeTextFile(golden_path,
                                     goldenJson(actual))) {
                std::fprintf(stderr, "cannot write %s\n",
                             golden_path.c_str());
                status.io_error = true;
                continue;
            }
            std::printf("recorded %-28s %4zu cells (%zu executed, "
                        "%zu cached) -> %s\n",
                        named.name.c_str(), report.expandedCount,
                        report.executedCount, report.cacheHits,
                        golden_path.c_str());

            // The disagreement pins ride along with every record:
            // one differential-<spec>.json per spec, empty list
            // included, so a re-record into a scratch directory
            // reproduces the committed set byte-for-byte (CI's
            // record step compares both directions).
            const verdict::DisagreementSet fresh =
                freshDisagreements(
                    named, report,
                    verdict::VerdictBackend::Differential);
            const std::string pin_path =
                golden_dir + "/differential-" + named.name +
                ".json";
            if (!tool::writeTextFile(
                    pin_path, verdict::disagreementJson(fresh))) {
                std::fprintf(stderr, "cannot write %s\n",
                             pin_path.c_str());
                status.io_error = true;
                continue;
            }
            std::printf("pinned   %-28s %4zu divergence(s) -> %s\n",
                        named.name.c_str(),
                        fresh.disagreements.size(),
                        pin_path.c_str());

            // Static-analyzer pins ride along too: re-judge the same
            // grid under the static backend (every simulation is a
            // cache hit from the sweep above) and pin its
            // divergences next to the model's.
            campaign::CampaignEngine::Options static_opts =
                engine_opts;
            static_opts.backend = verdict::VerdictBackend::Static;
            const campaign::CampaignReport static_report =
                campaign::CampaignEngine(static_opts).run(named.spec);
            const verdict::DisagreementSet static_fresh =
                freshDisagreements(named, static_report,
                                   verdict::VerdictBackend::Static);
            const std::string static_pin_path =
                golden_dir + "/differential-static-" + named.name +
                ".json";
            if (!tool::writeTextFile(
                    static_pin_path,
                    verdict::disagreementJson(static_fresh))) {
                std::fprintf(stderr, "cannot write %s\n",
                             static_pin_path.c_str());
                status.io_error = true;
                continue;
            }
            std::printf("pinned   %-28s %4zu static divergence(s) "
                        "-> %s\n",
                        named.name.c_str(),
                        static_fresh.disagreements.size(),
                        static_pin_path.c_str());
            continue;
        }

        checkAgainstGolden(named, report, golden_dir, artifact_dir,
                           status);
        if (backend == verdict::VerdictBackend::Differential ||
            backend == verdict::VerdictBackend::Static)
            checkDisagreements(named, report, backend, golden_dir,
                               artifact_dir, status);
        else if (backend == verdict::VerdictBackend::Triage)
            std::printf("triage   %-28s %zu decided, %zu "
                        "undecided; %zu simulated, %zu "
                        "replicated, %zu cached\n",
                        named.name.c_str(), report.modelDecided,
                        report.modelUndecided,
                        report.executedCount,
                        report.replicatedCells, report.cacheHits);
    }

    if (!run.cacheFile.empty() && mode != Mode::Merge)
        cli::saveCache(run.cacheFile, cache);

    if (status.io_error)
        return 2;
    if (status.drift) {
        std::printf("golden success matrices drifted -- inspect "
                    "the diff above; if the change is intended, "
                    "re-record with: specsec_regress --record\n");
        return 1;
    }
    return 0;
}
