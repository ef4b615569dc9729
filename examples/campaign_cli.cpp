/**
 * @file
 * Campaign driver: run a declarative attack x defense sweep from the
 * command line, print the success matrix, and optionally export the
 * full report as JSON, CSV and/or streaming JSONL.
 *
 * Examples:
 *   campaign_cli                             # full defense matrix
 *   campaign_cli --workers 8 --json out.json --csv out.csv
 *   campaign_cli --variants spectre-v1,meltdown --rob 32,48,64
 *   campaign_cli --perm-lat 10,30,50 --channels fr,pp
 *   campaign_cli --jsonl out.jsonl --progress  # incremental export
 *   campaign_cli --cache-file .campaign-cache.json   # warm reruns
 *   campaign_cli export out.csv                # format by extension
 *   campaign_cli export out.dat --format jsonl # explicit override
 *
 * Catalog introspection (the ScenarioCatalog registry):
 *   campaign_cli list-attacks [--json]       # every registered attack
 *   campaign_cli describe NAME [--json]      # one descriptor in full
 *
 * Attack names are resolved through the registry, so attacks
 * registered at startup by out-of-tree code (see
 * examples/custom_attack.cpp) sweep like built-ins; unknown names
 * fail with "did you mean" suggestions.
 *
 * Sharded operation (multi-process fan-out):
 *   campaign_cli --shard 0/2 --shard-report s0.json
 *   campaign_cli --shard 1/2 --shard-report s1.json
 *   campaign_cli merge s0.json s1.json --csv merged.csv
 *
 * The merged run is byte-identical, in every timing-free export, to
 * an unsharded run of the same spec.
 *
 * Server mode (one shared ResultCache for many clients):
 *   campaign_cli serve --port 9917 --cache-file fleet-cache.json
 *   campaign_cli submit --connect 127.0.0.1:9917 --jsonl out.jsonl
 *   campaign_cli submit --connect 127.0.0.1:9917 --jsonl out.jsonl \
 *                --resume       # after a killed submit
 *   campaign_cli stats --connect 127.0.0.1:9917
 *   campaign_cli shutdown --connect 127.0.0.1:9917
 *
 * A remote submit produces byte-identical timing-free exports to a
 * local run of the same spec: the client expands/dedups the grid
 * itself and only the canonical scenario keys and schema-derived
 * result fragments cross the wire (see src/serve/protocol.hh).
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/sink.hh"
#include "core/catalog.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "tool/cli.hh"
#include "tool/report.hh"
#include "tool/report_io.hh"
#include "tool/schema.hh"
#include "tool/stream_export.hh"
#include "verdict/verdict.hh"

using namespace specsec;
using namespace specsec::campaign;
namespace cli = specsec::tool::cli;
using cli::parseUnsigned;

namespace
{

std::vector<std::string>
splitCommas(const std::string &arg)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= arg.size()) {
        const std::size_t comma = arg.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(arg.substr(start));
            break;
        }
        out.push_back(arg.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "       %s export FILE [--format json|csv|jsonl] "
        "[options]\n"
        "         (format inferred from FILE's extension unless "
        "--format is given)\n"
        "       %s merge SHARD.json... [--json F] [--csv F] "
        "[--jsonl F] [--timing]\n"
        "       %s list-attacks [--json]\n"
        "       %s describe NAME [--json]\n"
        "       %s serve [--host H] [--port P] [--workers N] "
        "[--cache-file F]\n"
        "       %s submit --connect HOST:P [--resume] [options]\n"
        "       %s stats --connect HOST:P\n"
        "       %s shutdown --connect HOST:P\n"
        "  --serial           shorthand for --workers 1\n"
        "  --variants a,b,c   variants by catalog name "
        "(default: all but Spoiler)\n"
        "  --rob n1,n2,...    sweep ROB sizes\n"
        "  --perm-lat l1,...  sweep permission-check latencies\n"
        "  --channels fr,pp   sweep covert channels\n"
        "  --mitigations m,.. sweep software mitigations (none,\n"
        "                     kpti, rsb-stuff, lfence, addr-mask, "
        "flush-l1)\n"
        "  --vuln-ablate p,.. sweep forwarding-path ablations (all,\n"
        "                     no-meltdown, no-l1tf, no-mds, "
        "no-lazyfp,\n"
        "                     no-store-bypass, no-msr, no-taa, or "
        "several\n"
        "                     joined by '+', e.g. no-mds+no-taa)\n"
        "  --cache-geom g,... sweep cache geometries "
        "(SETSxWAYS[@MISS],\n"
        "                     SETS a power of two, e.g. "
        "256x4,64x2@100)\n"
        "  --shard-report F   write a mergeable shard report "
        "(see merge)\n"
        "  --json FILE        export full report as JSON\n"
        "  --csv FILE         export full report as CSV "
        "(streamed)\n"
        "  --jsonl FILE       export as JSONL, streamed as "
        "scenarios finish\n"
        "  --progress         live progress line on stderr\n"
        "  --timing           include wall-clock fields in exports\n"
        "  --resume           with --connect and --jsonl: keep a "
        "killed run's\n"
        "                     valid JSONL prefix and fetch only "
        "the missing cells\n"
        "%s",
        prog, prog, prog, prog, prog, prog, prog, prog, prog,
        cli::kRunFlagUsage);
    return 2;
}

std::string
joinAliases(const std::vector<std::string> &aliases)
{
    std::string out;
    for (const std::string &alias : aliases) {
        if (!out.empty())
            out += ", ";
        out += alias;
    }
    return out;
}

/** One line of descriptor metadata for `list-attacks`. */
void
printAttackLine(const core::AttackDescriptor &d)
{
    std::printf("%-34s %-13s %-8s %-12s %s\n", d.name.c_str(),
                core::attackClassName(d.klass),
                d.paperSection.c_str(),
                core::covertChannelName(d.defaultChannel),
                joinAliases(d.aliases).c_str());
}

// The per-attack JSON object lives in the library
// (tool::attackDescriptorJson, schema.cc) so its escaping of every
// string field — including registered alias names — is covered by
// tests/schema_test.cc rather than buried in this CLI.
using tool::attackDescriptorJson;

/** `campaign_cli list-attacks [--json]`. */
int
listAttacksMain(int argc, char **argv)
{
    bool json = false;
    for (cli::Args args(argc, argv, 2); args.next();) {
        if (args.is("--json"))
            json = true;
        else
            return usage(argv[0]);
    }
    const auto attacks = core::ScenarioCatalog::instance().attacks();
    if (json) {
        std::printf("[\n");
        for (std::size_t i = 0; i < attacks.size(); ++i)
            std::printf("  %s%s\n",
                        attackDescriptorJson(*attacks[i]).c_str(),
                        i + 1 < attacks.size() ? "," : "");
        std::printf("]\n");
        return 0;
    }
    std::printf("%-34s %-13s %-8s %-12s %s\n", "name", "class",
                "section", "channel", "aliases");
    for (const core::AttackDescriptor *d : attacks)
        printAttackLine(*d);
    std::printf("\n%zu attacks registered; resolve any name or "
                "alias with --variants or describe\n",
                attacks.size());
    return 0;
}

/** `campaign_cli describe NAME [--json]`. */
int
describeMain(int argc, char **argv)
{
    bool json = false;
    std::string name;
    for (cli::Args args(argc, argv, 2); args.next();) {
        if (args.is("--json"))
            json = true;
        else if (args.arg()[0] == '-' || !name.empty())
            return usage(argv[0]);
        else
            name = args.arg();
    }
    if (name.empty()) {
        std::fprintf(stderr, "describe: no attack name given\n");
        return 2;
    }
    const core::ScenarioCatalog &catalog =
        core::ScenarioCatalog::instance();
    const core::AttackDescriptor *d = catalog.findAttack(name);
    if (d == nullptr) {
        std::fprintf(stderr, "%s\n",
                     core::unknownNameMessage(
                         "attack", name,
                         catalog.attackSuggestions(name))
                         .c_str());
        return 2;
    }
    if (json) {
        std::printf("%s\n", attackDescriptorJson(*d).c_str());
        return 0;
    }
    std::printf("name:            %s\n", d->name.c_str());
    const std::string aliases = joinAliases(d->aliases);
    std::printf("aliases:         %s\n",
                aliases.empty() ? "-" : aliases.c_str());
    std::printf("class:           %s\n",
                core::attackClassName(d->klass));
    std::printf("cve:             %s\n", d->cve.c_str());
    std::printf("paper section:   %s\n", d->paperSection.c_str());
    std::printf("default channel: %s\n",
                core::covertChannelName(d->defaultChannel));
    std::printf("registration:    %s\n",
                d->isExtension() ? "extension (no enum slot)"
                                 : "built-in");
    std::printf("executable:      %s\n", d->execute ? "yes" : "no");
    std::printf("model verdict:   %s\n",
                d->modelVerdict
                    ? "analytic hook registered"
                    : "none (always simulated)");
    std::printf("static program:  %s\n",
                d->staticProgram
                    ? "registered (specsec_lint / --backend static)"
                    : "none");
    if (d->buildGraph) {
        const core::AttackGraph g = d->buildGraph(d->defaultChannel);
        std::printf("attack graph:    %zu operations, %zu "
                    "dependencies\n",
                    g.tsg().nodeCount(), g.tsg().edgeCount());
    } else {
        std::printf("attack graph:    none registered\n");
    }
    return 0;
}

void
printSummary(const CampaignReport &report)
{
    std::printf("\n%s", report.successMatrixText().c_str());
    std::printf("\n(L = every run in the cell leaks, . = blocked, "
                "p = leaks under some knob values)\n");
    if (report.partial())
        std::printf("shard %zu/%zu: %zu of %zu grid points\n",
                    report.shardIndex, report.shardCount,
                    report.outcomes.size(), report.expandedCount);
    std::printf("executed %zu unique of %zu expanded scenarios "
                "in %.1f ms (%.1f scenarios/sec, %u workers, "
                "%zu cache hits)\n",
                report.executedCount, report.expandedCount,
                report.wallMillis, report.scenariosPerSecond,
                report.workers, report.cacheHits);
    if (report.modelDecided + report.modelUndecided > 0)
        std::printf("model verdicts: %zu decided, %zu undecided; "
                    "%zu disagreement(s), %zu replicated cell(s)\n",
                    report.modelDecided, report.modelUndecided,
                    report.disagreements, report.replicatedCells);
}

bool
exportReport(const CampaignReport &report,
             const std::string &json_path,
             const std::string &csv_path,
             const std::string &jsonl_path, bool timing)
{
    const auto write = [](const std::string &path,
                          const std::string &contents) {
        if (tool::writeTextFile(path, contents)) {
            std::printf("wrote %s\n", path.c_str());
            return true;
        }
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    };
    bool ok = true;
    if (!json_path.empty())
        ok &= write(json_path, tool::campaignJson(report, timing));
    if (!csv_path.empty())
        ok &= write(csv_path, tool::campaignCsv(report, timing));
    if (!jsonl_path.empty())
        ok &= write(jsonl_path,
                    tool::campaignJsonl(report, timing));
    return ok;
}

/** `campaign_cli merge SHARD.json...`: re-join shard reports. */
int
mergeMain(int argc, char **argv)
{
    std::vector<std::string> files;
    std::string json_path, csv_path, jsonl_path;
    bool timing = false;
    for (cli::Args args(argc, argv, 2); args.next();) {
        if (args.is("--json"))
            json_path = args.value();
        else if (args.is("--csv"))
            csv_path = args.value();
        else if (args.is("--jsonl"))
            jsonl_path = args.value();
        else if (args.is("--timing"))
            timing = true;
        else if (!args.arg().empty() && args.arg()[0] == '-')
            return usage(argv[0]);
        else
            files.push_back(args.arg());
    }

    std::string error;
    const std::optional<CampaignReport> merged =
        cli::mergeShardFiles(files, &error);
    if (!merged) {
        std::fprintf(stderr, "merge: %s\n", error.c_str());
        return 2;
    }
    std::printf("merged %zu shard report(s)\n", files.size());
    if (merged->partial())
        std::printf("note: merged report is still partial (%zu of "
                    "%zu grid points)\n",
                    merged->outcomes.size(),
                    merged->expandedCount);
    printSummary(*merged);
    return exportReport(*merged, json_path, csv_path, jsonl_path,
                        timing)
               ? 0
               : 1;
}

/** `campaign_cli serve`: the campaign daemon. */
int
serveMain(int argc, char **argv)
{
    serve::Server::Options opts;
    cli::RunFlags run;
    for (cli::Args args(argc, argv, 2); args.next();) {
        if (args.is("--host")) {
            opts.host = args.value();
        } else if (args.is("--port")) {
            if (!parseUnsigned(args.value(), opts.port)) {
                std::fprintf(stderr,
                             "--port: not a port number\n");
                return 2;
            }
        } else if (args.is("--workers") || args.is("--cache-file")) {
            cli::parseRunFlag(args, run);
        } else {
            return usage(argv[0]);
        }
    }
    opts.workers = run.workers;
    opts.cachePath = run.cacheFile;

    serve::Server server(opts);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "serve: %s\n", error.c_str());
        return 1;
    }
    // One parseable line for wrappers polling readiness (the CI
    // e2e job greps it for the bound port).
    std::printf("serving on %s:%u (schema %s)\n",
                opts.host.c_str(), server.port(),
                tool::wireSchemaTag().c_str());
    std::fflush(stdout);
    server.serveForever();
    std::printf("serve: drained, exiting\n");
    return 0;
}

/** Connect with the `--connect HOST:P` that is all `stats` and
 *  `shutdown` take; @return 0, or the exit code to fail with. */
int
connectOnly(int argc, char **argv, serve::Client &client)
{
    std::string endpoint;
    for (cli::Args args(argc, argv, 2); args.next();) {
        if (!args.is("--connect"))
            return usage(argv[0]);
        endpoint = args.value();
    }
    return cli::connect(endpoint, client) ? 0 : 1;
}

/** `campaign_cli stats --connect HOST:P`. */
int
statsMain(int argc, char **argv)
{
    serve::Client client;
    if (const int rc = connectOnly(argc, argv, client))
        return rc;
    serve::StatsMsg stats;
    std::string error;
    if (!client.serverStats(stats, &error)) {
        std::fprintf(stderr, "stats: %s\n", error.c_str());
        return 1;
    }
    for (const serve::StatsField &field : serve::kStatsFields)
        std::printf("%s: %zu\n", field.name, stats.*field.member);
    return 0;
}

/** `campaign_cli shutdown --connect HOST:P`. */
int
shutdownMain(int argc, char **argv)
{
    serve::Client client;
    if (const int rc = connectOnly(argc, argv, client))
        return rc;
    std::string error;
    if (!client.requestShutdown(&error)) {
        std::fprintf(stderr, "shutdown: %s\n", error.c_str());
        return 1;
    }
    std::printf("server draining\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "merge") == 0)
        return mergeMain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
        return serveMain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "stats") == 0)
        return statsMain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "shutdown") == 0)
        return shutdownMain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "list-attacks") == 0)
        return listAttacksMain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "describe") == 0)
        return describeMain(argc, argv);

    // `export FILE`: one output whose format is inferred from the
    // file extension (overridable with --format); every other
    // campaign option still applies.
    bool export_mode = false;
    bool submit_mode = false;
    std::string export_path;
    std::string export_format;
    int first_arg = 1;
    if (argc > 1 && std::strcmp(argv[1], "export") == 0) {
        export_mode = true;
        if (argc < 3 || argv[2][0] == '-') {
            std::fprintf(stderr, "export: no output file given\n");
            return 2;
        }
        export_path = argv[2];
        first_arg = 3;
    } else if (argc > 1 && std::strcmp(argv[1], "submit") == 0) {
        // `submit` is the campaign run pointed at a daemon: the
        // same spec/export flags, execution via --connect.
        submit_mode = true;
        first_arg = 2;
    }

    ScenarioSpec spec = ScenarioSpec::defenseMatrix();
    cli::RunFlags run;
    std::string json_path;
    std::string csv_path;
    std::string jsonl_path;
    std::string shard_report_path;
    bool progress = false;
    bool timing = false;
    bool resume = false;

    for (cli::Args args(argc, argv, first_arg); args.next();) {
        if (cli::parseRunFlag(args, run))
            continue;
        if (export_mode && args.is("--format")) {
            export_format = args.value();
        } else if (args.is("--serial")) {
            run.workers = 1;
        } else if (args.is("--variants")) {
            // Rows resolve through the ScenarioCatalog, so names
            // and aliases of registered out-of-tree attacks work
            // exactly like built-in variants.
            const core::ScenarioCatalog &catalog =
                core::ScenarioCatalog::instance();
            spec.variants.clear();
            spec.attackNames.clear();
            for (const std::string &name : splitCommas(args.value())) {
                const core::AttackDescriptor *d =
                    catalog.findAttack(name);
                if (d == nullptr) {
                    std::fprintf(
                        stderr, "%s\n",
                        core::unknownNameMessage(
                            "attack", name,
                            catalog.attackSuggestions(name))
                            .c_str());
                    return 2;
                }
                spec.attackNames.push_back(d->name);
            }
        } else if (args.is("--rob")) {
            spec.robSizes.clear();
            for (const std::string &n : splitCommas(args.value())) {
                std::size_t rob = 0;
                if (!parseUnsigned(n, rob) || rob == 0) {
                    std::fprintf(stderr,
                                 "--rob: '%s' is not a positive "
                                 "integer\n", n.c_str());
                    return 2;
                }
                spec.robSizes.push_back(rob);
            }
        } else if (args.is("--perm-lat")) {
            spec.permCheckLatencies.clear();
            for (const std::string &n : splitCommas(args.value())) {
                unsigned lat = 0;
                if (!parseUnsigned(n, lat)) {
                    std::fprintf(stderr,
                                 "--perm-lat: '%s' is not a "
                                 "number\n", n.c_str());
                    return 2;
                }
                spec.permCheckLatencies.push_back(lat);
            }
        } else if (args.is("--channels")) {
            spec.channels.clear();
            for (const std::string &n : splitCommas(args.value())) {
                if (n == "fr" || n == "flush-reload")
                    spec.channels.push_back(
                        core::CovertChannelKind::FlushReload);
                else if (n == "pp" || n == "prime-probe")
                    spec.channels.push_back(
                        core::CovertChannelKind::PrimeProbe);
                else {
                    std::fprintf(stderr, "unknown channel: %s\n",
                                 n.c_str());
                    return 2;
                }
            }
        } else if (args.is("--mitigations")) {
            spec.mitigations.clear();
            for (const std::string &n : splitCommas(args.value())) {
                auto m = SoftwareMitigation::byName(n);
                if (!m) {
                    std::fprintf(
                        stderr, "%s\n",
                        core::unknownNameMessage(
                            "mitigation", n,
                            core::ScenarioCatalog::instance()
                                .mitigationSuggestions(n))
                            .c_str());
                    return 2;
                }
                spec.mitigations.push_back(std::move(*m));
            }
        } else if (args.is("--vuln-ablate")) {
            spec.vulnAblations.clear();
            for (const std::string &n : splitCommas(args.value())) {
                VulnAblation a;
                a.label = n;
                if (!tool::parseVulnSummary(n, a.vuln)) {
                    std::fprintf(stderr,
                                 "unknown vuln ablation: %s\n",
                                 n.c_str());
                    return 2;
                }
                spec.vulnAblations.push_back(std::move(a));
            }
        } else if (args.is("--cache-geom")) {
            spec.cacheGeometries.clear();
            for (const std::string &n : splitCommas(args.value())) {
                CacheGeometry g;
                g.label = n;
                // SETSxWAYS with an optional @MISS latency suffix.
                const std::size_t x = n.find('x');
                const std::size_t at = n.find('@');
                std::size_t sets = 0, ways = 0;
                std::uint32_t miss = 0;
                const bool ok =
                    x != std::string::npos &&
                    parseUnsigned(n.substr(0, x), sets) &&
                    parseUnsigned(
                        n.substr(x + 1,
                                 (at == std::string::npos
                                      ? n.size()
                                      : at) -
                                     x - 1),
                        ways) &&
                    (at == std::string::npos ||
                     parseUnsigned(n.substr(at + 1), miss)) &&
                    sets > 0 && ways > 0;
                if (!ok) {
                    std::fprintf(stderr,
                                 "--cache-geom: '%s' is not "
                                 "SETSxWAYS[@MISS]\n",
                                 n.c_str());
                    return 2;
                }
                g.cache.sets = sets;
                g.cache.ways = ways;
                if (at != std::string::npos)
                    g.cache.missLatency = miss;
                if (const char *why =
                        uarch::cacheGeometryError(g.cache)) {
                    std::fprintf(stderr, "--cache-geom: '%s': %s\n",
                                 n.c_str(), why);
                    return 2;
                }
                spec.cacheGeometries.push_back(std::move(g));
            }
        } else if (args.is("--shard-report")) {
            shard_report_path = args.value();
        } else if (args.is("--json")) {
            json_path = args.value();
        } else if (args.is("--csv")) {
            csv_path = args.value();
        } else if (args.is("--jsonl")) {
            jsonl_path = args.value();
        } else if (args.is("--progress")) {
            progress = true;
        } else if (args.is("--timing")) {
            timing = true;
        } else if (args.is("--resume")) {
            resume = true;
        } else {
            return usage(argv[0]);
        }
    }

    const std::string &connect_endpoint = run.connect;
    const ShardRange shard = run.shard.value_or(ShardRange{});
    if (submit_mode && connect_endpoint.empty()) {
        std::fprintf(stderr,
                     "submit: --connect HOST:PORT is required\n");
        return 2;
    }
    if (resume) {
        if (connect_endpoint.empty() || jsonl_path.empty()) {
            std::fprintf(stderr,
                         "--resume needs --connect and --jsonl "
                         "(it completes a killed remote JSONL "
                         "export)\n");
            return 2;
        }
        if (timing) {
            std::fprintf(stderr,
                         "--resume is timing-free only (timing "
                         "output embeds machine-local wall "
                         "times)\n");
            return 2;
        }
    }
    if (!connect_endpoint.empty() && !run.cacheFile.empty()) {
        std::fprintf(stderr,
                     "--cache-file does not apply to remote runs; "
                     "give it to `campaign_cli serve` instead\n");
        return 2;
    }
    if (!connect_endpoint.empty() &&
        run.backend.value_or(verdict::VerdictBackend::Simulator) !=
            verdict::VerdictBackend::Simulator) {
        std::fprintf(stderr,
                     "--backend does not apply to remote runs: the "
                     "daemon executes the simulator (and judges "
                     "every submitted cell itself; see `stats`)\n");
        return 2;
    }

    if (export_mode) {
        if (export_format.empty()) {
            export_format =
                tool::exportFormatFromPath(export_path);
            if (export_format.empty()) {
                // Suggest against the extension when there is one
                // ("out.jsnl" -> "did you mean jsonl?"); only dots
                // in the filename itself count, not directory names.
                const std::size_t slash =
                    export_path.find_last_of("/\\");
                const std::string file =
                    slash == std::string::npos
                        ? export_path
                        : export_path.substr(slash + 1);
                const std::size_t dot = file.rfind('.');
                const std::string ext =
                    dot == std::string::npos ? file
                                             : file.substr(dot + 1);
                std::fprintf(
                    stderr,
                    "export: cannot infer a format from '%s'; %s\n",
                    export_path.c_str(),
                    core::unknownNameMessage(
                        "export format", ext,
                        core::suggestNames(
                            tool::exportFormatNames(), ext))
                        .c_str());
                return 2;
            }
        } else {
            // Normalize case like extension inference does
            // (--format JSON == export OUT.JSON).
            const std::string normalized =
                tool::exportFormatFromPath("x." + export_format);
            if (normalized.empty()) {
                std::fprintf(stderr, "%s\n",
                             core::unknownNameMessage(
                                 "export format", export_format,
                                 core::suggestNames(
                                     tool::exportFormatNames(),
                                     export_format))
                                 .c_str());
                return 2;
            }
            export_format = normalized;
        }
        if (export_format == "json")
            json_path = export_path;
        else if (export_format == "csv")
            csv_path = export_path;
        else
            jsonl_path = export_path;
    }

    CampaignEngine::Options engine_opts;
    engine_opts.workers = run.workers;
    engine_opts.backend =
        run.backend.value_or(verdict::VerdictBackend::Simulator);
    ResultCache cache;
    if (!run.cacheFile.empty()) {
        engine_opts.cache = &cache;
        cli::loadCache(run.cacheFile, cache);
    }

    // --resume completes a killed remote run's JSONL export in
    // place: keep the file's valid prefix (header + outcome lines
    // in grid order), fetch only the missing gridIndices from the
    // daemon, and append them through a header-suppressed stream
    // sink.  The finished file is byte-identical to an
    // uninterrupted run; report/CSV/JSON exports don't apply (the
    // already-covered prefix is never re-fetched).
    if (resume) {
        serve::Client client;
        if (!cli::connect(connect_endpoint, client))
            return 1;
        const ExpandedGrid grid = dedupGrid(spec);
        const CampaignHeader header = serve::headerForGrid(
            spec, grid, shard, client.serverWorkers());
        std::string existing;
        tool::readTextFile(jsonl_path, existing); // absent = fresh
        serve::ResumePlan plan;
        std::string error;
        if (!serve::planJsonlResume(header, existing, plan,
                                    &error)) {
            std::fprintf(stderr, "resume: %s\n", error.c_str());
            return 1;
        }
        std::printf("resume %s: %zu of %zu outcomes already "
                    "valid, %zu missing\n",
                    jsonl_path.c_str(), plan.covered,
                    header.gridIndices.size(),
                    plan.missing.size());
        const std::string keep =
            plan.keepText.empty()
                ? tool::jsonlHeaderRecord(header)
                : plan.keepText;
        if (!tool::writeTextFile(jsonl_path, keep)) {
            std::fprintf(stderr, "cannot write %s\n",
                         jsonl_path.c_str());
            return 1;
        }
        if (plan.missing.empty()) {
            std::printf("%s is already complete\n",
                        jsonl_path.c_str());
            return 0;
        }
        std::ofstream append_stream(
            jsonl_path, std::ios::binary | std::ios::app);
        if (!append_stream) {
            std::fprintf(stderr, "cannot append to %s\n",
                         jsonl_path.c_str());
            return 1;
        }
        tool::JsonlStreamSink jsonl_resume_sink(
            append_stream, false, /*suppress_header=*/true);
        std::vector<OutcomeSink *> resume_sinks{
            &jsonl_resume_sink};
        std::optional<ProgressSink> resume_progress;
        if (progress) {
            resume_progress.emplace(stderr);
            resume_sinks.push_back(&*resume_progress);
        }
        CampaignHeader sub = header;
        sub.gridIndices = plan.missing;
        if (!client.runSubset(grid, sub, plan.missing,
                              resume_sinks, &error)) {
            std::fprintf(stderr, "resume run failed: %s\n",
                         error.c_str());
            return 1;
        }
        append_stream.flush();
        if (!append_stream.good()) {
            std::fprintf(stderr, "write failed on %s\n",
                         jsonl_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonl_path.c_str());
        return 0;
    }

    serve::Client client;
    if (!connect_endpoint.empty() &&
        !cli::connect(connect_endpoint, client))
        return 1;

    const CampaignEngine engine(engine_opts);
    std::printf("campaign %s: %zu grid points, %u workers",
                spec.name.c_str(), spec.gridSize(),
                connect_endpoint.empty() ? engine.workers()
                                         : client.serverWorkers());
    if (shard.count > 1)
        std::printf(", shard %zu/%zu", shard.index, shard.count);
    if (!connect_endpoint.empty())
        std::printf(", remote via %s", connect_endpoint.c_str());
    std::printf("\n");

    // The engine is a thin driver over sinks: the report, the
    // streaming exports and the progress line all observe the same
    // run.  CSV and JSONL files fill incrementally as workers
    // finish scenarios, not after the sweep.
    ReportSink report_sink;
    std::vector<OutcomeSink *> sinks{&report_sink};
    std::ofstream csv_stream;
    std::optional<tool::CsvStreamSink> csv_sink;
    if (!csv_path.empty()) {
        csv_stream.open(csv_path, std::ios::binary);
        if (!csv_stream) {
            std::fprintf(stderr, "cannot write %s\n",
                         csv_path.c_str());
            return 1;
        }
        csv_sink.emplace(csv_stream, timing);
        sinks.push_back(&*csv_sink);
    }
    std::ofstream jsonl_stream;
    std::optional<tool::JsonlStreamSink> jsonl_sink;
    if (!jsonl_path.empty()) {
        jsonl_stream.open(jsonl_path, std::ios::binary);
        if (!jsonl_stream) {
            std::fprintf(stderr, "cannot write %s\n",
                         jsonl_path.c_str());
            return 1;
        }
        jsonl_sink.emplace(jsonl_stream, timing);
        sinks.push_back(&*jsonl_sink);
    }
    std::optional<ProgressSink> progress_sink;
    if (progress) {
        progress_sink.emplace(stderr);
        sinks.push_back(&*progress_sink);
    }

    if (connect_endpoint.empty()) {
        // A cell whose machine cannot be built (a ROB past what the
        // host can allocate) is a bad sweep, not a crash.
        try {
            engine.run(spec, sinks, shard);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "campaign: %s\n", e.what());
            return 2;
        }
    } else {
        std::string error;
        if (!client.run(spec, sinks, shard, &error)) {
            std::fprintf(stderr, "remote run failed: %s\n",
                         error.c_str());
            return 1;
        }
    }
    const CampaignReport report = report_sink.takeReport();
    bool ok = true;
    // A stream that went bad mid-run (disk full, deleted dir) left
    // a truncated export; that must fail the exit code, not print
    // "wrote".
    const auto finishStream = [&ok](std::ofstream &stream,
                                    const std::string &path) {
        if (path.empty())
            return;
        stream.flush();
        if (stream.good()) {
            std::printf("wrote %s\n", path.c_str());
        } else {
            std::fprintf(stderr, "write failed on %s\n",
                         path.c_str());
            ok = false;
        }
    };
    finishStream(csv_stream, csv_path);
    finishStream(jsonl_stream, jsonl_path);

    printSummary(report);

    if (!run.cacheFile.empty())
        cli::saveCache(run.cacheFile, cache);

    if (!shard_report_path.empty()) {
        if (tool::writeTextFile(shard_report_path,
                                tool::shardReportJson(report)))
            std::printf("wrote %s\n", shard_report_path.c_str());
        else {
            std::fprintf(stderr, "cannot write %s\n",
                         shard_report_path.c_str());
            ok = false;
        }
    }
    // JSON has no streaming form (it is one document); export it
    // from the collected report like before.
    ok &= exportReport(report, json_path, "", "", timing);
    return ok ? 0 : 1;
}
