/**
 * @file
 * Sharded execution: wall-clock of a 1-process run of the
 * table3-baseline spec vs. the same grid partitioned with
 * --shard-style ranges, executed shard by shard, serialized through
 * the mergeable report format, and re-joined with
 * CampaignReport::merge — the exact multi-process pipeline
 * specsec_regress --shard/--merge runs, minus the process spawns.
 * Verifies the merged exports are byte-identical to the unsharded
 * run and reports the partition/serialize/merge overhead a CI
 * fan-out pays.  Headline numbers land in BENCH_shard.json for CI
 * artifact upload.
 */

#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_util.hh"
#include "campaign/campaign.hh"
#include "regress/specs.hh"
#include "tool/report.hh"
#include "tool/report_io.hh"

using namespace specsec;
using namespace specsec::campaign;

namespace
{

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_shard.json";
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];

    bench::header("sharded campaign: 1 process vs. shard+merge");
    const regress::NamedSpec *named =
        regress::findSpec("table3-baseline");
    if (named == nullptr) {
        std::fprintf(stderr, "table3-baseline spec missing\n");
        return 1;
    }
    const ScenarioSpec &spec = named->spec;
    const CampaignEngine engine;
    std::printf("spec %s: %zu grid points, %u workers\n",
                spec.name.c_str(), spec.gridSize(),
                engine.workers());

    // Warm-up, excluded from every timed region below: one full
    // untimed pass touches every lazily initialized catalog, so the
    // timed runs compare sharding strategies at steady state
    // instead of charging the first one for that set-up.
    engine.run(spec);

    const auto f0 = std::chrono::steady_clock::now();
    const CampaignReport full = engine.run(spec);
    const double fullMs = millisSince(f0);
    const std::string fullCsv = tool::campaignCsv(full, false);
    const std::string fullJson = tool::campaignJson(full, false);

    bench::rule();
    std::printf("%-16s %8s %12s %12s %8s\n", "mode", "shards",
                "run (ms)", "merge (ms)", "match");
    std::printf("%-16s %8d %12.1f %12s %8s\n", "1-process", 1,
                fullMs, "-", "-");

    bool all_match = true;
    bench::BenchJson out;
    out.set("bench", std::string("shard"));
    out.set("grid_scenarios",
            static_cast<double>(spec.gridSize()));
    out.set("full_wall_ms", fullMs);
    out.set("full_scenarios_per_sec", full.scenariosPerSecond());
    for (const std::size_t n : {2UL, 4UL, 8UL}) {
        // Run every shard (sequentially; CI runs them as parallel
        // jobs) and round-trip each report through the wire format.
        const auto r0 = std::chrono::steady_clock::now();
        std::vector<std::string> wires;
        for (std::size_t i = 0; i < n; ++i)
            wires.push_back(tool::shardReportJson(
                engine.run(spec, ShardRange{i, n})));
        const double runMs = millisSince(r0);

        const auto m0 = std::chrono::steady_clock::now();
        CampaignReport merged;
        bool first = true;
        for (const std::string &wire : wires) {
            auto shard = tool::parseShardReportJson(wire);
            if (!shard) {
                std::fprintf(stderr, "shard report parse failed\n");
                return 1;
            }
            if (first) {
                merged = std::move(*shard);
                first = false;
            } else if (!merged.merge(*shard)) {
                std::fprintf(stderr, "merge conflict\n");
                return 1;
            }
        }
        const double mergeMs = millisSince(m0);

        const bool match =
            tool::campaignCsv(merged, false) == fullCsv &&
            tool::campaignJson(merged, false) == fullJson &&
            merged.successMatrixText() ==
                full.successMatrixText();
        all_match &= match;
        char mode[32];
        std::snprintf(mode, sizeof mode, "shard+merge");
        std::printf("%-16s %8zu %12.1f %12.2f %8s\n", mode, n,
                    runMs, mergeMs, match ? "yes" : "NO");

        char key[32];
        std::snprintf(key, sizeof key, "shard%zu_run_ms", n);
        out.set(key, runMs);
        std::snprintf(key, sizeof key, "shard%zu_merge_ms", n);
        out.set(key, mergeMs);
    }

    std::printf("merged exports byte-identical to 1-process run: "
                "%s\n", all_match ? "yes" : "NO — BUG");
    out.set("merged_byte_identical",
            all_match ? 1.0 : 0.0);
    if (!out.save(json_path))
        return 1;
    return all_match ? 0 : 1;
}
