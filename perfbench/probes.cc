/**
 * @file
 * Per-layer probes: fixed, untimed measurements of single layers
 * through their public API, run after a traced workload's timed
 * phase.  Each probe repeats its call a few times and keeps the
 * median, and records one span per repetition (category "probe").
 */

#include <cstdio>
#include <filesystem>
#include <thread>

#include "attacks/attack_kit.hh"
#include "core/catalog.hh"
#include "lint/lint.hh"
#include "perfbench.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "uarch/covert.hh"
#include "verdict/model.hh"
#include "verdict/static_verdict.hh"

namespace perfbench
{

using namespace specsec;

namespace
{

constexpr int kReps = 5;

/** Median ms of @p reps calls of @p fn, one probe span each. */
template <typename Fn>
double
timeReps(Tracer &tracer, const char *span, int reps, Fn &&fn)
{
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        tracer.record("probe", span, static_cast<std::uint64_t>(r), t0,
                      t1);
        ms.push_back(msBetween(t0, t1));
    }
    return median(ms);
}

/**
 * The receiver harness alone (Kocher et al.'s 256-slot page-strided
 * probe array): flush/prime, one sender access, reload/probe, on a
 * baseline Cpu.  @return µs per round; @p ok clears on a wrong
 * recovery.
 */
void
channelRounds(Tracer &tracer, Metrics &out, bool &ok)
{
    using namespace specsec::uarch;
    using attacks::Layout;
    Memory mem(Layout::kMemorySize);
    PageTable pt;
    pt.mapRange(0, Layout::kMemorySize, PageOwner::User, true, true);
    const CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    constexpr int kRounds = 256;

    FlushReloadChannel fr(cpu, Layout::kProbeArray, 256, kPageSize);
    const double frMs = timeReps(tracer, "uarch.fr_round", kReps, [&] {
        for (int v = 0; v < kRounds; ++v) {
            fr.setup();
            cpu.timedAccess(Layout::kProbeArray +
                            static_cast<Addr>(v) * kPageSize);
            if (fr.recover().value != v)
                ok = false;
        }
    });
    PrimeProbeChannel pp(cpu, Layout::kEvictArray, 256);
    const double ppMs = timeReps(tracer, "uarch.pp_round", kReps, [&] {
        for (int v = 0; v < kRounds; ++v) {
            pp.prime();
            cpu.timedAccess(Layout::kProbeArray +
                            static_cast<Addr>(v) * 64);
            if (pp.recover().value != v)
                ok = false;
        }
    });
    out.set("uarch.fr_round_us", 1000.0 * frMs / kRounds, "us");
    out.set("uarch.pp_round_us", 1000.0 * ppMs / kRounds, "us");
}

/** Counts a probe submit's outcomes. */
class CountSink : public campaign::OutcomeSink
{
  public:
    void consume(const campaign::ScenarioOutcome &) override
    {
        ++outcomes;
    }
    std::size_t outcomes = 0;
};

/**
 * An in-process campaign daemon on loopback, served from its own
 * thread; stop() (or the destructor) drains and joins it.
 */
class Daemon
{
  public:
    explicit Daemon(const std::string &cachePath)
        : server_([&] {
              serve::Server::Options o;
              o.port = 0;
              o.workers = 1;
              o.cachePath = cachePath;
              return o;
          }())
    {
    }
    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool
    start(std::string *error)
    {
        if (!server_.start(error))
            return false;
        thread_ = std::thread([this] { server_.serveForever(); });
        return true;
    }

    void
    stop()
    {
        server_.stop();
        if (thread_.joinable())
            thread_.join();
    }

    serve::Server &server() { return server_; }

    serve::net::Endpoint
    endpoint() const
    {
        serve::net::Endpoint e;
        e.host = "127.0.0.1";
        e.port = server_.port();
        return e;
    }

  private:
    serve::Server server_;
    std::thread thread_;
};

/**
 * A one-row grid over explicit scenario keys (no duplicates), so
 * Client::runSubset can submit a hand-picked key list.
 */
campaign::ExpandedGrid
gridFromKeys(const std::vector<std::string> &keys)
{
    campaign::ExpandedGrid grid;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        campaign::Scenario s;
        campaign::parseScenarioKey(keys[i], s.variant, s.config,
                                   s.options);
        s.gridIndex = i;
        s.rowLabel = "probe";
        s.colLabel = "probe";
        s.key = keys[i];
        grid.expanded.push_back(std::move(s));
        grid.uniqueIndices.push_back(i);
        grid.dupOf.push_back(i);
    }
    return grid;
}

/**
 * The daemon's --cache-file path in miniature: a daemon whose cache
 * file holds @p cache answers 30 submits of 64 of its keys on one
 * connection.  Every submit is a hit (a load-merge-save of the whole
 * file), so serve.executed must be 0.  Beside the submit's median,
 * the daemon-side steps of one submit are timed on their own, replayed
 * through the same API on @p cache: lookups, model judging, and
 * result framing (the cache-file save is campaign.persist_save_ms),
 * and a stats round trip gives the wire's share.
 */
bool
serveProbe(const Options &options, const campaign::ResultCache &cache,
           Tracer &tracer, Metrics &out)
{
    constexpr int kSubmits = 30;
    std::vector<std::string> keys;
    for (const auto &[key, entry] : cache.snapshot())
        if (keys.size() < 64)
            keys.push_back(key);
    const std::string path = options.workDir + "/daemon-cache.json";
    std::string error;
    if (!cache.saveToFile(path, campaign::modelFingerprint(), &error)) {
        std::fprintf(stderr, "serve probe: %s\n", error.c_str());
        return false;
    }
    Daemon daemon(path);
    serve::Client client;
    if (!daemon.start(&error) ||
        !client.connect(daemon.endpoint(), &error)) {
        std::fprintf(stderr, "serve probe: %s\n", error.c_str());
        return false;
    }
    const campaign::ExpandedGrid grid = gridFromKeys(keys);
    campaign::CampaignHeader header;
    header.name = "perfbench-probe";
    header.expandedCount = header.uniqueCount = keys.size();
    for (std::size_t i = 0; i < keys.size(); ++i)
        header.gridIndices.push_back(i);

    bool ok = true;
    const serve::StatsMsg before = daemon.server().stats();
    out.set("serve.submit_ms_p50",
            timeReps(tracer, "serve.submit", kSubmits, [&] {
                CountSink sink;
                ok = client.runSubset(grid, header, header.gridIndices,
                                      {&sink}, &error) &&
                     sink.outcomes == keys.size() && ok;
            }),
            "ms");
    const serve::StatsMsg after = daemon.server().stats();
    serve::StatsMsg stats;
    out.set("serve.wire_ms_p50",
            timeReps(tracer, "serve.wire", kSubmits, [&] {
                ok = client.serverStats(stats, &error) && ok;
            }),
            "ms");
    client.close();
    daemon.stop();
    out.set("serve.requests",
            static_cast<double>(after.requests - before.requests), "count");
    out.set("serve.executed",
            static_cast<double>(after.executed - before.executed), "count");
    out.set("serve.cache_hits",
            static_cast<double>(after.cacheHits - before.cacheHits),
            "count");

    out.set("serve.lookup_ms_per_submit",
            timeReps(tracer, "serve.lookup", kReps, [&] {
                for (const std::string &key : keys)
                    if (!cache.lookup(key))
                        ok = false;
            }),
            "ms");
    out.set("serve.judge_ms_per_submit",
            timeReps(tracer, "serve.judge", kReps, [&] {
                for (const std::string &key : keys) {
                    core::AttackVariant variant{};
                    campaign::CpuConfig config;
                    campaign::AttackOptions attack;
                    if (campaign::parseScenarioKey(key, variant, config,
                                                   attack))
                        verdict::judgeScenario(variant, config, attack);
                }
            }),
            "ms");
    out.set("serve.framing_ms_per_submit",
            timeReps(tracer, "serve.framing", kReps, [&] {
                serve::SubmitMsg submit;
                submit.keys = keys;
                serve::parseLine(serve::submitLine(submit));
                for (std::size_t i = 0; i < keys.size(); ++i) {
                    serve::ResultMsg msg;
                    msg.index = i;
                    msg.cached = true;
                    if (const auto hit = cache.lookup(keys[i])) {
                        msg.result = hit->result;
                        msg.stats = hit->stats;
                    }
                    serve::parseLine(serve::resultLine(msg));
                }
                serve::parseLine(serve::doneLine(serve::DoneMsg{}));
            }),
            "ms");
    return ok && after.executed == before.executed;
}

} // namespace

void
runProbes(const Options &options, const ProbeInputs &in, Tracer &tracer,
          Metrics &out)
{
    bool ok = true;
    channelRounds(tracer, out, ok);
    if (!ok)
        std::fprintf(stderr, "probe: channel recovery mismatch\n");

    std::vector<const core::AttackDescriptor *> linted;
    for (const core::AttackDescriptor *d :
         core::ScenarioCatalog::instance().attacks())
        if (d->staticProgram)
            linted.push_back(d);
    out.set("lint.ms_per_pass", timeReps(tracer, "lint.pass", kReps, [&] {
                for (const core::AttackDescriptor *d : linted)
                    lint::lintAttack(*d);
            }),
            "ms");

    struct Cell
    {
        core::AttackVariant variant{};
        campaign::CpuConfig config;
        campaign::AttackOptions options;
    };
    std::vector<Cell> cells;
    for (const std::string &key : in.verdictKeys) {
        Cell c;
        if (campaign::parseScenarioKey(key, c.variant, c.config,
                                       c.options))
            cells.push_back(std::move(c));
    }
    std::size_t decided = 0, undecided = 0;
    const double modelMs = timeReps(tracer, "verdict.model", kReps, [&] {
        decided = undecided = 0;
        for (const Cell &c : cells)
            (verdict::judgeScenario(c.variant, c.config, c.options)
                     .decided()
                 ? decided
                 : undecided)++;
    });
    const double staticMs =
        timeReps(tracer, "verdict.static", kReps, [&] {
            for (const Cell &c : cells)
                verdict::judgeScenarioStatic(c.variant, c.config,
                                             c.options);
        });
    const double n = static_cast<double>(cells.empty() ? 1 : cells.size());
    out.set("verdict.model_us_per_cell", 1000.0 * modelMs / n, "us");
    out.set("verdict.static_us_per_cell", 1000.0 * staticMs / n, "us");
    out.set("verdict.model_decided", static_cast<double>(decided),
            "count");
    out.set("verdict.model_undecided", static_cast<double>(undecided),
            "count");

    if (in.cache) {
        const std::string path = options.workDir + "/probe-cache.json";
        const std::string fingerprint = campaign::modelFingerprint();
        std::error_code ec;
        std::filesystem::remove(path, ec);
        in.cache->saveToFile(path, fingerprint);
        out.set("campaign.persist_save_ms",
                timeReps(tracer, "campaign.persist_save", 3, [&] {
                    in.cache->saveToFile(path, fingerprint);
                }),
                "ms");
        out.set("campaign.persist_load_ms",
                timeReps(tracer, "campaign.persist_load", 3, [&] {
                    campaign::ResultCache loaded;
                    loaded.loadFromFile(path, fingerprint);
                }),
                "ms");
        out.set("campaign.persist_bytes",
                static_cast<double>(std::filesystem::file_size(path, ec)),
                "bytes");
    }

    if (in.cache && !serveProbe(options, *in.cache, tracer, out))
        std::fprintf(stderr, "probe: serve probe failed\n");
}

} // namespace perfbench
