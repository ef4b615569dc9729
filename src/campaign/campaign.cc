#include "campaign.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "attacks/runner.hh"
#include "core/catalog.hh"
#include "sink.hh"
#include "verdict/model.hh"
#include "verdict/static_verdict.hh"

namespace specsec::campaign
{

namespace
{

/**
 * The grid's rows as catalog descriptors: the enum-addressed
 * `variants` first, then the name-addressed `attackNames` (the
 * extension seam), defaulting to every enum-backed attack.  Throws
 * std::invalid_argument — with did-you-mean suggestions — on names
 * the catalog does not know, so a typo fails the campaign up front
 * instead of producing a half-empty grid.
 */
std::vector<const core::AttackDescriptor *>
resolveAttacks(const ScenarioSpec &spec)
{
    const core::ScenarioCatalog &catalog =
        core::ScenarioCatalog::instance();
    std::vector<const core::AttackDescriptor *> rows;
    for (const core::AttackVariant v : spec.variants) {
        const core::AttackDescriptor *d = catalog.findAttack(v);
        if (d == nullptr) {
            throw std::invalid_argument(
                "campaign: spec names an unregistered attack "
                "variant slot");
        }
        rows.push_back(d);
    }
    for (const std::string &name : spec.attackNames) {
        const core::AttackDescriptor *d = catalog.findAttack(name);
        if (d == nullptr) {
            throw std::invalid_argument(core::unknownNameMessage(
                "attack", name, catalog.attackSuggestions(name)));
        }
        rows.push_back(d);
    }
    if (rows.empty()) {
        for (const core::AttackDescriptor *d : catalog.attacks()) {
            if (d->variant)
                rows.push_back(d);
        }
    }
    return rows;
}

std::vector<DefenseAxis>
resolveDefenses(const ScenarioSpec &spec)
{
    if (!spec.defenses.empty())
        return spec.defenses;
    return {DefenseAxis{"baseline", nullptr}};
}

template <typename T>
std::vector<T>
resolveKnob(const std::vector<T> &sweep, T baseline)
{
    if (!sweep.empty())
        return sweep;
    return {baseline};
}

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * The engine's worker pool: hands out the items [0, @p count) by
 * atomic index to at most one thread per item and @p workers threads
 * (0 = hardware concurrency; the caller's own thread when that is
 * one), and stops handing out items once @p body throws.  The first
 * exception is rethrown on the caller's thread after every worker
 * has joined.
 */
void
runPool(std::size_t count, unsigned workers,
        const std::function<void(std::size_t)> &body)
{
    if (workers == 0)
        workers = std::max(1u, std::thread::hardware_concurrency());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex failureMutex;
    std::exception_ptr failure; // guarded by failureMutex
    const auto work = [&]() {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                body(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(failureMutex);
                if (!failure)
                    failure = std::current_exception();
                stop.store(true, std::memory_order_relaxed);
            }
        }
    };
    const std::size_t nthreads = std::min<std::size_t>(workers, count);
    if (nthreads <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(nthreads);
        for (std::size_t w = 0; w < nthreads; ++w)
            pool.emplace_back(work);
        for (std::thread &t : pool)
            t.join();
    }
    if (failure)
        std::rethrow_exception(failure);
}

/**
 * Run and time @p s into @p o, and memoize the fresh result in
 * @p cache (may be null) under its key.  Callers look the key up
 * first.  A key can parse yet name a machine the runner cannot
 * build: the runner's exception is rethrown naming the grid index.
 */
void
simulate(ResultCache *cache, const Scenario &s, ScenarioOutcome &o)
{
    const auto t0 = std::chrono::steady_clock::now();
    try {
        o.result = attacks::runVariant(s.variant, s.config, s.options,
                                       o.stats);
    } catch (const std::exception &e) {
        throw std::runtime_error("grid index " +
                                 std::to_string(s.gridIndex) + ": " +
                                 e.what());
    }
    o.wallMillis = millisSince(t0);
    if (cache)
        cache->store(s.key, {o.result, o.stats});
}

std::vector<SoftwareMitigation>
resolveMitigations(const ScenarioSpec &spec)
{
    if (!spec.mitigations.empty())
        return spec.mitigations;
    return {SoftwareMitigation{}};
}

std::vector<VulnAblation>
resolveVulns(const ScenarioSpec &spec)
{
    if (!spec.vulnAblations.empty())
        return spec.vulnAblations;
    return {VulnAblation{"baseline", spec.baseConfig.vuln}};
}

std::vector<CacheGeometry>
resolveCaches(const ScenarioSpec &spec)
{
    if (!spec.cacheGeometries.empty())
        return spec.cacheGeometries;
    return {CacheGeometry{"baseline", spec.baseConfig.cache}};
}

} // namespace

SoftwareMitigation
SoftwareMitigation::fromCatalog(
    const core::MitigationDescriptor &descriptor)
{
    SoftwareMitigation m;
    m.label = descriptor.name;
    m.toggles = descriptor.toggles;
    return m;
}

std::optional<SoftwareMitigation>
SoftwareMitigation::byName(const std::string &name)
{
    const core::MitigationDescriptor *descriptor =
        core::ScenarioCatalog::instance().findMitigation(name);
    if (descriptor == nullptr)
        return std::nullopt;
    return fromCatalog(*descriptor);
}

std::size_t
ScenarioSpec::gridSize() const
{
    // Same resolution rules as expandGrid, so the two always agree.
    return resolveAttacks(*this).size() *
           resolveDefenses(*this).size() *
           resolveMitigations(*this).size() *
           resolveVulns(*this).size() * resolveCaches(*this).size() *
           resolveKnob(robSizes, baseConfig.robSize).size() *
           resolveKnob(permCheckLatencies,
                       baseConfig.permCheckLatency)
               .size() *
           resolveKnob(channels, baseOptions.channel).size();
}

ScenarioSpec
ScenarioSpec::defenseMatrix()
{
    ScenarioSpec spec;
    spec.name = "defense-matrix";
    for (core::AttackVariant v : core::allVariants()) {
        if (v == core::AttackVariant::Spoiler)
            continue; // timing attack; no leak/blocked verdict
        spec.variants.push_back(v);
    }
    const auto hw = [](void (*set)(uarch::HwDefenseConfig &)) {
        return [set](CpuConfig &c, AttackOptions &) {
            set(c.defense);
        };
    };
    spec.defenses = {
        {"baseline", nullptr},
        {"fence(1)", hw([](uarch::HwDefenseConfig &d) {
             d.fenceSpeculativeLoads = true;
         })},
        {"nda(2)", hw([](uarch::HwDefenseConfig &d) {
             d.blockSpeculativeForwarding = true;
         })},
        {"stt(3)", hw([](uarch::HwDefenseConfig &d) {
             d.blockTaintedTransmit = true;
         })},
        {"invisi(3)", hw([](uarch::HwDefenseConfig &d) {
             d.invisibleSpeculation = true;
         })},
        {"cleanup(3)", hw([](uarch::HwDefenseConfig &d) {
             d.cleanupSpec = true;
         })},
        {"cond(3)", hw([](uarch::HwDefenseConfig &d) {
             d.conditionalSpeculation = true;
         })},
        {"flush(4)", hw([](uarch::HwDefenseConfig &d) {
             d.flushPredictorOnContextSwitch = true;
         })},
    };
    return spec;
}

namespace
{

/**
 * Field-by-field consumer for parseScenarioKey: pops the next
 * ';'-terminated decimal field of the key.
 */
class KeyReader
{
  public:
    explicit KeyReader(const std::string &key) : key_(key) {}

    std::uint64_t next()
    {
        // One pass: digits up to the first ';', at least one.
        std::uint64_t value = 0;
        for (std::size_t i = pos_; !failed_ && i < key_.size(); ++i) {
            const char c = key_[i];
            if (c == ';' && i > pos_) {
                pos_ = i + 1;
                return value;
            }
            if (c < '0' || c > '9')
                break;
            value = value * 10 + static_cast<std::uint64_t>(c - '0');
        }
        failed_ = true;
        return 0;
    }

    bool done() const { return !failed_ && pos_ == key_.size(); }

  private:
    const std::string &key_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/// Fields of a scenario key: the variant, then one per knob row.
constexpr std::size_t kKeyFields = [] {
    CpuConfig c;
    AttackOptions o;
    std::size_t n = 1;
    attacks::forEachKnob(
        c, o, [&n](const char *, attacks::KnobKind, auto &) { ++n; });
    return n;
}();

/// The longest key: every field 20 digits (2^64 - 1) and its ';'.
constexpr std::size_t kKeyCapacity = kKeyFields * 21;

/**
 * Write the key of (@p variant, @p c, @p o) into @p out, which holds
 * kKeyCapacity chars; @return one past its last char.  scenarioKey()
 * and parseScenarioKey()'s canonical check share it, so a key costs
 * one allocation and a check none.
 */
char *
writeKey(char *out, core::AttackVariant variant, const CpuConfig &c,
         const AttackOptions &o)
{
    // Most fields are bools and small counts: one digit, no call.
    const auto put = [&out](std::uint64_t value) {
        if (value < 10)
            *out++ = static_cast<char>('0' + value);
        else
            out = std::to_chars(out, out + 20, value).ptr;
        *out++ = ';';
    };
    put(static_cast<std::uint64_t>(variant));
    attacks::forEachKnob(
        c, o, [&put](const char *, attacks::KnobKind, const auto &field) {
            put(static_cast<std::uint64_t>(field));
        });
    return out;
}

} // namespace

std::string
scenarioKey(core::AttackVariant variant, const CpuConfig &c,
            const AttackOptions &o)
{
    char buf[kKeyCapacity];
    return std::string(buf, writeKey(buf, variant, c, o));
}

bool
parseScenarioKey(const std::string &key,
                 core::AttackVariant &variant, CpuConfig &c,
                 AttackOptions &o)
{
    KeyReader in(key);
    const std::uint64_t v = in.next();
    attacks::forEachKnob(
        c, o, [&in](const char *, attacks::KnobKind, auto &field) {
            field = static_cast<std::remove_reference_t<decltype(field)>>(
                in.next());
        });
    // The harness runs any channel other than Flush+Reload as
    // Prime+Probe, so a channel past the enum would run one cell
    // under another's key.
    if (!in.done() || uarch::cacheGeometryError(c.cache) != nullptr ||
        o.channel > core::CovertChannelKind::PrimeProbe ||
        v > std::numeric_limits<
                std::underlying_type_t<core::AttackVariant>>::max())
        return false;
    variant = static_cast<core::AttackVariant>(v);
    // Only the canonical spelling names a scenario: a wrapped
    // 2^64 + 48, a leading zero or a 2 in a bool field would run
    // one cell and be cached under another key.
    char canonical[kKeyCapacity];
    return core::ScenarioCatalog::instance().findAttack(variant) !=
               nullptr &&
           std::string_view(canonical,
                            writeKey(canonical, variant, c, o)) == key;
}

std::vector<Scenario>
expandGrid(const ScenarioSpec &spec)
{
    const auto attacks = resolveAttacks(spec);
    const auto defenses = resolveDefenses(spec);
    const auto mitigations = resolveMitigations(spec);
    const auto vulns = resolveVulns(spec);
    const auto caches = resolveCaches(spec);
    const auto robs =
        resolveKnob(spec.robSizes, spec.baseConfig.robSize);
    const auto lats = resolveKnob(spec.permCheckLatencies,
                                  spec.baseConfig.permCheckLatency);
    const auto chans =
        resolveKnob(spec.channels, spec.baseOptions.channel);

    std::vector<Scenario> grid;
    grid.reserve(attacks.size() * defenses.size() *
                 mitigations.size() * vulns.size() * caches.size() *
                 robs.size() * lats.size() * chans.size());
    for (std::size_t vi = 0; vi < attacks.size(); ++vi)
    for (std::size_t di = 0; di < defenses.size(); ++di)
    for (const SoftwareMitigation &mit : mitigations)
    for (const VulnAblation &vuln : vulns)
    for (const CacheGeometry &geom : caches)
    for (std::size_t rob : robs)
    for (unsigned lat : lats)
    for (core::CovertChannelKind chan : chans) {
        Scenario s;
        s.variant = attacks[vi]->id;
        s.config = spec.baseConfig;
        s.options = spec.baseOptions;
        s.config.vuln = vuln.vuln;
        s.config.cache = geom.cache;
        s.config.robSize = rob;
        s.config.permCheckLatency = lat;
        s.options.channel = chan;
        mit.applyTo(s.options);
        // The defense column mutation runs last so it wins over
        // every knob dimension (e.g. a column may pin a geometry).
        if (defenses[di].apply)
            defenses[di].apply(s.config, s.options);
        if (const char *why = uarch::cacheGeometryError(s.config.cache)) {
            throw std::invalid_argument(
                "campaign: cache geometry '" + geom.label +
                "' under column '" + defenses[di].label + "': " + why);
        }
        s.row = vi;
        s.col = di;
        s.gridIndex = grid.size();
        s.rowLabel = attacks[vi]->name;
        s.colLabel = defenses[di].label;
        s.key = scenarioKey(s.variant, s.config, s.options);
        grid.push_back(std::move(s));
    }
    return grid;
}

std::vector<std::size_t>
ExpandedGrid::shard(std::size_t index, std::size_t count) const
{
    if (count == 0)
        count = 1;
    // Round-robin over the deduplicated executions: unique position
    // j belongs to shard j % count.  Duplicates follow dupOf, so a
    // cell and the execution backing it always share a shard.
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < expanded.size(); ++i)
        if (dupOf[i] % count == index)
            indices.push_back(i);
    return indices;
}

std::optional<ExpandedGrid>
gridFromKeys(const std::vector<std::string> &keys, std::string *error)
{
    ExpandedGrid g;
    g.expanded.resize(keys.size());
    g.uniqueIndices.resize(keys.size());
    std::iota(g.uniqueIndices.begin(), g.uniqueIndices.end(), 0);
    g.dupOf = g.uniqueIndices;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        Scenario &s = g.expanded[i];
        if (!parseScenarioKey(keys[i], s.variant, s.config, s.options)) {
            if (error)
                *error = "malformed scenario key at index " +
                         std::to_string(i);
            return std::nullopt;
        }
        s.gridIndex = i;
        s.key = keys[i];
    }
    return g;
}

ExpandedGrid
dedupGrid(const ScenarioSpec &spec)
{
    ExpandedGrid g;
    g.expanded = expandGrid(spec);
    g.dupOf.resize(g.expanded.size());
    // Views into the expanded keys, which outlive the map.
    std::unordered_map<std::string_view, std::size_t> seen;
    seen.reserve(g.expanded.size());
    for (std::size_t i = 0; i < g.expanded.size(); ++i) {
        const auto [it, inserted] =
            seen.emplace(g.expanded[i].key, g.uniqueIndices.size());
        if (inserted)
            g.uniqueIndices.push_back(i);
        g.dupOf[i] = it->second;
    }
    return g;
}

std::optional<ResultCache::Entry>
ResultCache::lookup(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    return it->second;
}

void
ResultCache::store(const std::string &key, const Entry &entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.emplace(key, entry);
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::uint64_t
ResultCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
ResultCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
}

std::vector<std::pair<std::string, ResultCache::Entry>>
ResultCache::snapshot() const
{
    std::vector<std::pair<std::string, Entry>> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.assign(entries_.begin(), entries_.end());
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    return out;
}

char
CampaignReport::cellGlyph(std::size_t row, std::size_t col) const
{
    const unsigned runs = cellRuns.at(row).at(col);
    if (runs == 0)
        return ' ';
    const unsigned leaks = cellLeaks.at(row).at(col);
    if (leaks == runs)
        return 'L';
    if (leaks == 0)
        return '.';
    return 'p';
}

std::string
CampaignReport::successMatrixText() const
{
    std::string out;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%-26s", "variant");
    out += buf;
    for (const std::string &col : colLabels) {
        std::snprintf(buf, sizeof buf, " %10.10s", col.c_str());
        out += buf;
    }
    out += '\n';
    for (std::size_t r = 0; r < rowLabels.size(); ++r) {
        std::snprintf(buf, sizeof buf, "%-26.26s",
                      rowLabels[r].c_str());
        out += buf;
        for (std::size_t c = 0; c < colLabels.size(); ++c) {
            std::snprintf(buf, sizeof buf, " %10c", cellGlyph(r, c));
            out += buf;
        }
        out += '\n';
    }
    return out;
}

void
CampaignReport::recomputeCells()
{
    cellRuns.assign(rowLabels.size(),
                    std::vector<unsigned>(colLabels.size(), 0));
    cellLeaks.assign(rowLabels.size(),
                     std::vector<unsigned>(colLabels.size(), 0));
    for (const ScenarioOutcome &o : outcomes) {
        if (o.row >= rowLabels.size() || o.col >= colLabels.size())
            continue;
        cellRuns[o.row][o.col] += 1;
        if (o.result.leaked)
            cellLeaks[o.row][o.col] += 1;
    }
}

namespace
{

/**
 * Do two outcomes for the same gridIndex agree on everything except
 * wall time?  Heterogeneous-shard merges accept overlapping cells
 * exactly when this holds.  Configuration is compared through the
 * canonical key (one definition of "the same experiment").
 */
bool
sameTimingFreeOutcome(const ScenarioOutcome &a,
                      const ScenarioOutcome &b)
{
    return a.gridIndex == b.gridIndex && a.row == b.row &&
           a.col == b.col && a.rowLabel == b.rowLabel &&
           a.colLabel == b.colLabel &&
           scenarioKey(a.variant, a.config, a.options) ==
               scenarioKey(b.variant, b.config, b.options) &&
           a.result == b.result && a.stats == b.stats;
}

} // namespace

bool
CampaignReport::merge(const CampaignReport &other,
                      std::string *error)
{
    const auto fail = [error](const std::string &message) {
        if (error)
            *error = message;
        return false;
    };
    if (name != other.name)
        return fail("spec name mismatch: '" + name + "' vs '" +
                    other.name + "'");
    if (rowLabels != other.rowLabels)
        return fail("row labels differ between shard reports");
    if (colLabels != other.colLabels)
        return fail("column labels differ between shard reports");
    if (expandedCount != other.expandedCount ||
        uniqueCount != other.uniqueCount) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "grid shape mismatch: %zu/%zu expanded, "
                      "%zu/%zu unique",
                      expandedCount, other.expandedCount,
                      uniqueCount, other.uniqueCount);
        return fail(buf);
    }
    std::unordered_map<std::size_t, const ScenarioOutcome *> present;
    present.reserve(outcomes.size());
    for (const ScenarioOutcome &o : outcomes)
        present.emplace(o.gridIndex, &o);
    // Overlap is legal exactly when the two reports agree on the
    // cell (heterogeneous shard counts re-execute cells, and every
    // timing-free field is a pure function of the configuration);
    // a disagreeing overlap is a genuine conflict.
    std::vector<const ScenarioOutcome *> fresh;
    fresh.reserve(other.outcomes.size());
    for (const ScenarioOutcome &o : other.outcomes) {
        if (o.gridIndex >= expandedCount) {
            char buf[64];
            std::snprintf(buf, sizeof buf,
                          "gridIndex %zu out of range (%zu)",
                          o.gridIndex, expandedCount);
            return fail(buf);
        }
        const auto it = present.find(o.gridIndex);
        if (it == present.end()) {
            fresh.push_back(&o);
            continue;
        }
        if (!sameTimingFreeOutcome(*it->second, o)) {
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "conflicting shards: gridIndex %zu has "
                          "different results in the two reports",
                          o.gridIndex);
            return fail(buf);
        }
    }

    for (const ScenarioOutcome *o : fresh)
        outcomes.push_back(*o);
    std::sort(outcomes.begin(), outcomes.end(),
              [](const ScenarioOutcome &a, const ScenarioOutcome &b) {
                  return a.gridIndex < b.gridIndex;
              });
    recomputeCells();
    // Shard wall-clocks add too: they model separate processes.
    forEachReportScalar([&](const char *, auto field, ScalarFold fold) {
        if (fold == ScalarFold::Sum)
            this->*field += other.*field;
        else if (fold == ScalarFold::Max)
            this->*field = std::max(this->*field, other.*field);
    });
    if (!partial()) {
        // Complete again: indistinguishable from a 1-process run.
        shardIndex = 0;
        shardCount = 1;
    }
    return true;
}

unsigned
CampaignEngine::workers() const
{
    if (options_.workers > 0)
        return options_.workers;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

CampaignHeader
runHeader(const ScenarioSpec &spec, const ExpandedGrid &grid,
          ShardRange shard, unsigned workers)
{
    CampaignHeader header;
    header.name = spec.name;
    for (const core::AttackDescriptor *attack : resolveAttacks(spec))
        header.rowLabels.push_back(attack->name);
    for (const DefenseAxis &d : resolveDefenses(spec))
        header.colLabels.push_back(d.label);
    header.expandedCount = grid.expanded.size();
    header.uniqueCount = grid.uniqueIndices.size();
    header.shardIndex = shard.index;
    header.shardCount = shard.count == 0 ? 1 : shard.count;
    header.workers = workers;
    header.gridIndices = grid.shard(shard.index, shard.count);
    return header;
}

void
CampaignEngine::run(const ScenarioSpec &spec,
                    const std::vector<OutcomeSink *> &sinks,
                    ShardRange shard) const
{
    const ExpandedGrid grid = dedupGrid(spec);
    run(grid, runHeader(spec, grid, shard, workers()), sinks);
}

void
CampaignEngine::run(const ExpandedGrid &grid, const CampaignHeader &header,
                    const std::vector<OutcomeSink *> &sinks) const
{
    // Execution n is this run's n-th unique execution.
    const OutcomeFanOut fanOut(grid, header.gridIndices, sinks);
    for (OutcomeSink *sink : sinks)
        sink->begin(header);

    using verdict::VerdictBackend;
    const VerdictBackend backend = options_.backend;
    const bool triage = backend == VerdictBackend::Triage;

    // Replication classes, one per work item.  Under Triage, unique
    // executions whose (variant, config, canonical options) coincide
    // are the same experiment to the runner (the descriptor's
    // canonicalOptions hook resets exactly the AttackOptions fields
    // the runner never reads), so one member's result serves the
    // whole class byte for byte; class c is members[first[c] ..
    // first[c + 1]), in execution order.  Every other backend leaves
    // both empty: class c is execution c alone.
    std::vector<std::size_t> members, first;
    if (triage) {
        const core::ScenarioCatalog &catalog =
            core::ScenarioCatalog::instance();
        std::unordered_map<std::string, std::size_t> classOf;
        classOf.reserve(fanOut.size());
        std::vector<std::size_t> classIds(fanOut.size());
        for (std::size_t n = 0; n < fanOut.size(); ++n) {
            const Scenario &s = fanOut.scenario(n);
            const core::AttackDescriptor *d =
                catalog.findAttack(s.variant);
            std::string ckey =
                d && d->canonicalOptions
                    ? scenarioKey(s.variant, s.config,
                                  d->canonicalOptions(s.options))
                    : s.key;
            classIds[n] =
                classOf.emplace(std::move(ckey), classOf.size())
                    .first->second;
        }
        first.assign(classOf.size() + 1, 0);
        for (const std::size_t c : classIds)
            ++first[c + 1];
        std::partial_sum(first.begin(), first.end(), first.begin());
        members.resize(classIds.size());
        std::vector<std::size_t> next(first.begin(), first.end() - 1);
        for (std::size_t n = 0; n < classIds.size(); ++n)
            members[next[classIds[n]]++] = n;
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::size_t> cacheHits{0};
    std::atomic<std::size_t> modelDecided{0};
    std::atomic<std::size_t> modelUndecided{0};
    std::atomic<std::size_t> disagreements{0};
    std::atomic<std::size_t> replicatedCells{0};
    ResultCache *const cache = options_.cache;
    const bool checksAgreement = backend == VerdictBackend::Differential ||
                                 backend == VerdictBackend::Static;

    // Stream @p o as execution @p n's outcome, straight from the
    // worker thread, annotated with the member's judgement @p j (null
    // under the plain simulator; its evidence is moved out) and,
    // under Differential and Static, whether @p j agrees with the
    // emitted leak bit.
    const auto emit = [&](std::size_t n, ScenarioOutcome &o,
                          core::ModelJudgement *j) {
        if (j) {
            o.modelVerdict = core::modelVerdictName(j->verdict);
            o.evidence = std::move(j->evidence);
        }
        if (j && checksAgreement) {
            const bool agree = j->predictsLeak() == o.result.leaked;
            o.agreement =
                !j->decided() ? "undecided" : agree ? "agree" : "disagree";
            if (j->decided() && !agree)
                disagreements.fetch_add(1, std::memory_order_relaxed);
        }
        fanOut.emit(n, std::move(o));
    };

    // The one execution step, per replication class: judge every
    // member (the analyzer under Static, the model under every other
    // backend but the plain simulator), then give each member a
    // cache hit, a classmate's entry or its own simulation.  Verdicts
    // predict and annotate; they never stand in for a run, except
    // under Model, which simulates nothing.
    const auto step = [&](std::size_t c) {
        const std::span<const std::size_t> cls =
            triage ? std::span<const std::size_t>(members).subspan(
                         first[c], first[c + 1] - first[c])
                   : std::span<const std::size_t>(&c, 1);
        // Scratch, reused across the classes a thread runs (nothing
        // a step calls starts another run on the same thread).
        thread_local std::vector<core::ModelJudgement> judgements;
        thread_local std::vector<std::size_t> missing;
        judgements.clear();
        missing.clear();

        bool decidedLeak = false;
        bool decidedSafe = false;
        if (backend != VerdictBackend::Simulator) {
            for (const std::size_t n : cls) {
                const Scenario &s = fanOut.scenario(n);
                const core::ModelJudgement &j = judgements.emplace_back(
                    backend == VerdictBackend::Static
                        ? verdict::judgeScenarioStatic(s.variant, s.config,
                                                       s.options)
                        : verdict::judgeScenario(s.variant, s.config,
                                                 s.options));
                (j.decided() ? modelDecided : modelUndecided)
                    .fetch_add(1, std::memory_order_relaxed);
                if (j.decided())
                    (j.predictsLeak() ? decidedLeak : decidedSafe) = true;
            }
        }
        const auto judgement = [](std::size_t i) {
            return judgements.empty() ? nullptr : &judgements[i];
        };

        if (backend == VerdictBackend::Model) {
            // Analysis only: never touches the simulator or the
            // result cache (a judgement costs microseconds, and a
            // prediction must never pass for a measurement).  The
            // synthesized result carries the predicted leak bit and
            // nothing else.
            for (std::size_t i = 0; i < cls.size(); ++i) {
                ScenarioOutcome o;
                o.result.name = fanOut.scenario(cls[i]).rowLabel;
                o.result.leaked = judgements[i].predictsLeak();
                emit(cls[i], o, &judgements[i]);
            }
            return;
        }

        // Each member is looked up once; the hits emit, and the first
        // one serves a class of two or more.
        std::optional<ResultCache::Entry> served;
        for (std::size_t i = 0; i < cls.size(); ++i) {
            auto hit = cache ? cache->lookup(fanOut.scenario(cls[i]).key)
                             : std::nullopt;
            if (!hit) {
                missing.push_back(i);
                continue;
            }
            cacheHits.fetch_add(1, std::memory_order_relaxed);
            if (cls.size() > 1 && !served)
                served = hit;
            ScenarioOutcome o;
            o.result = std::move(hit->result);
            o.stats = hit->stats;
            emit(cls[i], o, judgement(i));
        }

        // The rest replicate the served entry, or a representative is
        // simulated, stored under its own key only (replicas are never
        // stored, so the cache stays a record of real executions).
        // Soundness tripwire: decided verdicts disagreeing inside one
        // class would mean the canonicalization folded two genuinely
        // different experiments.  Should be unreachable; every
        // missing member is then simulated instead.
        const bool conflict = decidedLeak && decidedSafe;
        for (const std::size_t i : missing) {
            ScenarioOutcome o;
            if (served && !conflict) {
                o.result = served->result;
                o.stats = served->stats;
                replicatedCells.fetch_add(1, std::memory_order_relaxed);
            } else {
                simulate(cache, fanOut.scenario(cls[i]), o);
                if (!conflict && missing.size() > 1)
                    served = ResultCache::Entry{o.result, o.stats};
            }
            emit(cls[i], o, judgement(i));
        }
    };

    // header.workers still reports the request; runPool caps the
    // threads at the work items.
    runPool(triage ? first.size() - 1 : fanOut.size(), workers(), step);

    CampaignFooter footer;
    footer.cacheHits = cacheHits.load(std::memory_order_relaxed);
    footer.replicatedCells =
        replicatedCells.load(std::memory_order_relaxed);
    footer.executedCount =
        fanOut.size() - footer.cacheHits - footer.replicatedCells;
    footer.modelDecided =
        modelDecided.load(std::memory_order_relaxed);
    footer.modelUndecided =
        modelUndecided.load(std::memory_order_relaxed);
    footer.disagreements =
        disagreements.load(std::memory_order_relaxed);
    footer.wallMillis = millisSince(t0);
    for (OutcomeSink *sink : sinks)
        sink->end(footer);
}

CampaignReport
CampaignEngine::run(const ScenarioSpec &spec, ShardRange shard) const
{
    ReportSink sink;
    run(spec, {&sink}, shard);
    return sink.takeReport();
}

} // namespace specsec::campaign
