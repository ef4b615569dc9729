#include "campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "attacks/runner.hh"
#include "attacks/snapshot.hh"
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

void
appendField(std::string &out, std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu;",
                  static_cast<unsigned long long>(value));
    out += buf;
}

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
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

std::string
scenarioKey(core::AttackVariant variant, const CpuConfig &c,
            const AttackOptions &o)
{
    // Tripwire: scenarioKey must cover every field that determines a
    // run's outcome, or dedup silently folds distinct scenarios.
    // When either struct grows, extend the serialization below, then
    // update the expected size.
#if defined(__x86_64__) && defined(__linux__)
    static_assert(sizeof(CpuConfig) == 120,
                  "CpuConfig changed: extend scenarioKey()");
    static_assert(sizeof(AttackOptions) == 32,
                  "AttackOptions changed: extend scenarioKey()");
#endif
    std::string key;
    key.reserve(160);
    appendField(key, static_cast<std::uint64_t>(variant));
    // CpuConfig scalars.
    appendField(key, c.robSize);
    appendField(key, c.fetchWidth);
    appendField(key, c.commitWidth);
    appendField(key, c.permCheckLatency);
    appendField(key, c.branchResolveLatency);
    appendField(key, c.retResolveLatency);
    appendField(key, c.exceptionDeliveryLatency);
    appendField(key, c.txnAbortDetectLatency);
    appendField(key, c.partialAliasPenalty);
    appendField(key, c.physAliasPenalty);
    appendField(key, c.rsbDepth);
    appendField(key, c.lfbEntries);
    // CacheConfig.
    appendField(key, c.cache.sets);
    appendField(key, c.cache.ways);
    appendField(key, c.cache.lineSize);
    appendField(key, c.cache.hitLatency);
    appendField(key, c.cache.missLatency);
    // VulnConfig.
    appendField(key, c.vuln.meltdown);
    appendField(key, c.vuln.l1tf);
    appendField(key, c.vuln.mds);
    appendField(key, c.vuln.lazyFp);
    appendField(key, c.vuln.storeBypass);
    appendField(key, c.vuln.msr);
    appendField(key, c.vuln.taa);
    // HwDefenseConfig.
    appendField(key, c.defense.fenceSpeculativeLoads);
    appendField(key, c.defense.blockSpeculativeForwarding);
    appendField(key, c.defense.blockTaintedTransmit);
    appendField(key, c.defense.invisibleSpeculation);
    appendField(key, c.defense.cleanupSpec);
    appendField(key, c.defense.conditionalSpeculation);
    appendField(key, c.defense.partitionedCache);
    appendField(key, c.defense.flushPredictorOnContextSwitch);
    appendField(key, c.defense.noIndirectPrediction);
    appendField(key, c.defense.noBranchPrediction);
    appendField(key, c.defense.clearBuffersOnContextSwitch);
    appendField(key, c.defense.eagerFpuSwitch);
    appendField(key, c.defense.safeStoreBypass);
    // AttackOptions.
    appendField(key, static_cast<std::uint64_t>(o.channel));
    appendField(key, o.secretLen);
    appendField(key, o.flushL1OnExit);
    appendField(key, o.kpti);
    appendField(key, o.rsbStuffing);
    appendField(key, o.softwareLfence);
    appendField(key, o.addressMasking);
    appendField(key, o.trainingRounds);
    appendField(key, o.delayAuthorization);
    return key;
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
        if (failed_ || pos_ >= key_.size()) {
            failed_ = true;
            return 0;
        }
        const std::size_t semi = key_.find(';', pos_);
        if (semi == std::string::npos || semi == pos_) {
            failed_ = true;
            return 0;
        }
        std::uint64_t value = 0;
        for (std::size_t i = pos_; i < semi; ++i) {
            const char c = key_[i];
            if (c < '0' || c > '9') {
                failed_ = true;
                return 0;
            }
            value = value * 10 +
                    static_cast<std::uint64_t>(c - '0');
        }
        pos_ = semi + 1;
        return value;
    }

    bool done() const { return !failed_ && pos_ == key_.size(); }
    bool failed() const { return failed_; }

  private:
    const std::string &key_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

} // namespace

bool
parseScenarioKey(const std::string &key,
                 core::AttackVariant &variant, CpuConfig &c,
                 AttackOptions &o)
{
    // Mirror of scenarioKey(): consume the fields in the exact
    // order that function appends them.  The static_asserts there
    // cover this function too — both must be extended together.
    KeyReader in(key);
    const std::uint64_t v = in.next();
    // CpuConfig scalars.
    c.robSize = static_cast<std::size_t>(in.next());
    c.fetchWidth = static_cast<unsigned>(in.next());
    c.commitWidth = static_cast<unsigned>(in.next());
    c.permCheckLatency = static_cast<unsigned>(in.next());
    c.branchResolveLatency = static_cast<unsigned>(in.next());
    c.retResolveLatency = static_cast<unsigned>(in.next());
    c.exceptionDeliveryLatency = static_cast<unsigned>(in.next());
    c.txnAbortDetectLatency = static_cast<unsigned>(in.next());
    c.partialAliasPenalty = static_cast<unsigned>(in.next());
    c.physAliasPenalty = static_cast<unsigned>(in.next());
    c.rsbDepth = static_cast<std::size_t>(in.next());
    c.lfbEntries = static_cast<std::size_t>(in.next());
    // CacheConfig.
    c.cache.sets = static_cast<std::size_t>(in.next());
    c.cache.ways = static_cast<std::size_t>(in.next());
    c.cache.lineSize = static_cast<std::size_t>(in.next());
    c.cache.hitLatency = static_cast<std::uint32_t>(in.next());
    c.cache.missLatency = static_cast<std::uint32_t>(in.next());
    // VulnConfig.
    c.vuln.meltdown = in.next() != 0;
    c.vuln.l1tf = in.next() != 0;
    c.vuln.mds = in.next() != 0;
    c.vuln.lazyFp = in.next() != 0;
    c.vuln.storeBypass = in.next() != 0;
    c.vuln.msr = in.next() != 0;
    c.vuln.taa = in.next() != 0;
    // HwDefenseConfig.
    c.defense.fenceSpeculativeLoads = in.next() != 0;
    c.defense.blockSpeculativeForwarding = in.next() != 0;
    c.defense.blockTaintedTransmit = in.next() != 0;
    c.defense.invisibleSpeculation = in.next() != 0;
    c.defense.cleanupSpec = in.next() != 0;
    c.defense.conditionalSpeculation = in.next() != 0;
    c.defense.partitionedCache = in.next() != 0;
    c.defense.flushPredictorOnContextSwitch = in.next() != 0;
    c.defense.noIndirectPrediction = in.next() != 0;
    c.defense.noBranchPrediction = in.next() != 0;
    c.defense.clearBuffersOnContextSwitch = in.next() != 0;
    c.defense.eagerFpuSwitch = in.next() != 0;
    c.defense.safeStoreBypass = in.next() != 0;
    // AttackOptions.
    o.channel = static_cast<core::CovertChannelKind>(in.next());
    o.secretLen = static_cast<std::size_t>(in.next());
    o.flushL1OnExit = in.next() != 0;
    o.kpti = in.next() != 0;
    o.rsbStuffing = in.next() != 0;
    o.softwareLfence = in.next() != 0;
    o.addressMasking = in.next() != 0;
    o.trainingRounds = static_cast<unsigned>(in.next());
    o.delayAuthorization = in.next() != 0;
    if (!in.done() || uarch::cacheGeometryError(c.cache) != nullptr ||
        v > std::numeric_limits<
                std::underlying_type_t<core::AttackVariant>>::max())
        return false;
    variant = static_cast<core::AttackVariant>(v);
    return core::ScenarioCatalog::instance().findAttack(variant) !=
           nullptr;
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

bool
parseShardRange(const std::string &text, ShardRange &shard)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size())
        return false;
    const auto parseField = [&text](std::size_t begin,
                                    std::size_t end,
                                    std::size_t &out) {
        std::size_t value = 0;
        if (begin == end)
            return false;
        for (std::size_t i = begin; i < end; ++i) {
            const char c = text[i];
            if (c < '0' || c > '9')
                return false;
            value = value * 10 + static_cast<std::size_t>(c - '0');
        }
        out = value;
        return true;
    };
    return parseField(0, slash, shard.index) &&
           parseField(slash + 1, text.size(), shard.count) &&
           shard.count > 0 && shard.index < shard.count;
}

ShardSelection
ExpandedGrid::shard(std::size_t index, std::size_t count) const
{
    if (count == 0)
        count = 1;
    ShardSelection sel;
    if (index >= count)
        return sel;
    // Round-robin over the deduplicated executions: unique position
    // j belongs to shard j % count.  Duplicates follow dupOf, so a
    // cell and the execution backing it always share a shard.
    for (std::size_t j = index; j < uniqueIndices.size();
         j += count)
        sel.uniquePositions.push_back(j);
    for (std::size_t i = 0; i < expanded.size(); ++i)
        if (dupOf[i] % count == index)
            sel.expandedIndices.push_back(i);
    return sel;
}

ExpandedGrid
dedupGrid(const ScenarioSpec &spec)
{
    ExpandedGrid g;
    g.expanded = expandGrid(spec);
    g.dupOf.resize(g.expanded.size());
    std::unordered_map<std::string, std::size_t> seen;
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
 * canonical key (one definition of "the same experiment"); result
 * and stats field-by-field.
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
           a.result.name == b.result.name &&
           a.result.recovered == b.result.recovered &&
           a.result.expected == b.result.expected &&
           a.result.accuracy == b.result.accuracy &&
           a.result.leaked == b.result.leaked &&
           a.result.guestCycles == b.result.guestCycles &&
           a.result.transientForwards ==
               b.result.transientForwards &&
           a.stats.cycles == b.stats.cycles &&
           a.stats.committed == b.stats.committed &&
           a.stats.squashed == b.stats.squashed &&
           a.stats.branchMispredicts == b.stats.branchMispredicts &&
           a.stats.exceptions == b.stats.exceptions &&
           a.stats.memOrderViolations ==
               b.stats.memOrderViolations &&
           a.stats.speculativeFills == b.stats.speculativeFills &&
           a.stats.transientForwards == b.stats.transientForwards;
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
    executedCount += other.executedCount;
    cacheHits += other.cacheHits;
    modelDecided += other.modelDecided;
    modelUndecided += other.modelUndecided;
    disagreements += other.disagreements;
    replicatedCells += other.replicatedCells;
    workers = std::max(workers, other.workers);
    // Shard wall-clocks add (they model separate processes); the
    // merged throughput is re-derived from the totals.
    wallMillis += other.wallMillis;
    scenariosPerSecond =
        wallMillis > 0.0
            ? 1000.0 * static_cast<double>(executedCount) /
                  wallMillis
            : 0.0;
    if (!partial()) {
        // Complete again: indistinguishable from a 1-process run.
        shardIndex = 0;
        shardCount = 1;
    }
    return true;
}

std::string
backendCacheKey(verdict::VerdictBackend backend,
                const std::string &key)
{
    // Simulator, Differential, Static and Triage all memoize
    // *simulated* entries, mutually compatible under the bare key
    // (Static's analyzer verdict is an annotation beside the
    // simulation, never cached).  Model entries are predictions, not
    // measurements: tag them so neither side can ever satisfy the
    // other's lookup.
    if (backend == verdict::VerdictBackend::Model)
        return "model|" + key;
    return key;
}

bool
executeKeyBatch(
    const std::vector<std::string> &keys, unsigned workers,
    ResultCache *cache,
    const std::function<bool(std::size_t, const KeyBatchItem &)>
        &emit,
    std::string *error)
{
    // Validate the whole batch before executing any of it: a
    // malformed key is a protocol/caller bug, not a per-cell
    // failure, and half-executed batches are hard to reason about.
    struct Parsed
    {
        core::AttackVariant variant{};
        CpuConfig config;
        AttackOptions options;
    };
    std::vector<Parsed> parsed(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (!parseScenarioKey(keys[i], parsed[i].variant,
                              parsed[i].config,
                              parsed[i].options)) {
            if (error)
                *error = "malformed scenario key at index " +
                         std::to_string(i);
            return false;
        }
    }

    if (workers == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        workers = hw > 0 ? hw : 1;
    }
    std::atomic<std::size_t> next{0};
    std::atomic<bool> cancelled{false};
    std::mutex failureMutex;
    std::string failure; // the first runner exception, if any
    const auto worker = [&]() {
        for (;;) {
            if (cancelled.load(std::memory_order_relaxed))
                return;
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= keys.size())
                return;
            KeyBatchItem item;
            if (cache) {
                if (const auto hit = cache->lookup(keys[i])) {
                    item.result = hit->result;
                    item.stats = hit->stats;
                    item.cached = true;
                }
            }
            if (!item.cached) {
                const auto t0 = std::chrono::steady_clock::now();
                try {
                    item.result = attacks::runVariant(
                        parsed[i].variant, parsed[i].config,
                        parsed[i].options, item.stats);
                } catch (const std::exception &e) {
                    // A key can parse yet name a machine the runner
                    // cannot build: fail the batch, not the process.
                    const std::lock_guard<std::mutex> lock(
                        failureMutex);
                    if (failure.empty())
                        failure = "key at index " +
                                  std::to_string(i) + ": " +
                                  e.what();
                    cancelled.store(true, std::memory_order_relaxed);
                    return;
                }
                item.wallMillis = millisSince(t0);
                if (cache)
                    cache->store(keys[i],
                                 {item.result, item.stats});
            }
            if (!emit(i, item))
                cancelled.store(true, std::memory_order_relaxed);
        }
    };
    if (workers <= 1 || keys.size() <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        const unsigned n = std::min<std::size_t>(
            workers, keys.size());
        pool.reserve(n);
        for (unsigned w = 0; w < n; ++w)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    if (!failure.empty() && error)
        *error = failure;
    return failure.empty();
}

unsigned
CampaignEngine::workers() const
{
    if (options_.workers > 0)
        return options_.workers;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
CampaignEngine::run(const ScenarioSpec &spec,
                    const std::vector<OutcomeSink *> &sinks,
                    ShardRange shard) const
{
    // Scenario build-path selection for this run (worker threads
    // read the process-wide mode): fork pooled snapshot arenas by
    // default, rebuild-from-scratch when the caller wants the
    // reference path for a byte-identity comparison.
    const attacks::ScenarioBuildModeGuard buildMode(
        options_.forkScenarios
            ? attacks::ScenarioBuildMode::Fork
            : attacks::ScenarioBuildMode::Rebuild);

    const ExpandedGrid grid = dedupGrid(spec);
    const ShardSelection sel = grid.shard(shard.index, shard.count);
    const unsigned nworkers = workers();

    // Expanded grid points grouped by the unique-execution position
    // that backs them, restricted to this shard: the emission list
    // of each completed execution.
    std::unordered_map<std::size_t, std::vector<std::size_t>>
        backedBy;
    backedBy.reserve(sel.uniquePositions.size());
    for (const std::size_t e : sel.expandedIndices)
        backedBy[grid.dupOf[e]].push_back(e);

    CampaignHeader header;
    header.name = spec.name;
    for (const core::AttackDescriptor *attack : resolveAttacks(spec))
        header.rowLabels.push_back(attack->name);
    for (const DefenseAxis &d : resolveDefenses(spec))
        header.colLabels.push_back(d.label);
    header.expandedCount = grid.expanded.size();
    header.uniqueCount = grid.uniqueIndices.size();
    header.gridIndices = sel.expandedIndices;
    header.shardUniqueCount = sel.uniquePositions.size();
    header.shardIndex = shard.index;
    header.shardCount = shard.count == 0 ? 1 : shard.count;
    header.workers = nworkers;
    for (OutcomeSink *sink : sinks)
        sink->begin(header);

    const verdict::VerdictBackend backend = options_.backend;

    // Triage replication classes: unique positions whose (variant,
    // config, canonical options) coincide are the same experiment to
    // the runner (the descriptor's canonicalOptions hook resets
    // exactly the AttackOptions fields the runner never reads), so
    // one member's simulation serves the whole class byte-for-byte.
    // Attacks without the hook form singleton classes.
    std::vector<std::vector<std::size_t>> classes;
    if (backend == verdict::VerdictBackend::Triage) {
        const core::ScenarioCatalog &catalog =
            core::ScenarioCatalog::instance();
        std::unordered_map<std::string, std::size_t> classOf;
        classOf.reserve(sel.uniquePositions.size());
        for (const std::size_t pos : sel.uniquePositions) {
            const Scenario &s =
                grid.expanded[grid.uniqueIndices[pos]];
            std::string ckey = s.key;
            const core::AttackDescriptor *d =
                catalog.findAttack(s.variant);
            if (d && d->canonicalOptions) {
                ckey = scenarioKey(s.variant, s.config,
                                   d->canonicalOptions(s.options));
            }
            const auto [it, fresh] =
                classOf.emplace(std::move(ckey), classes.size());
            if (fresh)
                classes.emplace_back();
            classes[it->second].push_back(pos);
        }
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> cacheHits{0};
    std::atomic<std::size_t> modelDecided{0};
    std::atomic<std::size_t> modelUndecided{0};
    std::atomic<std::size_t> disagreements{0};
    std::atomic<std::size_t> replicatedCells{0};
    ResultCache *const cache = options_.cache;

    // Stream one outcome per expanded grid point the execution at
    // @p pos backs, straight from the worker thread.  (.at():
    // lookups must not mutate the shared map.)
    const auto emit = [&](std::size_t pos, const AttackResult &result,
                          const CpuStats &stats, double wallMillis,
                          const core::ModelJudgement *judgement,
                          const char *agreement,
                          const verdict::StaticJudgement *rewrite =
                              nullptr) {
        for (const std::size_t e : backedBy.at(pos)) {
            const Scenario &dup = grid.expanded[e];
            ScenarioOutcome o;
            o.variant = dup.variant;
            o.row = dup.row;
            o.col = dup.col;
            o.gridIndex = dup.gridIndex;
            o.rowLabel = dup.rowLabel;
            o.colLabel = dup.colLabel;
            o.config = dup.config;
            o.options = dup.options;
            o.result = result;
            o.stats = stats;
            o.wallMillis = wallMillis;
            if (judgement) {
                o.modelVerdict =
                    core::modelVerdictName(judgement->verdict);
                o.evidence = judgement->evidence;
            }
            if (agreement)
                o.agreement = agreement;
            if (rewrite) {
                o.fencesInserted = rewrite->fencesInserted;
                o.masksInserted = rewrite->masksInserted;
                o.extraInstructions = rewrite->extraInstructions;
            }
            for (OutcomeSink *sink : sinks)
                sink->consume(o);
        }
    };

    /// Count one judged cell; @return the judgement.  Under the
    /// Static backend the verdict comes from the Fig. 9 program
    /// analyzer (and @p rewrite, when given, receives the applied
    /// program rewrite's overhead); every other backend asks the
    /// graph model.
    const auto judged = [&](const Scenario &s,
                            verdict::StaticJudgement *rewrite =
                                nullptr) {
        core::ModelJudgement j;
        if (backend == verdict::VerdictBackend::Static) {
            verdict::StaticJudgement sj = verdict::judgeScenarioStatic(
                s.variant, s.config, s.options);
            if (rewrite)
                *rewrite = sj;
            j = std::move(sj.judgement);
        } else {
            j = verdict::judgeScenario(s.variant, s.config,
                                       s.options);
        }
        (j.decided() ? modelDecided : modelUndecided)
            .fetch_add(1, std::memory_order_relaxed);
        return j;
    };

    // Simulate @p s with the shared cache under the bare key;
    // @return true when the result was served from the cache.
    const auto simulate = [&](const Scenario &s, AttackResult &result,
                              CpuStats &stats, double &wallMillis) {
        if (cache) {
            if (const auto hit = cache->lookup(s.key)) {
                result = hit->result;
                stats = hit->stats;
                cacheHits.fetch_add(1, std::memory_order_relaxed);
                return true;
            }
        }
        const auto s0 = std::chrono::steady_clock::now();
        result = attacks::runVariant(s.variant, s.config, s.options,
                                     stats);
        wallMillis = millisSince(s0);
        if (cache)
            cache->store(s.key, {result, stats});
        return false;
    };

    // Simulator / Model / Differential: one unique position per
    // work item.
    const auto worker = [&]() {
        for (;;) {
            const std::size_t n =
                next.fetch_add(1, std::memory_order_relaxed);
            if (n >= sel.uniquePositions.size())
                return;
            const std::size_t pos = sel.uniquePositions[n];
            const Scenario &s =
                grid.expanded[grid.uniqueIndices[pos]];

            if (backend == verdict::VerdictBackend::Model) {
                // Analysis only: never touches the simulator.  The
                // synthesized result carries the predicted leak bit
                // and nothing else; cache entries live under the
                // tagged key so they can never satisfy a simulator
                // lookup.
                const core::ModelJudgement j = judged(s);
                AttackResult result;
                CpuStats stats;
                const std::string mkey =
                    backendCacheKey(backend, s.key);
                bool cached = false;
                if (cache) {
                    if (const auto hit = cache->lookup(mkey)) {
                        result = hit->result;
                        stats = hit->stats;
                        cached = true;
                        cacheHits.fetch_add(
                            1, std::memory_order_relaxed);
                    }
                }
                if (!cached) {
                    result.name = s.rowLabel;
                    result.leaked = j.predictsLeak();
                    if (cache)
                        cache->store(mkey, {result, stats});
                }
                emit(pos, result, stats, 0.0, &j, nullptr);
                continue;
            }

            AttackResult result;
            CpuStats stats;
            double wallMillis = 0.0;
            simulate(s, result, stats, wallMillis);
            if (backend == verdict::VerdictBackend::Differential ||
                backend == verdict::VerdictBackend::Static) {
                verdict::StaticJudgement sj;
                const core::ModelJudgement j = judged(s, &sj);
                const char *agreement = "undecided";
                if (j.decided()) {
                    agreement =
                        j.predictsLeak() == result.leaked
                            ? "agree"
                            : "disagree";
                    if (j.predictsLeak() != result.leaked)
                        disagreements.fetch_add(
                            1, std::memory_order_relaxed);
                }
                emit(pos, result, stats, wallMillis, &j, agreement,
                     backend == verdict::VerdictBackend::Static
                         ? &sj
                         : nullptr);
            } else {
                emit(pos, result, stats, wallMillis, nullptr,
                     nullptr);
            }
        }
    };

    // Triage: one replication class per work item.  Every member is
    // judged (the counters below report the model's coverage); the
    // class is served by a cache hit or one simulated representative
    // and the rest replicate that entry verbatim.
    const auto triageWorker = [&]() {
        for (;;) {
            const std::size_t n =
                next.fetch_add(1, std::memory_order_relaxed);
            if (n >= classes.size())
                return;
            const std::vector<std::size_t> &members = classes[n];

            std::vector<core::ModelJudgement> judgements;
            judgements.reserve(members.size());
            bool conflict = false;
            bool sawDecided = false;
            bool decidedLeak = false;
            for (const std::size_t pos : members) {
                const Scenario &s =
                    grid.expanded[grid.uniqueIndices[pos]];
                judgements.push_back(judged(s));
                const core::ModelJudgement &j = judgements.back();
                if (!j.decided())
                    continue;
                if (sawDecided && decidedLeak != j.predictsLeak())
                    conflict = true;
                sawDecided = true;
                decidedLeak = j.predictsLeak();
            }

            // Cache pass: members already memoized emit directly and
            // the first hit doubles as the class representative.
            std::vector<std::size_t> missing;
            std::optional<ResultCache::Entry> have;
            for (std::size_t m = 0; m < members.size(); ++m) {
                const std::size_t pos = members[m];
                const Scenario &s =
                    grid.expanded[grid.uniqueIndices[pos]];
                bool cached = false;
                if (cache) {
                    if (const auto hit = cache->lookup(s.key)) {
                        emit(pos, hit->result, hit->stats, 0.0,
                             &judgements[m], nullptr);
                        cacheHits.fetch_add(
                            1, std::memory_order_relaxed);
                        if (!have)
                            have = *hit;
                        cached = true;
                    }
                }
                if (!cached)
                    missing.push_back(m);
            }
            if (missing.empty())
                continue;

            if (conflict) {
                // Soundness tripwire: decided verdicts disagreeing
                // inside one class would mean the canonicalization
                // folded two genuinely different experiments.
                // Should be unreachable; simulate every member
                // individually rather than replicate anything.
                for (const std::size_t m : missing) {
                    const std::size_t pos = members[m];
                    const Scenario &s =
                        grid.expanded[grid.uniqueIndices[pos]];
                    AttackResult result;
                    CpuStats stats;
                    double wallMillis = 0.0;
                    simulate(s, result, stats, wallMillis);
                    emit(pos, result, stats, wallMillis,
                         &judgements[m], nullptr);
                }
                continue;
            }

            std::size_t first = 0;
            if (!have) {
                // Simulate the class representative (first missing
                // member, stored under its own bare key only —
                // replicated entries are never stored, so the cache
                // stays a record of real executions).
                const std::size_t m = missing.front();
                const std::size_t pos = members[m];
                const Scenario &s =
                    grid.expanded[grid.uniqueIndices[pos]];
                AttackResult result;
                CpuStats stats;
                double wallMillis = 0.0;
                simulate(s, result, stats, wallMillis);
                emit(pos, result, stats, wallMillis, &judgements[m],
                     nullptr);
                have = ResultCache::Entry{result, stats};
                first = 1;
            }
            for (std::size_t i = first; i < missing.size(); ++i) {
                const std::size_t m = missing[i];
                emit(members[m], have->result, have->stats, 0.0,
                     &judgements[m], nullptr);
                replicatedCells.fetch_add(
                    1, std::memory_order_relaxed);
            }
        }
    };

    const bool triage = backend == verdict::VerdictBackend::Triage;
    const std::function<void()> work =
        triage ? std::function<void()>(triageWorker)
               : std::function<void()>(worker);
    // At most one thread per work item, however many were asked
    // for (header.workers still reports the request).
    const std::size_t nthreads = std::min<std::size_t>(
        nworkers, triage ? classes.size() : sel.uniquePositions.size());
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

    CampaignFooter footer;
    footer.cacheHits = cacheHits.load(std::memory_order_relaxed);
    footer.replicatedCells =
        replicatedCells.load(std::memory_order_relaxed);
    footer.executedCount = sel.uniquePositions.size() -
                           footer.cacheHits -
                           footer.replicatedCells;
    footer.modelDecided =
        modelDecided.load(std::memory_order_relaxed);
    footer.modelUndecided =
        modelUndecided.load(std::memory_order_relaxed);
    footer.disagreements =
        disagreements.load(std::memory_order_relaxed);
    footer.wallMillis = millisSince(t0);
    footer.scenariosPerSecond =
        footer.wallMillis > 0.0
            ? 1000.0 *
                  static_cast<double>(footer.executedCount) /
                  footer.wallMillis
            : 0.0;
    for (OutcomeSink *sink : sinks)
        sink->end(footer);
}

CampaignReport
CampaignEngine::run(const ScenarioSpec &spec) const
{
    return run(spec, ShardRange{});
}

CampaignReport
CampaignEngine::run(const ScenarioSpec &spec, ShardRange shard) const
{
    ReportSink sink;
    run(spec, {&sink}, shard);
    return sink.takeReport();
}

} // namespace specsec::campaign
