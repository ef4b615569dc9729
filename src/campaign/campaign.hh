/**
 * @file
 * Declarative, parallel scenario-sweep engine.
 *
 * The paper's central deliverables are matrices: which attack
 * variants succeed under which hardware defense strategies (Tables
 * II/III).  Instead of hand-writing one loop per experiment, a
 * ScenarioSpec declares a grid over
 *
 *     AttackVariant x defense axis x CpuConfig knob sweeps
 *                   x covert channel,
 *
 * and the CampaignEngine expands the grid, deduplicates identical
 * (variant, config, options) cells, and executes the unique
 * scenarios across a worker-thread pool.  Each worker owns its
 * Memory/PageTable/Cpu (the simulator is single-threaded per
 * instance; attacks::runVariant constructs a private Scenario per
 * call), so scenario execution is embarrassingly parallel and the
 * outcome of every cell is independent of scheduling.
 *
 * Every result field except the wall-clock timings is a pure
 * function of the cell's configuration, so a parallel run produces
 * byte-identical results (success matrix, per-cell outcomes, CSV
 * rows) to a serial run of the same spec.
 *
 * The engine itself owns no aggregation: outcomes stream into
 * OutcomeSinks (src/campaign/sink.hh) as workers complete them, and
 * report accumulation, incremental JSONL/CSV export and live
 * progress are all sinks.  Grids partition deterministically across
 * processes (ExpandedGrid::shard) into shard reports that merge back
 * bit-identically (CampaignReport::merge), and a ResultCache
 * persists to disk (persist.cc) so repeated runs skip unchanged
 * cells.
 */

#ifndef SPECSEC_CAMPAIGN_CAMPAIGN_HH
#define SPECSEC_CAMPAIGN_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "attacks/attack_kit.hh"
#include "core/catalog.hh"
#include "core/variants.hh"
#include "verdict/verdict.hh"

namespace specsec::campaign
{

using attacks::AttackOptions;
using attacks::AttackResult;
using uarch::CpuConfig;
using uarch::CpuStats;

/**
 * One named defense column of the sweep: a mutation applied to the
 * baseline CpuConfig/AttackOptions.  A null @c apply is the baseline
 * (no mutation).
 */
struct DefenseAxis
{
    std::string label;
    std::function<void(CpuConfig &, AttackOptions &)> apply;
};

/**
 * Software-mitigation grid dimension: a named set of AttackOptions
 * toggles (the Table II software fixes).  Data-only so a sweep entry
 * is fully described by its fields; toggles are OR-ed into the
 * baseline options, never cleared.
 */
struct SoftwareMitigation
{
    std::string label = "none";

    /// The toggle set (core::MitigationToggles, the same data a
    /// MitigationDescriptor carries — one definition of the sweep
    /// semantics).
    core::MitigationToggles toggles;

    void applyTo(AttackOptions &options) const
    {
        toggles.applyTo(options);
    }

    /** Sweep value for a cataloged MitigationDescriptor: its name
     *  becomes the label, its toggles copy over. */
    static SoftwareMitigation
    fromCatalog(const core::MitigationDescriptor &descriptor);

    /** fromCatalog() by registry name/alias; nullopt when unknown
     *  (callers print ScenarioCatalog::mitigationSuggestions). */
    static std::optional<SoftwareMitigation>
    byName(const std::string &name);
};

/**
 * VulnConfig-ablation grid dimension: which transient forwarding
 * paths the simulated core has.  Sweeping ablations shows every
 * Meltdown-type attack dying exactly when its path is removed.
 */
struct VulnAblation
{
    std::string label = "all-paths";
    uarch::VulnConfig vuln;
};

/** Cache-geometry grid dimension (sets/ways/line/latency sweeps). */
struct CacheGeometry
{
    std::string label = "default";
    uarch::CacheConfig cache;
};

/** Declarative description of a campaign grid. */
struct ScenarioSpec
{
    std::string name = "campaign";

    /// Rows by enum slot.  When both this and @c attackNames are
    /// empty, the rows are every catalog attack with an enumerator
    /// (== core::allVariants(); registered extensions only join a
    /// grid that names them).
    std::vector<core::AttackVariant> variants;

    /// Extra rows resolved from the ScenarioCatalog by name or
    /// alias — the open extension seam: attacks registered at
    /// startup (including out-of-tree ones with no AttackVariant
    /// value) join the grid like any built-in.  Appended after
    /// @c variants; unknown names make gridSize()/expandGrid()
    /// throw std::invalid_argument with did-you-mean suggestions.
    std::vector<std::string> attackNames;

    /// Columns.  Empty means a single baseline column.
    std::vector<DefenseAxis> defenses;

    /// Baseline configuration every cell starts from.
    CpuConfig baseConfig;
    AttackOptions baseOptions;

    /// @name Knob sweeps (cartesian with rows x columns).
    /// An empty vector means "the baseline value only".
    /// @{
    std::vector<SoftwareMitigation> mitigations;
    std::vector<VulnAblation> vulnAblations;
    std::vector<CacheGeometry> cacheGeometries;
    std::vector<std::size_t> robSizes;
    std::vector<unsigned> permCheckLatencies;
    std::vector<core::CovertChannelKind> channels;
    /// @}

    /// Number of grid points before deduplication.
    std::size_t gridSize() const;

    /**
     * The paper's defense matrix (the sweep previously hand-rolled
     * in examples/defense_matrix.cpp): every variant except Spoiler
     * against the baseline plus the seven hardware defense strategy
     * realizations of Sections V-B/V-C.
     */
    static ScenarioSpec defenseMatrix();
};

/** One fully expanded cell of the grid. */
struct Scenario
{
    core::AttackVariant variant{};
    CpuConfig config;
    AttackOptions options;
    std::size_t row = 0;       ///< variant index in the spec
    std::size_t col = 0;       ///< defense index in the spec
    std::size_t gridIndex = 0; ///< position in expansion order
    std::string rowLabel;
    std::string colLabel;
    std::string key; ///< canonical dedup key (scenarioKey())
};

/**
 * Canonical serialization of everything that determines a run's
 * outcome.  Two grid points with equal keys are the same experiment
 * and are executed once.  The variant, then every field of CpuConfig
 * (including nested CacheConfig / VulnConfig / HwDefenseConfig) and
 * AttackOptions in attacks::forEachKnob order: the one knob list,
 * which a sizeof tripwire makes grow with those structs.  Each field
 * is decimal and ';'-terminated.  The fields are written into one
 * stack buffer wide enough for every field at 20 digits (its size
 * follows the knob list's row count), so a key is one allocation at
 * its final length.
 */
std::string scenarioKey(core::AttackVariant variant,
                        const CpuConfig &config,
                        const AttackOptions &options);

/**
 * Invert scenarioKey(): reconstruct the (variant, config, options)
 * triple from its canonical key.  The key is the wire encoding of a
 * scenario's configuration in shard report files (src/tool/
 * report_io) — one string instead of 47 named fields.  It reads the
 * same knob list scenarioKey() writes, and re-serializes what it
 * read with scenarioKey()'s writer into a stack buffer, allocating
 * nothing, to check the key is canonical.
 *
 * @return false when @p key is not a well-formed scenario key, is
 *         not the canonical key of what it parses to (a field past
 *         its type, a leading zero, a bool field other than 0/1),
 *         names a cache geometry uarch::cacheGeometryError() rejects
 *         (so a hostile key cannot reach the Cache constructor),
 *         names a covert channel past PrimeProbe, or names a
 *         variant id the ScenarioCatalog does not know.
 */
bool parseScenarioKey(const std::string &key,
                      core::AttackVariant &variant,
                      CpuConfig &config, AttackOptions &options);

/**
 * Expand @p spec into scenarios in deterministic row-major order:
 * variant (outer), defense, robSize, permCheckLatency, channel
 * (inner).
 *
 * @throws std::invalid_argument naming the geometry and column when
 *         a cell's cache geometry fails uarch::cacheGeometryError(),
 *         so a bad grid fails before any worker starts.
 */
std::vector<Scenario> expandGrid(const ScenarioSpec &spec);

/** One shard of a partitioned grid: shard @c index of @c count. */
struct ShardRange
{
    std::size_t index = 0;
    std::size_t count = 1;
};

/** Grid expansion with duplicate cells folded onto one execution. */
struct ExpandedGrid
{
    std::vector<Scenario> expanded; ///< every grid point, grid order

    /// Indices into @c expanded of the first occurrence of each
    /// distinct key, in grid order: the scenarios actually executed.
    std::vector<std::size_t> uniqueIndices;

    /// For every expanded index, the position in @c uniqueIndices of
    /// the execution that produces its result.
    std::vector<std::size_t> dupOf;

    /**
     * Deterministic, dedup-stable partition for multi-process runs:
     * unique execution j goes to shard j % count (round-robin over
     * the deduplicated work, so shards balance even when duplicates
     * cluster), and every expanded grid point follows the shard of
     * its backing unique execution — a duplicate cell is never split
     * from the execution that produces its result.  The union of all
     * shards is the whole grid; shards are pairwise disjoint;
     * shard(0, 1) selects everything.
     *
     * @return the indices into @c expanded whose results shard
     *         @p index of @p count produces, ascending (grid order);
     *         none when @p index >= @p count.
     */
    std::vector<std::size_t> shard(std::size_t index,
                                   std::size_t count) const;
};

/**
 * expandGrid(@p spec), with equal keys folded onto their first
 * occurrence.  Dedup looks keys up as std::string_views into
 * @c expanded[i].key, so it copies no key: a cell's heap work is
 * its key, plus one map node when the key is new.
 */
ExpandedGrid dedupGrid(const ScenarioSpec &spec);

/**
 * The grid of an explicit list of canonical scenarioKey()s — the
 * wire encoding of "which experiments to run" (src/serve/
 * protocol.hh): one point per key, in key order, with no dedup, so
 * point i's gridIndex is i.  Points carry no row, column or labels.
 *
 * @return nullopt, with "malformed scenario key at index N" in
 *         @p error, when key N fails parseScenarioKey(): a batch is
 *         refused whole, before anything executes.
 */
std::optional<ExpandedGrid>
gridFromKeys(const std::vector<std::string> &keys,
             std::string *error = nullptr);

/**
 * Cross-campaign memo of executed scenarios, keyed on scenarioKey().
 * dedupGrid() folds duplicates *within* one spec; the cache folds
 * them *across* campaigns: CI regression matrices and overlapping
 * specs (e.g. every spec's baseline column) execute each distinct
 * cell once per process.  Thread-safe; a CampaignEngine given a
 * cache consults it before executing and stores every fresh result.
 *
 * Because every cached field is a pure function of the key, hitting
 * the cache cannot change any timing-free export.
 */
class ResultCache
{
  public:
    struct Entry
    {
        AttackResult result;
        CpuStats stats;
    };

    /** @return the memoized entry for @p key, if present. */
    std::optional<Entry> lookup(const std::string &key) const;

    /** Memoize @p entry under @p key (first write wins). */
    void store(const std::string &key, const Entry &entry);

    /** Distinct scenarios memoized so far. */
    std::size_t size() const;

    /** @name Lifetime lookup counters. @{ */
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    /// @}

    void clear();

    /** Every entry, sorted by key (deterministic save files). */
    std::vector<std::pair<std::string, Entry>> snapshot() const;

    /**
     * @name Disk persistence (implemented in persist.cc).
     *
     * The cache survives the process as a versioned JSON file so
     * repeated CI and local runs skip unchanged cells.  Entries are
     * only trusted when the file's fingerprint equals the caller's
     * (see modelFingerprint()): a stale fingerprint, a corrupt or
     * truncated file, or a missing file all load nothing and return
     * false — never fatal, the run just starts cold.  Saving writes
     * a temp file and renames it into place, so a concurrent reader
     * (or a crash mid-save) sees the old file or the new one, never
     * a torn write.
     *
     * Saves normally load-merge-save under a sibling ".lock" file
     * so concurrent writers union their entries.  When that lock
     * cannot even be created (read-only directory, ENOSPC), the
     * save falls back to the unlocked atomic write and reports why
     * in @p lockWarning — degraded, never silent.
     * @{
     */
    bool loadFromFile(const std::string &path,
                      const std::string &fingerprint,
                      std::string *error = nullptr);
    bool saveToFile(const std::string &path,
                    const std::string &fingerprint,
                    std::string *error = nullptr,
                    std::string *lockWarning = nullptr) const;
    /// @}

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, Entry> entries_;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
};

/**
 * Fingerprint of the simulated model for cache invalidation: any
 * change to the shape *or defaults* of CpuConfig / AttackOptions
 * (captured by the canonical key of a default-configured scenario,
 * which serializes every field) or to the result/stats structs
 * invalidates persisted caches.  Deliberate semantic changes that
 * keep every struct identical must bump the version constant inside.
 */
std::string modelFingerprint();

/** Outcome of one grid cell. */
struct ScenarioOutcome
{
    core::AttackVariant variant{};
    std::size_t row = 0;
    std::size_t col = 0;
    std::size_t gridIndex = 0;
    std::string rowLabel;
    std::string colLabel;
    /// The exact configuration the cell ran under, so exports are
    /// self-contained (knob sweeps differ only here).
    CpuConfig config;
    AttackOptions options;
    AttackResult result;
    CpuStats stats;
    /// Wall time of the unique execution backing this cell; exactly
    /// 0 for an outcome the engine did not execute (a cache hit, a
    /// triage replica, a model synthesis).  Machine- and
    /// scheduling-dependent: excluded from the deterministic exports
    /// (resultsCsv / success matrix).
    double wallMillis = 0.0;

    /// @name Verdict-backend annotations (src/verdict/).
    ///
    /// Empty under the plain simulator backend.  Every other backend
    /// fills modelVerdict ("leak" / "blocked" / "inapplicable" /
    /// "undecided") and its evidence line; the differential and
    /// static backends also set agreement ("agree" / "disagree"
    /// when the verdict is decided, "undecided" otherwise).
    /// Annotations, not results: specsec_regress builds its
    /// disagreement pins from them, shard reports carry them when
    /// set, and no JSON/CSV/JSONL export shows them, which keeps
    /// the simulating backends' exports byte-identical; shard-merge
    /// conflict detection ignores them, exactly like wallMillis.
    /// @{
    std::string modelVerdict;
    std::string agreement;
    std::string evidence;
    /// @}
};

/**
 * What a run is, known before its first cell executes: the spec, its
 * full-grid shape and which shard of it the run covers.  The streamed
 * header (CampaignHeader) and the collected report share it.
 */
struct RunInfo
{
    std::string name;
    std::vector<std::string> rowLabels;
    std::vector<std::string> colLabels;

    /// Full-grid counts, identical across every shard of one spec.
    std::size_t expandedCount = 0;
    std::size_t uniqueCount = 0;
    /// Which shard this run is (0 of 1 = the whole grid).
    std::size_t shardIndex = 0;
    std::size_t shardCount = 1;
    unsigned workers = 1;
};

/**
 * Run provenance, known only after the worker pool drains.  The
 * streamed footer (CampaignFooter) and the collected report share it.
 */
struct RunCounters
{
    /// Unique cells actually executed this run (this shard's unique
    /// share minus result-cache hits).
    std::size_t executedCount = 0;
    /// Unique cells served from the engine's ResultCache.
    std::size_t cacheHits = 0;
    double wallMillis = 0.0;

    /// @name Verdict-backend counters (src/verdict/); all zero under
    /// the plain simulator backend.
    /// @{

    /// Unique cells the analytic model (the analyzer under Static)
    /// decided (leak / blocked / inapplicable).
    std::size_t modelDecided = 0;
    /// Unique cells it left undecided: Model reports them as not
    /// leaked, every other backend emits the simulated result
    /// unchecked.
    std::size_t modelUndecided = 0;
    /// Differential and Static: unique cells where a decided verdict
    /// contradicted the simulator's leak bit.
    std::size_t disagreements = 0;
    /// Triage only: unique cells served by replicating the simulated
    /// result of an options-canonicalization classmate instead of
    /// executing (executedCount excludes them).
    std::size_t replicatedCells = 0;
    /// @}

    /** Executed scenarios per second of wall time (0 without any). */
    double scenariosPerSecond() const
    {
        return wallMillis > 0.0
                   ? 1000.0 * static_cast<double>(executedCount) /
                         wallMillis
                   : 0.0;
    }
};

/** Aggregated results of a campaign (possibly one shard of one). */
struct CampaignReport : RunInfo, RunCounters
{
    /// One outcome per grid point this report covers, grid order
    /// (deduplicated cells share the result of their unique
    /// execution).  A full report covers every expanded grid point;
    /// a shard report covers its shard's subset, each outcome still
    /// carrying its full-grid @c gridIndex so shards merge back
    /// losslessly.
    std::vector<ScenarioOutcome> outcomes;

    /// Per (row, col) cell: grid points landing in the cell and how
    /// many of them leaked.  Knob sweeps put several runs per cell.
    std::vector<std::vector<unsigned>> cellRuns;
    std::vector<std::vector<unsigned>> cellLeaks;

    /// True while outcomes cover only part of the expanded grid.
    bool partial() const { return outcomes.size() != expandedCount; }

    /**
     * Fold @p other (another shard of the same spec) into this
     * report: outcomes are unioned and re-sorted into grid order,
     * per-cell counts recomputed, provenance counters summed.  After
     * the last shard lands the merged report is indistinguishable —
     * byte-identical in every timing-free export — from a
     * single-process run of the whole spec.
     *
     * Shard counts may be heterogeneous: a 3-shard and a 2-shard run
     * of the same spec cover overlapping gridIndices, and every
     * timing-free result field is a pure function of the cell's
     * configuration, so an outcome present in both reports is
     * accepted (first occurrence kept) when the two agree on
     * everything but wall time.  Provenance counters still sum, so
     * executedCount can exceed uniqueCount after an overlapping
     * merge — the overlap really was executed twice.
     *
     * Conflicts are detected, not absorbed: mismatched spec name,
     * row/column labels or grid shape, and two reports claiming the
     * same gridIndex with *different* results fail the merge with a
     * message in @p error and leave this report unchanged.
     */
    bool merge(const CampaignReport &other,
               std::string *error = nullptr);

    /** Rebuild cellRuns/cellLeaks from the outcomes present. */
    void recomputeCells();

    /**
     * 'L' when every run in the cell leaked, '.' when none did, 'p'
     * when mixed, ' ' when the cell is empty.
     */
    char cellGlyph(std::size_t row, std::size_t col) const;

    /** Deterministic text rendering of the success matrix. */
    std::string successMatrixText() const;
};

/** How CampaignReport::merge folds one scalar of another shard. */
enum class ScalarFold
{
    Keep, ///< grid shape (checked equal) and shard identity
    Sum,  ///< provenance counters; shard wall-clocks add up too
    Max,  ///< workers
};

/**
 * The report's scalar fields in shard-wire order: calls
 * @p visit(name, member pointer, fold) on each.  tool::shardReportJson
 * writes, tool::parseShardReportJson reads and CampaignReport::merge
 * folds through this one list.
 */
template <typename Visit>
void
forEachReportScalar(Visit &&visit)
{
    visit("expandedCount", &CampaignReport::expandedCount,
          ScalarFold::Keep);
    visit("uniqueCount", &CampaignReport::uniqueCount, ScalarFold::Keep);
    visit("shardIndex", &CampaignReport::shardIndex, ScalarFold::Keep);
    visit("shardCount", &CampaignReport::shardCount, ScalarFold::Keep);
    visit("executedCount", &CampaignReport::executedCount,
          ScalarFold::Sum);
    visit("cacheHits", &CampaignReport::cacheHits, ScalarFold::Sum);
    visit("modelDecided", &CampaignReport::modelDecided, ScalarFold::Sum);
    visit("modelUndecided", &CampaignReport::modelUndecided,
          ScalarFold::Sum);
    visit("disagreements", &CampaignReport::disagreements,
          ScalarFold::Sum);
    visit("replicatedCells", &CampaignReport::replicatedCells,
          ScalarFold::Sum);
    visit("workers", &CampaignReport::workers, ScalarFold::Max);
    visit("wallMillis", &CampaignReport::wallMillis, ScalarFold::Sum);
}

class OutcomeSink;     // src/campaign/sink.hh
struct CampaignHeader; // src/campaign/sink.hh

/**
 * The parallel campaign executor: a thin driver that expands and
 * deduplicates a spec (or takes a ready grid, such as a `serve`
 * submit's gridFromKeys()), executes (its shard of) the unique
 * scenarios on the worker pool, and streams every ScenarioOutcome
 * into the caller's OutcomeSinks as its backing execution
 * completes.  All aggregation — report accumulation, incremental
 * JSONL/CSV export, live progress — lives in sinks
 * (src/campaign/sink.hh, src/tool/stream_export.hh), not in the
 * engine.
 */
class CampaignEngine
{
  public:
    struct Options
    {
        /// Worker threads; 0 means std::thread::hardware_concurrency.
        unsigned workers = 0;

        /// Optional cross-campaign result cache (not owned).  Cells
        /// whose scenarioKey() is already memoized are not
        /// re-executed; fresh results are stored back.
        ResultCache *cache = nullptr;

        /// How each unique cell gets its verdict (src/verdict/):
        /// simulate (default), judge analytically, do both and flag
        /// disagreement, or triage — simulate (or take from the
        /// cache) one cell per class of cells with equal
        /// canonicalOptions keys and replicate its result to the
        /// rest, judging every cell only to count and
        /// annotate (and to simulate every member of a class whose
        /// decided verdicts disagree).
        /// Simulator, Differential, Static and Triage produce
        /// byte-identical timing-free exports; Model synthesizes
        /// results from verdicts alone (leak bit = predicted
        /// verdict, accuracy and counters zero) and neither reads
        /// nor writes the result cache, which holds only
        /// simulations.
        verdict::VerdictBackend backend =
            verdict::VerdictBackend::Simulator;
    };

    CampaignEngine() = default;
    explicit CampaignEngine(Options options) : options_(options) {}

    /** Resolved worker count (>= 1). */
    unsigned workers() const;

    /**
     * Execute shard @p shard of @p spec: the run below of
     * dedupGrid(@p spec) under runHeader()'s header for that shard.
     */
    void run(const ScenarioSpec &spec,
             const std::vector<OutcomeSink *> &sinks,
             ShardRange shard = {}) const;

    /**
     * Execute the grid points @p header announces (its gridIndices,
     * ascending positions into @p grid.expanded), each unique
     * execution once, streaming outcomes into @p sinks.  Each sink
     * sees begin(@p header) once, then consume() once per announced
     * grid point — from any worker thread, in completion order —
     * then end() once after the pool drains.  Offline runs and
     * `serve` submits both execute here.
     *
     * Anything a step throws stops the pool and is rethrown here
     * after every worker has joined; the sinks never see end().  A
     * runner's failure (a cell whose machine cannot be built, such
     * as a ROB past std::vector::max_size()) comes back as
     * std::runtime_error("grid index N: " + its what()), N being
     * the failed execution's gridIndex.  An exception a sink throws
     * from consume() comes back as itself: a sink cancels a run
     * that way.
     */
    void run(const ExpandedGrid &grid, const CampaignHeader &header,
             const std::vector<OutcomeSink *> &sinks) const;

    /** Expand, deduplicate and execute shard @p shard of @p spec
     *  into a report (through a ReportSink). */
    CampaignReport run(const ScenarioSpec &spec,
                       ShardRange shard = {}) const;

  private:
    Options options_;
};

} // namespace specsec::campaign

#endif // SPECSEC_CAMPAIGN_CAMPAIGN_HH
