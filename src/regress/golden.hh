/**
 * @file
 * Golden success-matrix regression gate.
 *
 * The paper's core results are success matrices: which attack
 * variants leak under which defenses (Tables II/III).  A reproduction
 * is only trustworthy if those matrices cannot drift silently as the
 * codebase grows, so each named campaign spec (src/regress/specs.hh)
 * pins its matrix as a golden JSON file under golden/.  The gate
 * re-runs the spec, compares cell-by-cell, and renders a
 * human-readable diff naming every changed (variant, defense) cell.
 *
 * A spec that declares an accuracy tolerance (NamedSpec::accuracyEps,
 * src/regress/specs.hh) also pins each grid point's attack accuracy,
 * compared under the absolute tolerance (absEps) recorded in the
 * golden file — accuracy drift beyond the tolerance fails the gate
 * with a line naming the grid point, both values and the delta.
 * Goldens without accuracy arrays compare runs, leaks and patterns
 * only.
 */

#ifndef SPECSEC_REGRESS_GOLDEN_HH
#define SPECSEC_REGRESS_GOLDEN_HH

#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"

namespace specsec::regress
{

/** One (variant, defense) cell: grid points run and how many leaked. */
struct GoldenCell
{
    unsigned runs = 0;
    unsigned leaks = 0;
    /// Per-grid-point leak bits ('1'/'0') in expansion order.  Cells
    /// aggregating a knob sweep (mitigations, vuln ablations, cache
    /// geometries, ...) would otherwise pin only the leak *count*: a
    /// regression that swaps WHICH sweep value leaks while keeping
    /// the total would pass.  The pattern pins the full shape.
    std::string pattern;

    /// Per-grid-point attack accuracy (AttackResult::accuracy),
    /// expansion order, parallel to @c pattern: one value per run
    /// when the matrix pins accuracy, empty otherwise.  Compared
    /// under the matrix's explicit absEps tolerance, so partially-
    /// leaking cells pin their accuracy *values*, not just counts.
    std::vector<double> accuracy;

    bool operator==(const GoldenCell &) const = default;
};

/** The persisted contract of one named campaign spec. */
struct GoldenMatrix
{
    std::string spec;
    std::vector<std::string> rows;
    std::vector<std::string> cols;
    /// cells[r][c] pairs rows[r] with cols[c].
    std::vector<std::vector<GoldenCell>> cells;

    /// True when this golden pins accuracy values: recorded for a
    /// spec with a nonzero NamedSpec::accuracyEps, read from a file
    /// with an "absEps" key.
    bool hasAccuracy = false;

    /// Absolute tolerance for accuracy comparisons, recorded in the
    /// golden file itself ("absEps") so the gate's contract is
    /// explicit and per-spec.
    double absEps = 0.0;

    /**
     * Build from a report; @p with_accuracy additionally captures
     * each grid point's accuracy (the caller sets absEps: the
     * spec's tolerance when recording, the golden's when checking).
     */
    static GoldenMatrix
    fromReport(const campaign::CampaignReport &report,
               bool with_accuracy = false);
};

/**
 * Serialize as stable, line-per-row JSON: byte-identical for equal
 * matrices, so goldens diff cleanly under version control.
 */
std::string goldenJson(const GoldenMatrix &matrix);

/**
 * Parse goldenJson() output (a strict subset of JSON: objects,
 * arrays, strings, unsigned integers).  @return nullopt on malformed
 * input, with a position-tagged message in @p error when given.
 */
std::optional<GoldenMatrix>
parseGoldenJson(const std::string &text,
                std::string *error = nullptr);

/** One drifted cell: present-but-different, added, or removed. */
struct CellDiff
{
    std::string row;
    std::string col;
    std::optional<GoldenCell> golden; ///< nullopt: cell is new
    std::optional<GoldenCell> actual; ///< nullopt: cell disappeared

    /// Human-readable accuracy drift, one line per out-of-tolerance
    /// value, naming the grid point, both values, the delta and the
    /// tolerance it exceeded.
    std::vector<std::string> accuracyNotes;
};

/** Everything that changed between a golden and a fresh run. */
struct MatrixDiff
{
    /// Shape changes: added/removed row or column labels.
    std::vector<std::string> structural;
    std::vector<CellDiff> cells;

    bool empty() const
    {
        return structural.empty() && cells.empty();
    }
};

/**
 * Cell-by-cell comparison.  Rows/columns are matched by label (not
 * index) so a pure reordering reports no cell drift; labels present
 * on only one side become structural notes plus per-cell entries.
 * Runs/leaks/patterns compare exactly; when @p golden pins accuracy
 * values they compare under its absEps (|golden - actual| <= eps
 * per grid point), and each violation is named in the cell's
 * accuracyNotes.
 */
MatrixDiff compareGolden(const GoldenMatrix &golden,
                         const GoldenMatrix &actual);

/** Human-readable rendering, one line per change. */
std::string renderDiff(const MatrixDiff &diff);

} // namespace specsec::regress

#endif // SPECSEC_REGRESS_GOLDEN_HH
