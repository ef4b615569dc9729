#include "golden.hh"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "tool/jsonio.hh"
#include "tool/report.hh"
#include "tool/schema.hh"

namespace specsec::regress
{

namespace
{

// The strict JSON subset goldenJson() emits is read back with the
// tree-wide cursor shared by every persisted-artifact parser.
using tool::json::Cursor;
using tool::json::parseStringArray;

GoldenCell
parseCell(Cursor &cur)
{
    GoldenCell cell;
    if (!cur.expect('{'))
        return cell;
    do {
        const std::string key = cur.parseString();
        if (!cur.expect(':'))
            return cell;
        if (key == "runs")
            cell.runs = cur.parseUnsigned();
        else if (key == "leaks")
            cell.leaks = cur.parseUnsigned();
        else if (key == "pattern")
            cell.pattern = cur.parseString();
        else if (key == "accuracy") {
            cell.accuracy.clear();
            if (!cur.expect('['))
                return cell;
            if (!cur.peekConsume(']')) {
                do {
                    cell.accuracy.push_back(cur.parseDouble());
                } while (!cur.failed() && cur.peekConsume(','));
                if (!cur.expect(']'))
                    return cell;
            }
        } else {
            cur.fail("unknown cell key '" + key + "'");
            return cell;
        }
    } while (!cur.failed() && cur.peekConsume(','));
    cur.expect('}');
    return cell;
}

std::string
describeCell(const std::optional<GoldenCell> &cell)
{
    if (!cell)
        return "(absent)";
    char buf[48];
    std::snprintf(buf, sizeof buf, "%u/%u leaks", cell->leaks,
                  cell->runs);
    std::string out = buf;
    if (cell->runs > 1 && !cell->pattern.empty())
        out += " [" + cell->pattern + "]";
    return out;
}

} // namespace

GoldenMatrix
GoldenMatrix::fromReport(const campaign::CampaignReport &report,
                         bool with_accuracy)
{
    GoldenMatrix m;
    m.spec = report.name;
    m.rows = report.rowLabels;
    m.cols = report.colLabels;
    m.hasAccuracy = with_accuracy;
    m.cells.resize(m.rows.size());
    for (std::size_t r = 0; r < m.rows.size(); ++r) {
        m.cells[r].resize(m.cols.size());
        for (std::size_t c = 0; c < m.cols.size(); ++c) {
            m.cells[r][c].runs = report.cellRuns[r][c];
            m.cells[r][c].leaks = report.cellLeaks[r][c];
        }
    }
    // Outcomes are in deterministic grid-expansion order, so the
    // per-cell patterns (and accuracy arrays) are a stable
    // fingerprint of which knob values leaked, and how well.
    for (const campaign::ScenarioOutcome &o : report.outcomes) {
        GoldenCell &cell = m.cells[o.row][o.col];
        cell.pattern += o.result.leaked ? '1' : '0';
        if (with_accuracy)
            cell.accuracy.push_back(o.result.accuracy);
    }
    return m;
}

std::string
goldenJson(const GoldenMatrix &matrix)
{
    std::ostringstream os;
    os << "{\n  \"spec\": \"" << tool::jsonEscape(matrix.spec)
       << "\",\n";
    if (matrix.hasAccuracy)
        os << "  \"absEps\": "
           << tool::shortestExactDouble(matrix.absEps) << ",\n";
    os << "  \"cols\": [";
    for (std::size_t c = 0; c < matrix.cols.size(); ++c)
        os << (c ? ", " : "") << "\""
           << tool::jsonEscape(matrix.cols[c]) << "\"";
    os << "],\n  \"rows\": [";
    for (std::size_t r = 0; r < matrix.rows.size(); ++r)
        os << (r ? ", " : "") << "\""
           << tool::jsonEscape(matrix.rows[r]) << "\"";
    os << "],\n  \"cells\": [";
    for (std::size_t r = 0; r < matrix.cells.size(); ++r) {
        os << (r ? "," : "") << "\n    [";
        for (std::size_t c = 0; c < matrix.cells[r].size(); ++c) {
            const GoldenCell &cell = matrix.cells[r][c];
            os << (c ? ", " : "") << "{\"runs\": " << cell.runs
               << ", \"leaks\": " << cell.leaks
               << ", \"pattern\": \""
               << tool::jsonEscape(cell.pattern) << "\"";
            if (!cell.accuracy.empty()) {
                os << ", \"accuracy\": [";
                for (std::size_t i = 0; i < cell.accuracy.size(); ++i)
                    os << (i ? ", " : "")
                       << tool::shortestExactDouble(cell.accuracy[i]);
                os << "]";
            }
            os << "}";
        }
        os << "]";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

std::optional<GoldenMatrix>
parseGoldenJson(const std::string &text, std::string *error)
{
    Cursor cur(text);
    GoldenMatrix m;
    const auto failed = [&]() -> std::optional<GoldenMatrix> {
        if (error)
            *error = cur.error();
        return std::nullopt;
    };

    if (!cur.expect('{'))
        return failed();
    bool sawCells = false;
    do {
        const std::string key = cur.parseString();
        if (cur.failed() || !cur.expect(':'))
            return failed();
        if (key == "spec") {
            m.spec = cur.parseString();
        } else if (key == "absEps") {
            m.absEps = cur.parseDouble();
            m.hasAccuracy = true;
        } else if (key == "cols") {
            m.cols = parseStringArray(cur);
        } else if (key == "rows") {
            m.rows = parseStringArray(cur);
        } else if (key == "cells") {
            sawCells = true;
            if (!cur.expect('['))
                return failed();
            if (!cur.peekConsume(']')) {
                do {
                    std::vector<GoldenCell> row;
                    if (!cur.expect('['))
                        return failed();
                    if (!cur.peekConsume(']')) {
                        do {
                            row.push_back(parseCell(cur));
                        } while (!cur.failed() &&
                                 cur.peekConsume(','));
                        if (!cur.expect(']'))
                            return failed();
                    }
                    m.cells.push_back(std::move(row));
                } while (!cur.failed() && cur.peekConsume(','));
                if (!cur.expect(']'))
                    return failed();
            }
        } else {
            cur.fail("unknown key '" + key + "'");
            return failed();
        }
    } while (!cur.failed() && cur.peekConsume(','));
    if (cur.failed() || !cur.expect('}'))
        return failed();
    if (!cur.atEnd()) {
        cur.fail("trailing content after golden object");
        return failed();
    }
    if (!sawCells) {
        cur.fail("golden has no \"cells\" key");
        return failed();
    }
    if (m.cells.size() != m.rows.size()) {
        cur.fail("cells row count does not match rows");
        return failed();
    }
    for (const auto &row : m.cells) {
        if (row.size() != m.cols.size()) {
            cur.fail("cells column count does not match cols");
            return failed();
        }
    }
    for (const auto &row : m.cells) {
        for (const GoldenCell &cell : row) {
            if (!m.hasAccuracy && !cell.accuracy.empty()) {
                cur.fail("cell has accuracy values but the golden "
                         "declares no absEps tolerance");
                return failed();
            }
            if (m.hasAccuracy && cell.accuracy.size() != cell.runs) {
                cur.fail("cell accuracy array has " +
                         std::to_string(cell.accuracy.size()) +
                         " values for " + std::to_string(cell.runs) +
                         " runs");
                return failed();
            }
        }
    }
    return m;
}

MatrixDiff
compareGolden(const GoldenMatrix &golden, const GoldenMatrix &actual)
{
    MatrixDiff diff;

    const auto indexOf = [](const std::vector<std::string> &labels) {
        std::map<std::string, std::size_t> index;
        for (std::size_t i = 0; i < labels.size(); ++i)
            index.emplace(labels[i], i);
        return index;
    };
    const auto goldenRows = indexOf(golden.rows);
    const auto goldenCols = indexOf(golden.cols);
    const auto actualRows = indexOf(actual.rows);
    const auto actualCols = indexOf(actual.cols);

    for (const std::string &row : golden.rows)
        if (!actualRows.count(row))
            diff.structural.push_back("row removed: " + row);
    for (const std::string &row : actual.rows)
        if (!goldenRows.count(row))
            diff.structural.push_back("row added: " + row);
    for (const std::string &col : golden.cols)
        if (!actualCols.count(col))
            diff.structural.push_back("column removed: " + col);
    for (const std::string &col : actual.cols)
        if (!goldenCols.count(col))
            diff.structural.push_back("column added: " + col);

    const auto cellAt =
        [](const GoldenMatrix &m,
           const std::map<std::string, std::size_t> &rows,
           const std::map<std::string, std::size_t> &cols,
           const std::string &row, const std::string &col)
        -> std::optional<GoldenCell> {
        const auto r = rows.find(row);
        const auto c = cols.find(col);
        if (r == rows.end() || c == cols.end())
            return std::nullopt;
        return m.cells[r->second][c->second];
    };

    // Walk the union of labels in golden order first, then the
    // additions, so diff output order is deterministic.
    std::vector<std::string> rowUnion = golden.rows;
    for (const std::string &row : actual.rows)
        if (!goldenRows.count(row))
            rowUnion.push_back(row);
    std::vector<std::string> colUnion = golden.cols;
    for (const std::string &col : actual.cols)
        if (!goldenCols.count(col))
            colUnion.push_back(col);

    // Accuracy values compare under the golden's recorded
    // tolerance, every other cell field exactly.  Each violation
    // becomes a note naming the grid point within the cell, both
    // values and the delta.
    const auto accuracyDrift = [&golden](const GoldenCell &g,
                                         const GoldenCell &a) {
        std::vector<std::string> notes;
        if (!golden.hasAccuracy)
            return notes;
        if (g.accuracy.size() != a.accuracy.size()) {
            notes.push_back("accuracy: golden has " +
                            std::to_string(g.accuracy.size()) +
                            " values, actual " +
                            std::to_string(a.accuracy.size()));
            return notes;
        }
        const double eps = golden.absEps;
        for (std::size_t i = 0; i < g.accuracy.size(); ++i) {
            const double delta = std::fabs(g.accuracy[i] - a.accuracy[i]);
            if (delta <= eps)
                continue;
            char buf[160];
            std::snprintf(
                buf, sizeof buf,
                "accuracy[%zu]: golden %s -> actual %s "
                "(|delta| %s > absEps %s)",
                i, tool::shortestExactDouble(g.accuracy[i]).c_str(),
                tool::shortestExactDouble(a.accuracy[i]).c_str(),
                tool::shortestExactDouble(delta).c_str(),
                tool::shortestExactDouble(eps).c_str());
            notes.push_back(buf);
        }
        return notes;
    };

    for (const std::string &row : rowUnion) {
        for (const std::string &col : colUnion) {
            const auto g =
                cellAt(golden, goldenRows, goldenCols, row, col);
            const auto a =
                cellAt(actual, actualRows, actualCols, row, col);
            if (!g && !a)
                continue;
            if (g && a) {
                const bool exact_equal = g->runs == a->runs &&
                                         g->leaks == a->leaks &&
                                         g->pattern == a->pattern;
                auto notes = accuracyDrift(*g, *a);
                if (exact_equal && notes.empty())
                    continue;
                diff.cells.push_back(
                    {row, col, g, a, std::move(notes)});
                continue;
            }
            diff.cells.push_back({row, col, g, a, {}});
        }
    }
    return diff;
}

std::string
renderDiff(const MatrixDiff &diff)
{
    if (diff.empty())
        return "matrices agree\n";
    std::ostringstream os;
    for (const std::string &note : diff.structural)
        os << "  [shape] " << note << "\n";
    for (const CellDiff &cell : diff.cells) {
        os << "  [cell] (" << cell.row << " x " << cell.col
           << "): golden " << describeCell(cell.golden)
           << " -> actual " << describeCell(cell.actual) << "\n";
        for (const std::string &note : cell.accuracyNotes)
            os << "         " << note << "\n";
    }
    return os.str();
}

} // namespace specsec::regress
