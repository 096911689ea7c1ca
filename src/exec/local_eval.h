// Buyer-side final query processing (Fig. 3, steps 6-8): once every
// relation's required tuples are available locally, the query is just a
// conventional select-join-aggregate evaluation. Shared by the execution
// engine, the Download-All baseline, and the reference oracle in tests.
//
// The join is late-materialized over the rows each relation was fetched as:
// the running join keeps, per placed relation, a pointer to that relation's
// table and one row-index vector. A join step only extends the index
// vectors; values are read through them for join keys, bind-join binding
// values and, once at the end, the columns SELECT and GROUP BY read.
#ifndef PAYLESS_EXEC_LOCAL_EVAL_H_
#define PAYLESS_EXEC_LOCAL_EVAL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sql/bound_query.h"
#include "storage/table.h"

namespace payless::exec {

/// The running join of the relations placed so far. Joined row i is, for
/// each placed relation rel, row `rows_[rel][i]` of that relation's table.
/// Starts as the unit: one joined row, nothing placed.
class JoinedRows {
 public:
  /// One equi-join key: a column of an already placed relation and the
  /// column of the joining relation it must equal.
  struct Key {
    sql::BoundColumnRef placed;
    size_t col = 0;
  };

  size_t num_rows() const { return num_rows_; }

  bool placed(size_t rel) const {
    return rel < tables_.size() && tables_[rel] != nullptr;
  }

  /// The table a placed relation was joined from.
  const storage::Table& table(size_t rel) const { return *tables_[rel]; }

  const Value& At(size_t row, size_t rel, size_t col) const {
    return tables_[rel]->rows()[rows_[rel][row]][col];
  }
  const Value& At(size_t row, const sql::BoundColumnRef& ref) const {
    return At(row, ref.rel, ref.col);
  }

  /// Joins the rows `selected` (ascending indices into `table`) in as
  /// relation `rel`. With no keys this is a cross product in joined-row-major
  /// order. With keys it is a hash join that builds on the smaller side (the
  /// running join when num_rows() <= selected.size()), never matches a NULL
  /// key, and emits matches in probe order x build-insertion order, so the
  /// result is a pure function of the inputs. `table` must outlive this
  /// object; `rel` must not be placed yet.
  void Join(size_t rel, const storage::Table& table,
            const std::vector<uint32_t>& selected,
            const std::vector<Key>& keys);

 private:
  size_t num_rows_ = 1;
  std::vector<const storage::Table*> tables_;  // nullptr: not placed
  std::vector<std::vector<uint32_t>> rows_;
};

/// Ascending indices of `raw`'s rows that satisfy relation `rel`'s literal
/// conditions and the residual predicates that mention it.
std::vector<uint32_t> FilterRelation(const sql::BoundQuery& query, size_t rel,
                                     const storage::Table& raw);

/// Filters `table` as relation `rel` and joins the survivors into `joined`
/// along every join edge to an already placed relation (a cross product
/// when there is none). The executor and EvaluateLocally both grow their
/// running join through it.
void JoinRelation(const sql::BoundQuery& query, size_t rel,
                  const storage::Table& table, JoinedRows* joined);

/// Evaluates `query` over materialized relation contents. `rel_tables[i]`
/// holds (a superset of) the rows of relation i that satisfy the query; the
/// evaluator re-applies the relation's literal conditions and the residual
/// predicates, joins everything along the query's join edges (Cartesian
/// where disconnected), and produces the SELECT/GROUP BY output.
Result<storage::Table> EvaluateLocally(
    const sql::BoundQuery& query,
    const std::vector<storage::Table>& rel_tables);

/// Produces the SELECT / GROUP BY / ORDER BY output over the join of every
/// relation of `query` (filters and residuals applied). Projection writes
/// each output value once; aggregation is one pass over the joined rows,
/// with groups in first-seen order.
Result<storage::Table> EvaluateJoined(const sql::BoundQuery& query,
                                      const JoinedRows& joined);

}  // namespace payless::exec

#endif  // PAYLESS_EXEC_LOCAL_EVAL_H_
