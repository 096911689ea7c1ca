#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

#include "sql/bound_query.h"

namespace payless::sql {

Box BoundRelation::QueryRegion() const {
  market::RestCall call;
  call.table = def->name;
  call.conditions = conditions;
  if (always_empty) {
    // All-empty dims.
    std::vector<Interval> dims(def->ConstrainableColumns().size(),
                               Interval::Empty());
    return Box(std::move(dims));
  }
  return market::CallRegion(*def, call);
}

bool BoundQuery::HasAggregates() const {
  return std::any_of(select.begin(), select.end(),
                     [](const BoundSelectItem& item) {
                       return item.kind == BoundSelectItem::Kind::kAggregate;
                     });
}

std::vector<JoinEdge> BoundQuery::JoinsOf(size_t rel) const {
  std::vector<JoinEdge> out;
  for (const JoinEdge& edge : joins) {
    if (edge.left.rel == rel || edge.right.rel == rel) out.push_back(edge);
  }
  return out;
}

std::string BoundQuery::ToString() const {
  std::ostringstream os;
  os << "BoundQuery{relations=[";
  for (size_t i = 0; i < relations.size(); ++i) {
    if (i > 0) os << ", ";
    os << relations[i].def->name
       << (relations[i].is_market() ? "(market)" : "(local)");
  }
  os << "], joins=" << joins.size() << ", residuals=" << residuals.size()
     << "}";
  return os.str();
}

namespace {

// Accumulates the literal predicates on one column before they are folded
// into a single AttrCondition.
struct ColumnConstraint {
  std::optional<Value> eq;
  bool contradiction = false;
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  bool has_bounds = false;
};

class Binder {
 public:
  Binder(const SelectStmt& stmt, const catalog::Catalog& cat,
         const std::vector<Value>& params)
      : stmt_(stmt), catalog_(cat), params_(params) {}

  Result<BoundQuery> Bind() {
    query_.catalog = &catalog_;
    query_.explain = stmt_.explain;
    PAYLESS_RETURN_IF_ERROR(BindFrom());
    PAYLESS_RETURN_IF_ERROR(BindWhere());
    PAYLESS_RETURN_IF_ERROR(FoldConstraints());
    PropagateConditions();
    PAYLESS_RETURN_IF_ERROR(BindSelect());
    PAYLESS_RETURN_IF_ERROR(BindGroupBy());
    PAYLESS_RETURN_IF_ERROR(BindOrderBy());
    return std::move(query_);
  }

 private:
  Status BindFrom() {
    if (stmt_.from.empty()) {
      return Status::InvalidArgument("FROM list is empty");
    }
    for (const std::string& name : stmt_.from) {
      const catalog::TableDef* def = catalog_.FindTable(name);
      if (def == nullptr) {
        return Status::NotFound("unknown table '" + name + "'");
      }
      for (const BoundRelation& existing : query_.relations) {
        if (existing.def == def) {
          return Status::NotSupported("table '" + name +
                                      "' appears twice (self-joins are not "
                                      "supported)");
        }
      }
      BoundRelation rel;
      rel.def = def;
      rel.conditions.assign(def->columns.size(),
                            market::AttrCondition::None());
      query_.relations.push_back(std::move(rel));
      constraints_.emplace_back(def->columns.size());
    }
    return Status::OK();
  }

  Result<BoundColumnRef> Resolve(const ColumnRef& ref) const {
    std::optional<BoundColumnRef> found;
    for (size_t r = 0; r < query_.relations.size(); ++r) {
      const catalog::TableDef& def = *query_.relations[r].def;
      if (!ref.table.empty() && ref.table != def.name) continue;
      const std::optional<size_t> col = def.ColumnIndex(ref.column);
      if (!col.has_value()) continue;
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous column '" + ref.ToString() +
                                       "'");
      }
      found = BoundColumnRef{r, *col};
    }
    if (!found.has_value()) {
      return Status::NotFound("unknown column '" + ref.ToString() + "'");
    }
    return *found;
  }

  Result<Value> ResolveValue(const Operand& operand) const {
    if (operand.kind == Operand::Kind::kLiteral) return operand.literal;
    if (operand.kind == Operand::Kind::kParam) {
      if (operand.param_index >= params_.size()) {
        return Status::InvalidArgument(
            "statement has " + std::to_string(stmt_.num_params) +
            " parameter markers but only " + std::to_string(params_.size()) +
            " values were supplied");
      }
      return params_[operand.param_index];
    }
    return Status::Internal("ResolveValue called on a column operand");
  }

  // Type-checks `v` against the column and coerces int->double where the
  // column is kDouble.
  Result<Value> CoerceToColumn(const Value& v, const catalog::ColumnDef& col,
                               const std::string& context) const {
    if (v.is_null()) {
      return Status::InvalidArgument("NULL literal in " + context);
    }
    switch (col.type) {
      case ValueType::kInt64:
        if (v.is_int64()) return v;
        break;
      case ValueType::kDouble:
        if (v.is_double()) return v;
        if (v.is_int64()) return Value(static_cast<double>(v.AsInt64()));
        break;
      case ValueType::kString:
        if (v.is_string()) return v;
        break;
    }
    return Status::InvalidArgument("type mismatch in " + context +
                                   ": column '" + col.name + "' is " +
                                   ValueTypeName(col.type) + ", value is " +
                                   v.ToString());
  }

  Status BindWhere() {
    for (const Comparison& cmp : stmt_.where) {
      Result<BoundColumnRef> lhs = Resolve(cmp.lhs);
      PAYLESS_RETURN_IF_ERROR(lhs.status());

      if (cmp.rhs.kind == Operand::Kind::kColumn) {
        Result<BoundColumnRef> rhs = Resolve(cmp.rhs.column);
        PAYLESS_RETURN_IF_ERROR(rhs.status());
        if (cmp.op != CompareOp::kEq) {
          return Status::NotSupported(
              "column-to-column comparison '" + cmp.ToString() +
              "' must be an equality");
        }
        if (lhs->rel == rhs->rel) {
          return Status::NotSupported("same-relation column equality '" +
                                      cmp.ToString() + "' is not supported");
        }
        query_.joins.push_back(JoinEdge{*lhs, *rhs});
        continue;
      }

      Result<Value> raw = ResolveValue(cmp.rhs);
      PAYLESS_RETURN_IF_ERROR(raw.status());
      const catalog::ColumnDef& col =
          query_.relations[lhs->rel].def->columns[lhs->col];
      Result<Value> value = CoerceToColumn(*raw, col, "'" + cmp.ToString() + "'");
      PAYLESS_RETURN_IF_ERROR(value.status());

      // Predicates that can shape the REST call: comparisons on
      // constrainable columns with lattice-encodable values.
      const bool constrainable =
          col.binding != catalog::BindingKind::kOutput;
      const bool pushable =
          constrainable && cmp.op != CompareOp::kNe &&
          ((col.domain.is_numeric() && value->is_int64()) ||
           (col.domain.is_categorical() && cmp.op == CompareOp::kEq));
      if (!pushable) {
        query_.residuals.push_back(
            ResidualPredicate{*lhs, cmp.op, *value});
        continue;
      }

      ColumnConstraint& cc = constraints_[lhs->rel][lhs->col];
      switch (cmp.op) {
        case CompareOp::kEq:
          if (cc.eq.has_value() && *cc.eq != *value) cc.contradiction = true;
          cc.eq = *value;
          break;
        case CompareOp::kLt:
          cc.hi = std::min(cc.hi, value->AsInt64() - 1);
          cc.has_bounds = true;
          break;
        case CompareOp::kLe:
          cc.hi = std::min(cc.hi, value->AsInt64());
          cc.has_bounds = true;
          break;
        case CompareOp::kGt:
          cc.lo = std::max(cc.lo, value->AsInt64() + 1);
          cc.has_bounds = true;
          break;
        case CompareOp::kGe:
          cc.lo = std::max(cc.lo, value->AsInt64());
          cc.has_bounds = true;
          break;
        case CompareOp::kNe:
          break;  // unreachable: kNe is never pushable
      }
    }
    return Status::OK();
  }

  // Folds accumulated per-column constraints into AttrConditions.
  Status FoldConstraints() {
    for (size_t r = 0; r < query_.relations.size(); ++r) {
      BoundRelation& rel = query_.relations[r];
      for (size_t c = 0; c < rel.def->columns.size(); ++c) {
        ColumnConstraint& cc = constraints_[r][c];
        const catalog::ColumnDef& col = rel.def->columns[c];
        if (cc.contradiction) {
          rel.always_empty = true;
          continue;
        }
        if (cc.eq.has_value()) {
          if (cc.has_bounds && cc.eq->is_int64() &&
              !(cc.lo <= cc.eq->AsInt64() && cc.eq->AsInt64() <= cc.hi)) {
            rel.always_empty = true;
            continue;
          }
          rel.conditions[c] = market::AttrCondition::Point(*cc.eq);
          continue;
        }
        if (cc.has_bounds) {
          const Interval domain = col.domain.ToInterval();
          const Interval clipped = Interval(cc.lo, cc.hi).Intersect(domain);
          if (clipped.empty()) {
            rel.always_empty = true;
            continue;
          }
          if (clipped == domain) continue;  // no-op constraint
          rel.conditions[c] =
              market::AttrCondition::Range(clipped.lo, clipped.hi);
        }
      }
    }
    return Status::OK();
  }

  // Transitive constraint propagation across equi-join edges: in
  // `Station.Country = Weather.Country = 'US'` the literal binds Weather
  // directly, and the join equality implies Station.Country = 'US' too.
  // Without this, the optimizer would price Station as a whole-table scan
  // (the paper's plans C1/C2 in Fig. 1 rely on the propagated constant).
  void PropagateConditions() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const JoinEdge& edge : query_.joins) {
        changed |= PropagateAcross(edge.left, edge.right);
        changed |= PropagateAcross(edge.right, edge.left);
      }
    }
  }

  // Copies `from`'s condition onto `to` when `to` is unconstrained.
  // Returns true when something changed.
  bool PropagateAcross(const sql::BoundColumnRef& from,
                       const sql::BoundColumnRef& to) {
    const market::AttrCondition& src =
        query_.relations[from.rel].conditions[from.col];
    if (src.is_none()) return false;
    BoundRelation& target = query_.relations[to.rel];
    if (!target.conditions[to.col].is_none()) return false;
    const catalog::ColumnDef& col = target.def->columns[to.col];
    if (col.binding == catalog::BindingKind::kOutput) return false;

    if (src.kind == market::AttrCondition::Kind::kPoint) {
      // Type check; a value outside the target's published domain means the
      // join (and hence the query) is empty for this relation.
      const bool type_ok =
          (col.domain.is_numeric() && src.point.is_int64()) ||
          (col.domain.is_categorical() && src.point.is_string());
      if (!type_ok) return false;
      if (!col.domain.Encode(src.point).has_value()) {
        // Do not report progress twice, or the fixpoint loop never ends.
        if (target.always_empty) return false;
        target.always_empty = true;
        return true;
      }
      target.conditions[to.col] = src;
      return true;
    }
    // Range: only meaningful for numeric targets; clip to the domain.
    if (!col.domain.is_numeric()) return false;
    const Interval clipped = src.range.Intersect(col.domain.ToInterval());
    if (clipped.empty()) {
      if (target.always_empty) return false;
      target.always_empty = true;
      return true;
    }
    if (clipped == col.domain.ToInterval()) return false;  // no-op
    target.conditions[to.col] =
        market::AttrCondition::Range(clipped.lo, clipped.hi);
    return true;
  }

  Status BindSelect() {
    if (stmt_.select.empty()) {
      return Status::InvalidArgument("empty SELECT list");
    }
    for (const SelectItem& item : stmt_.select) {
      BoundSelectItem bound;
      switch (item.kind) {
        case SelectItem::Kind::kStar:
          bound.kind = BoundSelectItem::Kind::kStar;
          break;
        case SelectItem::Kind::kColumn: {
          bound.kind = BoundSelectItem::Kind::kColumn;
          Result<BoundColumnRef> ref = Resolve(item.column);
          PAYLESS_RETURN_IF_ERROR(ref.status());
          bound.column = *ref;
          bound.output_name =
              item.alias.empty() ? item.column.column : item.alias;
          break;
        }
        case SelectItem::Kind::kAggregate: {
          if (item.agg_star && item.agg != AggFunc::kCount) {
            return Status::InvalidArgument(
                std::string(AggFuncName(item.agg)) +
                "(*) is not supported: only COUNT takes *");
          }
          bound.kind = BoundSelectItem::Kind::kAggregate;
          bound.agg = item.agg;
          bound.agg_star = item.agg_star;
          if (!item.agg_star) {
            Result<BoundColumnRef> ref = Resolve(item.column);
            PAYLESS_RETURN_IF_ERROR(ref.status());
            bound.column = *ref;
          }
          bound.output_name =
              item.alias.empty()
                  ? std::string(AggFuncName(item.agg)) + "(" +
                        (item.agg_star ? "*" : item.column.column) + ")"
                  : item.alias;
          break;
        }
      }
      query_.select.push_back(std::move(bound));
    }
    return Status::OK();
  }

  Status BindGroupBy() {
    for (const ColumnRef& ref : stmt_.group_by) {
      Result<BoundColumnRef> bound = Resolve(ref);
      PAYLESS_RETURN_IF_ERROR(bound.status());
      query_.group_by.push_back(*bound);
    }
    const bool has_agg = query_.HasAggregates();
    if (!query_.group_by.empty() && !has_agg) {
      return Status::NotSupported("GROUP BY without aggregates");
    }
    if (has_agg) {
      // Every plain column in the SELECT list must be a grouping column.
      for (const BoundSelectItem& item : query_.select) {
        if (item.kind != BoundSelectItem::Kind::kColumn) continue;
        const bool grouped =
            std::find(query_.group_by.begin(), query_.group_by.end(),
                      item.column) != query_.group_by.end();
        if (!grouped) {
          return Status::InvalidArgument(
              "column '" + item.output_name +
              "' must appear in GROUP BY when aggregates are used");
        }
      }
    }
    return Status::OK();
  }

  // ORDER BY keys name OUTPUT columns (select-list aliases or names).
  Status BindOrderBy() {
    for (const OrderItem& item : stmt_.order_by) {
      if (!item.column.table.empty()) {
        return Status::NotSupported(
            "ORDER BY must reference an output column by its (unqualified) "
            "name or alias");
      }
      std::optional<size_t> index;
      for (size_t s = 0; s < query_.select.size(); ++s) {
        if (query_.select[s].kind == BoundSelectItem::Kind::kStar) {
          return Status::NotSupported("ORDER BY with SELECT *");
        }
        if (query_.select[s].output_name == item.column.column) {
          if (index.has_value()) {
            return Status::InvalidArgument("ambiguous ORDER BY column '" +
                                           item.column.column + "'");
          }
          index = s;
        }
      }
      if (!index.has_value()) {
        return Status::NotFound("ORDER BY column '" + item.column.column +
                                "' is not an output column");
      }
      query_.order_by.push_back(BoundOrderItem{*index, item.ascending});
    }
    return Status::OK();
  }

  const SelectStmt& stmt_;
  const catalog::Catalog& catalog_;
  const std::vector<Value>& params_;
  BoundQuery query_;
  std::vector<std::vector<ColumnConstraint>> constraints_;
};

}  // namespace

Result<BoundQuery> Bind(const SelectStmt& stmt, const catalog::Catalog& cat,
                        const std::vector<Value>& params) {
  if (params.size() < stmt.num_params) {
    return Status::InvalidArgument(
        "statement has " + std::to_string(stmt.num_params) +
        " parameter markers but " + std::to_string(params.size()) +
        " values were supplied");
  }
  Binder binder(stmt, cat, params);
  return binder.Bind();
}

}  // namespace payless::sql
