#include "sql/parser.h"

#include <sstream>

#include "sql/lexer.h"

namespace payless::sql {

namespace {

AggFunc AggFromKeyword(const std::string& kw) {
  if (kw == "COUNT") return AggFunc::kCount;
  if (kw == "SUM") return AggFunc::kSum;
  if (kw == "AVG") return AggFunc::kAvg;
  if (kw == "MIN") return AggFunc::kMin;
  return AggFunc::kMax;
}

bool IsAggKeyword(const Token& t) {
  return t.type == TokenType::kKeyword &&
         (t.text == "COUNT" || t.text == "SUM" || t.text == "AVG" ||
          t.text == "MIN" || t.text == "MAX");
}

CompareOp OpFromText(const std::string& text) {
  if (text == "=") return CompareOp::kEq;
  if (text == "<>") return CompareOp::kNe;
  if (text == "<") return CompareOp::kLt;
  if (text == "<=") return CompareOp::kLe;
  if (text == ">") return CompareOp::kGt;
  return CompareOp::kGe;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStmt> ParseSelect() {
    SelectStmt stmt;
    if (Peek().IsKeyword("EXPLAIN")) {
      Advance();
      stmt.explain = ExplainMode::kPlain;
      if (Peek().IsKeyword("ANALYZE")) {
        Advance();
        stmt.explain = ExplainMode::kAnalyze;
      }
      if (!Peek().IsKeyword("SELECT")) {
        return Error("expected SELECT after EXPLAIN");
      }
    } else if (Peek().IsKeyword("ANALYZE")) {
      return Error("ANALYZE is only valid after EXPLAIN");
    }
    PAYLESS_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    PAYLESS_RETURN_IF_ERROR(ParseSelectList(&stmt));
    PAYLESS_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    PAYLESS_RETURN_IF_ERROR(ParseFromList(&stmt));
    if (Peek().IsKeyword("WHERE")) {
      Advance();
      PAYLESS_RETURN_IF_ERROR(ParseWhere(&stmt));
    }
    if (Peek().IsKeyword("GROUP")) {
      Advance();
      PAYLESS_RETURN_IF_ERROR(ExpectKeyword("BY"));
      PAYLESS_RETURN_IF_ERROR(ParseGroupBy(&stmt));
    }
    if (Peek().IsKeyword("ORDER")) {
      Advance();
      PAYLESS_RETURN_IF_ERROR(ExpectKeyword("BY"));
      PAYLESS_RETURN_IF_ERROR(ParseOrderBy(&stmt));
    }
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    stmt.num_params = num_params_;
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t idx = pos_ + ahead;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Error(const std::string& msg) const {
    std::ostringstream os;
    os << msg << " (near '" << Peek().text << "', offset " << Peek().position
       << ")";
    return Status::ParseError(os.str());
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!Peek().IsKeyword(kw)) return Error("expected " + kw);
    Advance();
    return Status::OK();
  }

  Result<ColumnRef> ParseColumnRef() {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::ParseError("expected column reference near '" +
                                Peek().text + "'");
    }
    ColumnRef ref;
    ref.column = Advance().text;
    if (Peek().type == TokenType::kDot) {
      Advance();
      if (Peek().type != TokenType::kIdentifier) {
        return Status::ParseError("expected column name after '.'");
      }
      ref.table = std::move(ref.column);
      ref.column = Advance().text;
    }
    return ref;
  }

  Status ParseSelectList(SelectStmt* stmt) {
    while (true) {
      SelectItem item;
      if (Peek().type == TokenType::kStar) {
        Advance();
        item.kind = SelectItem::Kind::kStar;
      } else if (IsAggKeyword(Peek())) {
        item.kind = SelectItem::Kind::kAggregate;
        item.agg = AggFromKeyword(Advance().text);
        if (Peek().type != TokenType::kLParen) {
          return Error("expected '(' after aggregate");
        }
        Advance();
        if (Peek().type == TokenType::kStar) {
          Advance();
          item.agg_star = true;
        } else {
          Result<ColumnRef> ref = ParseColumnRef();
          PAYLESS_RETURN_IF_ERROR(ref.status());
          item.column = *ref;
        }
        if (Peek().type != TokenType::kRParen) {
          return Error("expected ')' after aggregate argument");
        }
        Advance();
      } else {
        item.kind = SelectItem::Kind::kColumn;
        Result<ColumnRef> ref = ParseColumnRef();
        PAYLESS_RETURN_IF_ERROR(ref.status());
        item.column = *ref;
      }
      if (Peek().IsKeyword("AS")) {
        Advance();
        if (Peek().type != TokenType::kIdentifier) {
          return Error("expected alias after AS");
        }
        item.alias = Advance().text;
      }
      stmt->select.push_back(std::move(item));
      if (Peek().type != TokenType::kComma) break;
      Advance();
    }
    return Status::OK();
  }

  Status ParseFromList(SelectStmt* stmt) {
    while (true) {
      if (Peek().type != TokenType::kIdentifier) {
        return Error("expected table name");
      }
      stmt->from.push_back(Advance().text);
      if (Peek().type != TokenType::kComma) break;
      Advance();
    }
    return Status::OK();
  }

  Result<Operand> ParseOperand() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger:
        Advance();
        return Operand::Lit(Value(t.int_value));
      case TokenType::kFloat:
        Advance();
        return Operand::Lit(Value(t.float_value));
      case TokenType::kString:
        Advance();
        return Operand::Lit(Value(t.text));
      case TokenType::kParam:
        Advance();
        return Operand::Param(num_params_++);
      case TokenType::kIdentifier: {
        Result<ColumnRef> ref = ParseColumnRef();
        PAYLESS_RETURN_IF_ERROR(ref.status());
        return Operand::Col(*ref);
      }
      default:
        return Status::ParseError("expected literal, '?', or column near '" +
                                  t.text + "'");
    }
  }

  // Parses one conjunct, desugaring chained equality `a = b = ?` into
  // (a = b) AND (b = ?). Chains are only meaningful for '='.
  Status ParseConjunct(SelectStmt* stmt) {
    Result<ColumnRef> lhs = ParseColumnRef();
    PAYLESS_RETURN_IF_ERROR(lhs.status());
    if (Peek().type != TokenType::kOperator) {
      return Error("expected comparison operator");
    }
    CompareOp op = OpFromText(Advance().text);
    Result<Operand> rhs = ParseOperand();
    PAYLESS_RETURN_IF_ERROR(rhs.status());

    Comparison cmp;
    cmp.lhs = *lhs;
    cmp.op = op;
    cmp.rhs = *rhs;
    stmt->where.push_back(cmp);

    // Chained equality: the previous rhs must itself be a column.
    while (op == CompareOp::kEq && Peek().IsOperator("=")) {
      if (stmt->where.back().rhs.kind != Operand::Kind::kColumn) {
        return Error("chained '=' requires a column on both sides");
      }
      Advance();
      Result<Operand> next = ParseOperand();
      PAYLESS_RETURN_IF_ERROR(next.status());
      Comparison chained;
      chained.lhs = stmt->where.back().rhs.column;
      chained.op = CompareOp::kEq;
      chained.rhs = *next;
      stmt->where.push_back(chained);
    }
    return Status::OK();
  }

  Status ParseWhere(SelectStmt* stmt) {
    while (true) {
      PAYLESS_RETURN_IF_ERROR(ParseConjunct(stmt));
      if (!Peek().IsKeyword("AND")) break;
      Advance();
    }
    return Status::OK();
  }

  Status ParseGroupBy(SelectStmt* stmt) {
    while (true) {
      Result<ColumnRef> ref = ParseColumnRef();
      PAYLESS_RETURN_IF_ERROR(ref.status());
      stmt->group_by.push_back(*ref);
      if (Peek().type != TokenType::kComma) break;
      Advance();
    }
    return Status::OK();
  }

  Status ParseOrderBy(SelectStmt* stmt) {
    while (true) {
      OrderItem item;
      Result<ColumnRef> ref = ParseColumnRef();
      PAYLESS_RETURN_IF_ERROR(ref.status());
      item.column = *ref;
      if (Peek().IsKeyword("ASC")) {
        Advance();
      } else if (Peek().IsKeyword("DESC")) {
        Advance();
        item.ascending = false;
      }
      stmt->order_by.push_back(std::move(item));
      if (Peek().type != TokenType::kComma) break;
      Advance();
    }
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t num_params_ = 0;
};

}  // namespace

Result<SelectStmt> Parse(const std::string& input) {
  Result<std::vector<Token>> tokens = Tokenize(input);
  PAYLESS_RETURN_IF_ERROR(tokens.status());
  Parser parser(std::move(*tokens));
  return parser.ParseSelect();
}

}  // namespace payless::sql
