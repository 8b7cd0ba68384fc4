#include "sparql/parser.h"

#include <cstdint>
#include <cstdlib>
#include <optional>

#include "common/env.h"
#include "common/string_util.h"
#include "sparql/lexer.h"

namespace kgnet::sparql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Result<Query> Parse() {
    Query q;
    KGNET_RETURN_IF_ERROR(ParsePrologue(&q));
    if (Peek().kind == TokenKind::kEof) return Err("empty query");
    const Token& t = Peek();
    if (t.IsKeyword("SELECT")) {
      KGNET_RETURN_IF_ERROR(ParseSelect(&q));
    } else if (t.IsKeyword("ASK")) {
      Next();
      q.kind = QueryKind::kAsk;
      KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(&q, &q.where));
    } else if (t.IsKeyword("INSERT")) {
      KGNET_RETURN_IF_ERROR(ParseInsert(&q));
    } else if (t.IsKeyword("DELETE")) {
      KGNET_RETURN_IF_ERROR(ParseDelete(&q));
    } else {
      return Err("expected SELECT, ASK, INSERT or DELETE");
    }
    if (!Peek().IsPunct(";") && Peek().kind != TokenKind::kEof) {
      // Allow a trailing ';'.
      return Err("unexpected trailing tokens");
    }
    return q;
  }

 private:
  // Peek/Next never run off the token vector, even if it is empty or
  // lacks a trailing kEof (the lexer appends one, but the parser must not
  // rely on it — indexing toks_.back() on an empty vector, or the
  // toks_.size() - 1 underflow, was UB).
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : eof_;
  }
  const Token& Next() {
    const Token& t = Peek();
    if (pos_ + 1 < toks_.size()) ++pos_;
    return t;
  }
  bool Accept(std::string_view punct) {
    if (Peek().IsPunct(punct)) {
      Next();
      return true;
    }
    return false;
  }
  bool AcceptKeyword(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      Next();
      return true;
    }
    return false;
  }
  Status Expect(std::string_view punct) {
    if (!Accept(punct))
      return Err("expected '" + std::string(punct) + "' but found '" +
                 Peek().text + "'");
    return Status::OK();
  }
  Status Err(std::string msg) const {
    return Status::ParseError(msg + " (near offset " +
                              std::to_string(Peek().offset) + ")");
  }

  Status ParsePrologue(Query* q) {
    while (Peek().IsKeyword("PREFIX")) {
      Next();
      const Token& name = Next();
      if (name.kind != TokenKind::kPname || !EndsWith(name.text, ":")) {
        // Allow "PREFIX dblp : <...>": pname token may carry the colon or
        // the colon may lex as part of pname with empty local.
        if (name.kind != TokenKind::kPname)
          return Err("expected prefix name after PREFIX");
      }
      std::string prefix = name.text;
      if (!prefix.empty() && prefix.back() == ':') prefix.pop_back();
      // Strip any accidental local part (e.g. "dblp:" lexes clean).
      const Token& iri = Next();
      if (iri.kind != TokenKind::kIri)
        return Err("expected IRI after PREFIX " + prefix);
      q->prefixes[prefix] = iri.text;
    }
    return Status::OK();
  }

  Status ParseSelect(Query* q) {
    Next();  // SELECT
    q->kind = QueryKind::kSelect;
    if (AcceptKeyword("DISTINCT")) q->distinct = true;
    if (Accept("*")) {
      q->select_all = true;
    } else {
      while (true) {
        const Token& t = Peek();
        if (t.IsKeyword("WHERE") || t.IsPunct("{") ||
            t.kind == TokenKind::kEof)
          break;
        SelectItem item;
        if (t.kind == TokenKind::kVar) {
          item.expr = Expr::Var(t.text);
          item.alias = t.text;
          Next();
          // optional "AS ?alias" even for a variable
          if (AcceptKeyword("AS")) {
            const Token& a = Next();
            if (a.kind != TokenKind::kVar) return Err("expected ?var after AS");
            item.alias = a.text;
          }
        } else {
          KGNET_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimaryExpr());
          item.expr = e;
          if (AcceptKeyword("AS")) {
            const Token& a = Next();
            if (a.kind != TokenKind::kVar) return Err("expected ?var after AS");
            item.alias = a.text;
          } else {
            return Err("projection expression requires AS ?alias");
          }
        }
        q->select.push_back(std::move(item));
      }
      if (q->select.empty()) return Err("empty SELECT projection");
    }
    AcceptKeyword("WHERE");
    KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &q->where));
    // Solution modifiers.
    while (true) {
      if (AcceptKeyword("LIMIT")) {
        KGNET_RETURN_IF_ERROR(ParseCount("LIMIT", &q->limit));
      } else if (AcceptKeyword("OFFSET")) {
        KGNET_RETURN_IF_ERROR(ParseCount("OFFSET", &q->offset));
      } else {
        break;
      }
    }
    return Status::OK();
  }

  /// The integer after LIMIT or OFFSET, in [0, INT64_MAX].
  Status ParseCount(std::string_view keyword, int64_t* out) {
    const Token& t = Next();
    const std::optional<uint64_t> n =
        t.kind == TokenKind::kNumber
            ? common::ParseInt(t.text, 0, static_cast<uint64_t>(INT64_MAX))
            : std::nullopt;
    if (!n)
      return Err(std::string(keyword) + " wants an integer in [0, " +
                 std::to_string(INT64_MAX) + "], found '" + t.text + "'");
    *out = static_cast<int64_t>(*n);
    return Status::OK();
  }

  /// The integer literal `text` (an optional '-', then digits), which
  /// must fit in int64.
  Result<int64_t> IntLiteral(const std::string& text) const {
    const bool negative = text[0] == '-';
    const std::optional<uint64_t> magnitude = common::ParseInt(
        std::string_view(text).substr(negative ? 1 : 0), 0,
        static_cast<uint64_t>(INT64_MAX) + (negative ? 1 : 0));
    if (!magnitude)
      return Err("integer literal " + text + " is outside [" +
                 std::to_string(INT64_MIN) + ", " +
                 std::to_string(INT64_MAX) + "]");
    return negative ? -static_cast<int64_t>(*magnitude - 1) - 1
                    : static_cast<int64_t>(*magnitude);
  }

  Status ParseInsert(Query* q) {
    Next();  // INSERT
    if (AcceptKeyword("DATA")) {
      q->kind = QueryKind::kInsertData;
      GraphPattern data;
      KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &data));
      q->update_template = std::move(data.triples);
      return Status::OK();
    }
    if (AcceptKeyword("INTO")) {
      const Token& g = Next();
      if (g.kind != TokenKind::kIri && g.kind != TokenKind::kPname)
        return Err("expected graph IRI after INTO");
      q->into_graph =
          g.kind == TokenKind::kIri ? g.text : ResolvePname(*q, g.text);
    }
    q->kind = QueryKind::kInsertWhere;
    GraphPattern tmpl;
    KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &tmpl));
    q->update_template = std::move(tmpl.triples);
    if (!AcceptKeyword("WHERE")) return Err("expected WHERE after INSERT {}");
    KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &q->where));
    return Status::OK();
  }

  Status ParseDelete(Query* q) {
    Next();  // DELETE
    q->kind = QueryKind::kDeleteWhere;
    GraphPattern tmpl;
    KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &tmpl));
    q->update_template = std::move(tmpl.triples);
    if (!AcceptKeyword("WHERE")) return Err("expected WHERE after DELETE {}");
    KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &q->where));
    return Status::OK();
  }

  Status ParseGroupGraphPattern(Query* q, GraphPattern* gp) {
    KGNET_RETURN_IF_ERROR(Expect("{"));
    while (!Peek().IsPunct("}")) {
      if (Peek().kind == TokenKind::kEof) return Err("unterminated '{'");
      if (Peek().IsKeyword("FILTER")) {
        Next();
        KGNET_RETURN_IF_ERROR(Expect("("));
        KGNET_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr(q));
        KGNET_RETURN_IF_ERROR(Expect(")"));
        gp->filters.push_back(std::move(e));
        Accept(".");
        continue;
      }
      if (Peek().IsKeyword("OPTIONAL")) {
        Next();
        GraphPattern opt;
        KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &opt));
        gp->optionals.push_back(std::move(opt));
        Accept(".");
        continue;
      }
      if (Peek().IsPunct("{")) {
        if (Peek(1).IsKeyword("SELECT")) {
          // Inline sub-SELECT: { SELECT ... }
          Next();
          auto sub = std::make_shared<Query>();
          sub->prefixes = q->prefixes;
          KGNET_RETURN_IF_ERROR(ParseSelect(sub.get()));
          KGNET_RETURN_IF_ERROR(Expect("}"));
          gp->subselects.push_back(std::move(sub));
          Accept(".");
          continue;
        }
        // Group, possibly a UNION chain: {A} UNION {B} UNION ...
        std::vector<GraphPattern> alternatives;
        GraphPattern first;
        KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &first));
        alternatives.push_back(std::move(first));
        while (AcceptKeyword("UNION")) {
          GraphPattern alt;
          KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &alt));
          alternatives.push_back(std::move(alt));
        }
        if (alternatives.size() == 1) {
          // A plain nested group: inline its contents.
          GraphPattern& inner = alternatives.front();
          for (auto& t : inner.triples) gp->triples.push_back(std::move(t));
          for (auto& f : inner.filters) gp->filters.push_back(std::move(f));
          for (auto& s : inner.subselects)
            gp->subselects.push_back(std::move(s));
          for (auto& u : inner.unions) gp->unions.push_back(std::move(u));
          for (auto& o : inner.optionals)
            gp->optionals.push_back(std::move(o));
        } else {
          gp->unions.push_back(std::move(alternatives));
        }
        Accept(".");
        continue;
      }
      // Triples block: subject (predicate object (';' predicate object)*) '.'
      KGNET_ASSIGN_OR_RETURN(NodeRef s, ParseNode(*q));
      while (true) {
        KGNET_ASSIGN_OR_RETURN(NodeRef p, ParseNode(*q));
        KGNET_ASSIGN_OR_RETURN(NodeRef o, ParseNode(*q));
        gp->triples.push_back(PatternTriple{s, p, o});
        if (Accept(";")) {
          if (Peek().IsPunct(".") || Peek().IsPunct("}")) {
            Accept(".");
            break;
          }
          continue;  // same subject, new predicate/object
        }
        Accept(".");
        break;
      }
    }
    return Expect("}");
  }

  Result<NodeRef> ParseNode(const Query& q) {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kVar:
        Next();
        return NodeRef::Var(t.text);
      case TokenKind::kIri:
        Next();
        return NodeRef::Const(rdf::Term::Iri(t.text));
      case TokenKind::kPname: {
        Next();
        return NodeRef::Const(rdf::Term::Iri(ResolvePname(q, t.text)));
      }
      case TokenKind::kString: {
        Next();
        rdf::Term lit = rdf::Term::Literal(t.text);
        if (!t.extra.empty()) {
          if (t.extra[0] == '@') {
            lit.lang = t.extra.substr(1);
          } else {
            lit.datatype = t.extra;
          }
        }
        return NodeRef::Const(std::move(lit));
      }
      case TokenKind::kNumber: {
        Next();
        if (t.text.find('.') != std::string::npos)
          return NodeRef::Const(
              rdf::Term::DoubleLiteral(std::atof(t.text.c_str())));
        KGNET_ASSIGN_OR_RETURN(const int64_t v, IntLiteral(t.text));
        return NodeRef::Const(rdf::Term::IntLiteral(v));
      }
      case TokenKind::kKeyword:
        if (t.text == "A") {
          Next();
          return NodeRef::Const(rdf::Term::Iri(std::string(rdf::kRdfType)));
        }
        if (t.text == "TRUE" || t.text == "FALSE") {
          Next();
          return NodeRef::Const(rdf::Term::TypedLiteral(
              t.text == "TRUE" ? "true" : "false",
              "http://www.w3.org/2001/XMLSchema#boolean"));
        }
        break;
      default:
        break;
    }
    return Err("expected variable, IRI, literal or 'a', found '" + t.text +
               "'");
  }

  // expr := andExpr ('||' andExpr)*
  Result<ExprPtr> ParseExpr(Query* q) {
    KGNET_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAndExpr(q));
    while (Peek().IsPunct("||")) {
      Next();
      KGNET_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAndExpr(q));
      lhs = Expr::Binary(ExprOp::kOr, lhs, rhs);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAndExpr(Query* q) {
    KGNET_ASSIGN_OR_RETURN(ExprPtr lhs, ParseCmpExpr(q));
    while (Peek().IsPunct("&&")) {
      Next();
      KGNET_ASSIGN_OR_RETURN(ExprPtr rhs, ParseCmpExpr(q));
      lhs = Expr::Binary(ExprOp::kAnd, lhs, rhs);
    }
    return lhs;
  }

  Result<ExprPtr> ParseCmpExpr(Query* q) {
    KGNET_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnaryExpr(q));
    const Token& t = Peek();
    ExprOp op;
    if (t.IsPunct("=")) {
      op = ExprOp::kEq;
    } else if (t.IsPunct("!=")) {
      op = ExprOp::kNe;
    } else if (t.IsPunct("<")) {
      op = ExprOp::kLt;
    } else if (t.IsPunct("<=")) {
      op = ExprOp::kLe;
    } else if (t.IsPunct(">")) {
      op = ExprOp::kGt;
    } else if (t.IsPunct(">=")) {
      op = ExprOp::kGe;
    } else {
      return lhs;
    }
    Next();
    KGNET_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnaryExpr(q));
    return Expr::Binary(op, lhs, rhs);
  }

  Result<ExprPtr> ParseUnaryExpr(Query* q) {
    if (Peek().IsPunct("!")) {
      Next();
      KGNET_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnaryExpr(q));
      auto e = std::make_shared<Expr>();
      e->op = ExprOp::kNot;
      e->args = {inner};
      return e;
    }
    if (Peek().IsPunct("(")) {
      Next();
      KGNET_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr(q));
      KGNET_RETURN_IF_ERROR(Expect(")"));
      return inner;
    }
    return ParsePrimaryExpr();
  }

  // Primary: var | literal | IRI | function call (pname/ident followed by
  // '(' args ')').
  Result<ExprPtr> ParsePrimaryExpr() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kVar) {
      Next();
      return Expr::Var(t.text);
    }
    if (t.kind == TokenKind::kString) {
      Next();
      rdf::Term lit = rdf::Term::Literal(t.text);
      if (!t.extra.empty()) {
        if (t.extra[0] == '@') {
          lit.lang = t.extra.substr(1);
        } else {
          lit.datatype = t.extra;
        }
      }
      return Expr::Const(std::move(lit));
    }
    if (t.kind == TokenKind::kNumber) {
      Next();
      if (t.text.find('.') != std::string::npos)
        return Expr::Const(rdf::Term::DoubleLiteral(std::atof(t.text.c_str())));
      KGNET_ASSIGN_OR_RETURN(const int64_t v, IntLiteral(t.text));
      return Expr::Const(rdf::Term::IntLiteral(v));
    }
    if (t.kind == TokenKind::kIri) {
      Next();
      return Expr::Const(rdf::Term::Iri(t.text));
    }
    if (t.kind == TokenKind::kPname || t.kind == TokenKind::kIdent ||
        t.kind == TokenKind::kKeyword) {
      // Function call keeps its written name (e.g. sql:UDFS.getNodeClass).
      std::string name = t.text;
      Next();
      if (Peek().IsPunct("(")) {
        Next();
        std::vector<ExprPtr> args;
        if (!Peek().IsPunct(")")) {
          while (true) {
            KGNET_ASSIGN_OR_RETURN(ExprPtr a, ParseCallArg());
            args.push_back(std::move(a));
            if (!Accept(",")) break;
          }
        }
        KGNET_RETURN_IF_ERROR(Expect(")"));
        return Expr::Call(name, std::move(args));
      }
      // Bare pname used as an IRI constant in an expression.
      if (t.kind == TokenKind::kPname)
        return Expr::Const(rdf::Term::Iri(name));
      return Err("unexpected identifier '" + name + "' in expression");
    }
    return Err("cannot parse expression at '" + t.text + "'");
  }

  Result<ExprPtr> ParseCallArg() { return ParsePrimaryExpr(); }

  std::string ResolvePname(const Query& q, const std::string& pname) const {
    size_t colon = pname.find(':');
    if (colon == std::string::npos) return pname;
    std::string prefix = pname.substr(0, colon);
    std::string local = pname.substr(colon + 1);
    auto it = q.prefixes.find(prefix);
    if (it == q.prefixes.end()) return pname;  // unresolvable: keep raw
    return it->second + local;
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  Token eof_;  // fallback when toks_ is empty / exhausted (kind == kEof)
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  KGNET_ASSIGN_OR_RETURN(std::vector<Token> toks, Tokenize(text));
  Parser parser(std::move(toks));
  return parser.Parse();
}

}  // namespace kgnet::sparql
