#include "logic/parser.h"

#include <cctype>

#include "util/str.h"

namespace ocdx {

Result<std::vector<Token>> Tokenize(std::string_view src) {
  std::vector<Token> out;
  size_t i = 0;
  auto push = [&](TokKind k, std::string text, size_t pos) {
    out.push_back(Token{k, std::move(text), pos});
  };
  while (i < src.size()) {
    char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t pos = i;
    if (c == '(') {
      push(TokKind::kLParen, "(", pos);
      ++i;
    } else if (c == ')') {
      push(TokKind::kRParen, ")", pos);
      ++i;
    } else if (c == ',') {
      push(TokKind::kComma, ",", pos);
      ++i;
    } else if (c == '.') {
      push(TokKind::kDot, ".", pos);
      ++i;
    } else if (c == '^') {
      push(TokKind::kCaret, "^", pos);
      ++i;
    } else if (c == ';') {
      push(TokKind::kSemicolon, ";", pos);
      ++i;
    } else if (c == '=') {
      push(TokKind::kEq, "=", pos);
      ++i;
    } else if (c == '&') {
      push(TokKind::kAmp, "&", pos);
      ++i;
    } else if (c == '|') {
      push(TokKind::kPipe, "|", pos);
      ++i;
    } else if (c == '!') {
      if (i + 1 < src.size() && src[i + 1] == '=') {
        push(TokKind::kNeq, "!=", pos);
        i += 2;
      } else {
        push(TokKind::kBang, "!", pos);
        ++i;
      }
    } else if (c == '-') {
      if (i + 1 < src.size() && src[i + 1] == '>') {
        push(TokKind::kArrow, "->", pos);
        i += 2;
      } else {
        return Status::ParseError(
            StrCat("unexpected '-' at offset ", pos, " (did you mean '->')"));
      }
    } else if (c == ':') {
      if (i + 1 < src.size() && src[i + 1] == '-') {
        push(TokKind::kColonDash, ":-", pos);
        i += 2;
      } else {
        return Status::ParseError(
            StrCat("unexpected ':' at offset ", pos, " (did you mean ':-')"));
      }
    } else if (c == '\'') {
      size_t j = i + 1;
      while (j < src.size() && src[j] != '\'') ++j;
      if (j >= src.size()) {
        return Status::ParseError(
            StrCat("unterminated quoted constant at offset ", pos));
      }
      push(TokKind::kQuoted, std::string(src.substr(i + 1, j - i - 1)), pos);
      i = j + 1;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < src.size() && std::isdigit(static_cast<unsigned char>(src[j])))
        ++j;
      push(TokKind::kInt, std::string(src.substr(i, j - i)), pos);
      i = j;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < src.size() &&
             (std::isalnum(static_cast<unsigned char>(src[j])) ||
              src[j] == '_')) {
        ++j;
      }
      push(TokKind::kIdent, std::string(src.substr(i, j - i)), pos);
      i = j;
    } else {
      return Status::ParseError(
          StrCat("unexpected character '", std::string(1, c), "' at offset ",
                 pos));
    }
  }
  push(TokKind::kEnd, "", src.size());
  return out;
}

class FormulaParser::DepthScope {
 public:
  explicit DepthScope(int* depth) : depth_(depth) { ++*depth_; }
  ~DepthScope() { --*depth_; }
  DepthScope(const DepthScope&) = delete;
  DepthScope& operator=(const DepthScope&) = delete;

  bool too_deep() const { return *depth_ > kMaxDepth; }

 private:
  int* depth_;
};

Status FormulaParser::TooDeep() const {
  return Status::ParseError(StrCat("formula nested deeper than ", kMaxDepth,
                                   " levels at offset ", Peek().pos));
}

Status FormulaParser::MakeError(std::string_view message) const {
  return Status::ParseError(StrCat(message, " at offset ", Peek().pos,
                                   Peek().kind == TokKind::kEnd
                                       ? " (end of input)"
                                       : StrCat(" near '", Peek().text, "'")));
}

Status FormulaParser::Expect(TokKind kind, std::string_view what) {
  if (Peek().kind != kind) return MakeError(StrCat("expected ", what));
  Advance();
  return Status::OK();
}

bool FormulaParser::Accept(TokKind kind) {
  if (Peek().kind != kind) return false;
  Advance();
  return true;
}

Result<FormulaPtr> FormulaParser::ParseComplete() {
  OCDX_ASSIGN_OR_RETURN(FormulaPtr f, ParseFormulaExpr());
  if (!AtEnd()) return MakeError("trailing input after formula");
  return f;
}

Result<FormulaPtr> FormulaParser::ParseFormulaExpr() {
  DepthScope scope(&depth_);
  if (scope.too_deep()) return TooDeep();
  if (Peek().kind == TokKind::kIdent &&
      (Peek().text == "exists" || Peek().text == "forall")) {
    bool is_exists = Peek().text == "exists";
    Advance();
    std::vector<std::string> vars;
    while (Peek().kind == TokKind::kIdent && Peek().text != "exists" &&
           Peek().text != "forall") {
      vars.push_back(Advance().text);
      Accept(TokKind::kComma);  // Optional commas between variables.
    }
    if (vars.empty()) return MakeError("expected variable after quantifier");
    // The dot before the body is optional when the body starts with a
    // nested quantifier (e.g. "exists x forall y. ...").
    bool nested_quantifier =
        Peek().kind == TokKind::kIdent &&
        (Peek().text == "exists" || Peek().text == "forall");
    if (!nested_quantifier) {
      OCDX_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.' after quantifier"));
    }
    OCDX_ASSIGN_OR_RETURN(FormulaPtr body, ParseFormulaExpr());
    return is_exists ? Formula::Exists(std::move(vars), std::move(body))
                     : Formula::Forall(std::move(vars), std::move(body));
  }
  return ParseImplication();
}

Result<FormulaPtr> FormulaParser::ParseImplication() {
  OCDX_ASSIGN_OR_RETURN(FormulaPtr lhs, ParseDisjunction());
  if (Accept(TokKind::kArrow)) {
    // Right-associative; the consequent may itself be quantified.
    OCDX_ASSIGN_OR_RETURN(FormulaPtr rhs, ParseFormulaExpr());
    return Formula::Implies(std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<FormulaPtr> FormulaParser::ParseDisjunction() {
  OCDX_ASSIGN_OR_RETURN(FormulaPtr first, ParseConjunction());
  std::vector<FormulaPtr> parts = {std::move(first)};
  while (Accept(TokKind::kPipe)) {
    OCDX_ASSIGN_OR_RETURN(FormulaPtr next, ParseConjunction());
    parts.push_back(std::move(next));
  }
  return parts.size() == 1 ? parts[0] : Formula::Or(std::move(parts));
}

Result<FormulaPtr> FormulaParser::ParseConjunction() {
  OCDX_ASSIGN_OR_RETURN(FormulaPtr first, ParseUnary());
  std::vector<FormulaPtr> parts = {std::move(first)};
  while (Accept(TokKind::kAmp)) {
    OCDX_ASSIGN_OR_RETURN(FormulaPtr next, ParseUnary());
    parts.push_back(std::move(next));
  }
  return parts.size() == 1 ? parts[0] : Formula::And(std::move(parts));
}

Result<FormulaPtr> FormulaParser::ParseUnary() {
  if (Accept(TokKind::kBang)) {
    DepthScope scope(&depth_);
    if (scope.too_deep()) return TooDeep();
    OCDX_ASSIGN_OR_RETURN(FormulaPtr inner, ParseUnary());
    return Formula::Not(std::move(inner));
  }
  return ParsePrimary();
}

Result<FormulaPtr> FormulaParser::ParsePrimary() {
  if (Accept(TokKind::kLParen)) {
    OCDX_ASSIGN_OR_RETURN(FormulaPtr f, ParseFormulaExpr());
    OCDX_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    return f;
  }
  if (Peek().kind == TokKind::kIdent && Peek().text == "true") {
    Advance();
    return Formula::True();
  }
  if (Peek().kind == TokKind::kIdent && Peek().text == "false") {
    Advance();
    return Formula::False();
  }
  // Quantifiers may appear here when parenthesized subformulas embed them.
  if (Peek().kind == TokKind::kIdent &&
      (Peek().text == "exists" || Peek().text == "forall")) {
    return ParseFormulaExpr();
  }
  // Atom or equality: parse a term first.
  OCDX_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
  if (Accept(TokKind::kEq)) {
    OCDX_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
    return Formula::Eq(std::move(lhs), std::move(rhs));
  }
  if (Accept(TokKind::kNeq)) {
    OCDX_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
    return Formula::Neq(std::move(lhs), std::move(rhs));
  }
  // Not a comparison: a bare R(args...) is an atom.
  if (lhs.IsFunc()) {
    return Formula::Atom(lhs.name, std::move(lhs.args));
  }
  return MakeError("expected an atom or a comparison");
}

Result<Term> FormulaParser::ParseTerm() {
  if (Peek().kind == TokKind::kQuoted) {
    return Term::Constant(universe_->Const(Advance().text));
  }
  if (Peek().kind == TokKind::kInt) {
    return Term::Constant(universe_->Const(Advance().text));
  }
  if (Peek().kind != TokKind::kIdent) {
    return MakeError("expected a term");
  }
  std::string name = Advance().text;
  if (Accept(TokKind::kLParen)) {
    DepthScope scope(&depth_);
    if (scope.too_deep()) return TooDeep();
    OCDX_ASSIGN_OR_RETURN(std::vector<Term> args, ParseTermList());
    OCDX_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    return Term::Func(std::move(name), std::move(args));
  }
  return Term::Var(std::move(name));
}

Result<std::vector<Term>> FormulaParser::ParseTermList() {
  std::vector<Term> out;
  if (Peek().kind == TokKind::kRParen) return out;  // Empty list.
  while (true) {
    OCDX_ASSIGN_OR_RETURN(Term t, ParseTerm());
    out.push_back(std::move(t));
    if (!Accept(TokKind::kComma)) break;
  }
  return out;
}

Result<FormulaPtr> ParseFormula(std::string_view text, Universe* universe) {
  OCDX_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  FormulaParser parser(std::move(tokens), universe);
  return parser.ParseComplete();
}

}  // namespace ocdx
