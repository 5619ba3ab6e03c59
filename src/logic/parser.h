// Text syntax for formulas (and the token layer shared with the rule
// parser in src/mapping).
//
// Formula grammar (precedence from loosest to tightest):
//
//   formula     := ('exists' | 'forall') var+ '.' formula
//                | implication
//   implication := disjunction ('->' implication)?
//   disjunction := conjunction ('|' conjunction)*
//   conjunction := unary ('&' unary)*
//   unary       := '!' unary | primary
//   primary     := '(' formula ')' | 'true' | 'false' | atom-or-equality
//   atom-or-eq  := term (('=' | '!=') term)?
//   term        := IDENT ('(' term-list ')')? | 'quoted-const' | INTEGER
//
// Identifiers are variables; `R(...)` in a formula position is an atom,
// in a comparison position it is a function (Skolem) term. Constants are
// single-quoted ('a', 'John') or bare integers.
//
// Nesting is capped at FormulaParser::kMaxDepth levels (parentheses,
// `!`, quantifiers, `->` consequents and function-term arguments each
// add one), so hostile input gets a positioned ParseError instead of
// overflowing the stack.

#ifndef OCDX_LOGIC_PARSER_H_
#define OCDX_LOGIC_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "logic/formula.h"
#include "util/status.h"

namespace ocdx {

enum class TokKind : uint8_t {
  kIdent,
  kQuoted,
  kInt,
  kLParen,
  kRParen,
  kComma,
  kDot,
  kEq,
  kNeq,
  kBang,
  kAmp,
  kPipe,
  kArrow,
  kCaret,      ///< `^` — used by the rule parser for annotations.
  kColonDash,  ///< `:-` — rule separator.
  kSemicolon,
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;
  size_t pos;  ///< Byte offset in the source, for error messages.
};

/// Splits `src` into tokens; fails with ParseError on unknown characters.
Result<std::vector<Token>> Tokenize(std::string_view src);

/// Parses a complete formula. Constants are interned into `*universe`.
Result<FormulaPtr> ParseFormula(std::string_view text, Universe* universe);

/// Recursive-descent parser over a token stream. Exposed so the rule
/// parser (src/mapping/parser.cc) can reuse formula parsing mid-stream.
class FormulaParser {
 public:
  /// Deepest nesting the recursive descent accepts; a fixed limit, not a
  /// setting.
  static constexpr int kMaxDepth = 256;

  FormulaParser(std::vector<Token> tokens, Universe* universe)
      : tokens_(std::move(tokens)), universe_(universe) {}

  /// Parses one formula starting at the cursor; leaves the cursor after it.
  Result<FormulaPtr> ParseFormulaExpr();

  /// Parses a formula and requires end-of-input after it.
  Result<FormulaPtr> ParseComplete();

  /// Parses a term (used by the rule parser for head arguments).
  Result<Term> ParseTerm();

  // -- Cursor management for embedding parsers --------------------------
  const Token& Peek() const { return tokens_[cursor_]; }
  const Token& PeekAt(size_t lookahead) const {
    size_t i = cursor_ + lookahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  Token Advance() { return tokens_[cursor_ < tokens_.size() - 1 ? cursor_++ : cursor_]; }
  bool AtEnd() const { return Peek().kind == TokKind::kEnd; }
  Status Expect(TokKind kind, std::string_view what);
  bool Accept(TokKind kind);

  Status MakeError(std::string_view message) const;

 private:
  Result<FormulaPtr> ParseImplication();
  Result<FormulaPtr> ParseDisjunction();
  Result<FormulaPtr> ParseConjunction();
  Result<FormulaPtr> ParseUnary();
  Result<FormulaPtr> ParsePrimary();
  Result<std::vector<Term>> ParseTermList();

  /// Counts one nesting level for the lifetime of a recursive call.
  class DepthScope;
  Status TooDeep() const;

  std::vector<Token> tokens_;
  Universe* universe_;
  size_t cursor_ = 0;
  int depth_ = 0;
};

}  // namespace ocdx

#endif  // OCDX_LOGIC_PARSER_H_
