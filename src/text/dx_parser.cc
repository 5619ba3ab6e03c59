#include "text/dx_parser.h"

#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "logic/budget.h"
#include "logic/parser.h"
#include "mapping/rule_parser.h"
#include "text/dx_lexer.h"
#include "util/str.h"

namespace ocdx {

namespace {

// Rewrites "... at offset N ..." (the embedded formula/rule parsers'
// error form; N is an absolute file offset by construction) into the
// "line L, col C" form the scenario parser uses everywhere else.
Status TranslatePositions(const Status& status, const DxLineIndex& lines) {
  if (status.ok()) return status;
  const std::string& msg = status.message();
  static constexpr std::string_view kNeedle = " at offset ";
  size_t at = msg.rfind(kNeedle);
  if (at == std::string::npos) return status;
  size_t digits = at + kNeedle.size();
  size_t end = digits;
  size_t offset = 0;
  while (end < msg.size() && msg[end] >= '0' && msg[end] <= '9') {
    offset = offset * 10 + static_cast<size_t>(msg[end] - '0');
    ++end;
  }
  if (end == digits) return status;
  return Status(status.code(), StrCat(msg.substr(0, at), " at ",
                                      lines.Describe(offset),
                                      msg.substr(end)));
}

class DxParser {
 public:
  DxParser(std::string_view src, Universe* universe)
      : lexer_(src), tok_(lexer_.Next()), universe_(universe) {}

  Result<DxScenario> ParseFile();

  /// After ParseFile failed: lexes the rest of the source and returns the
  /// first lexical error, if any. A lexical error anywhere in the file
  /// outranks a parse error, as it would if the whole file were lexed
  /// before parsing began.
  Status LexicalError() {
    while (tok_.kind != DxTokKind::kEnd && tok_.kind != DxTokKind::kError) {
      tok_ = lexer_.Next();
    }
    return lexer_.status();
  }

 private:
  const DxToken& Peek() const { return tok_; }
  DxToken Advance() {
    DxToken t = tok_;
    tok_ = lexer_.Next();
    return t;
  }
  bool AtEnd() const { return Peek().kind == DxTokKind::kEnd; }
  bool Accept(DxTokKind kind) {
    if (Peek().kind != kind) return false;
    Advance();
    return true;
  }
  bool AcceptKeyword(std::string_view kw) {
    if (Peek().kind != DxTokKind::kIdent || Peek().text != kw) return false;
    Advance();
    return true;
  }

  Status Error(std::string_view message) const {
    return ErrorAt(Peek().offset,
                   Peek().kind == DxTokKind::kEnd
                       ? StrCat(message, " (end of input)")
                       : StrCat(message, " near '", Peek().text, "'"));
  }
  Status ErrorAt(size_t offset, std::string_view message) const {
    return Status::ParseError(
        StrCat(message, " at ", lines().Describe(offset)));
  }
  Status Expect(DxTokKind kind, std::string_view what) {
    if (Peek().kind != kind) return Error(StrCat("expected ", what));
    Advance();
    return Status::OK();
  }
  Result<std::string> ExpectIdent(std::string_view what) {
    if (Peek().kind != DxTokKind::kIdent) {
      return Error(StrCat("expected ", what));
    }
    return std::string(Advance().text);
  }
  const DxLineIndex& lines() const { return lexer_.lines(); }

  Status ParseScenarioDecl(DxScenario* out);
  Status ParseBudgetDecl(DxScenario* out);
  Status ParseSchemaDecl(DxScenario* out);
  Status ParseMappingDecl(DxScenario* out);
  Status ParseInstanceDecl(DxScenario* out);
  Status ParseQueryDecl(DxScenario* out);

  /// An instance's schema relation, resolved once per instance block:
  /// its rel(T) part, and its annotated relation once the instance is
  /// annotated (null before the instance's first `^`).
  struct FactTarget {
    size_t arity;
    Relation* plain;
    AnnotatedRelation* annotated = nullptr;
  };
  using FactTargets = std::unordered_map<std::string_view, FactTarget>;

  /// Parses one fact into `decl`'s relations. The first fact with an
  /// annotated position makes `decl` annotated (SeedAnnotated).
  Status ParseFact(FactTargets& targets, DxInstanceDecl* decl);
  /// Marks `decl` annotated and fills its annotated view with the facts
  /// parsed so far, every position `cl` (the default annotation).
  static void SeedAnnotated(FactTargets& targets, DxInstanceDecl* decl);
  // The fact path reports success as a bool and builds a Status only on
  // failure: it runs once per value of every fact in the file.
  /// Interns the value at the cursor and advances past it; on anything
  /// else returns an invalid Value and consumes nothing.
  Value TakeValue();
  Status ValueError() const;
  /// Takes `op` or `cl` (the token after a `^`) into `*ann`.
  bool TakeAnnName(Ann* ann);
  Status AnnNameError() const {
    return Error("expected 'op' or 'cl' after '^'");
  }

  /// Converts the tokens between the cursor and the next `}` into logic
  /// tokens (absolute offsets preserved) and advances past the `}`.
  /// `block_what` names the block for error messages.
  Result<std::vector<Token>> TakeBlockTokens(std::string_view block_what);

  DxLexer lexer_;
  DxToken tok_;  ///< The one lookahead token.
  Universe* universe_;
  bool saw_scenario_decl_ = false;
  bool saw_budget_decl_ = false;
  /// Null literals are interned per file: `_n1` denotes the same null
  /// everywhere it appears.
  std::map<std::string, Value, std::less<>> nulls_;
  /// Per-fact scratch, reused by every fact: values, and one annotation
  /// per position (`cl` where the text gives none).
  Tuple values_;
  AnnVec ann_;
};

Result<std::vector<Token>> DxParser::TakeBlockTokens(
    std::string_view block_what) {
  std::vector<Token> out;
  while (true) {
    const DxToken t = Peek();
    TokKind kind;
    switch (t.kind) {
      case DxTokKind::kRBrace:
        Advance();
        out.push_back(Token{TokKind::kEnd, "", t.offset});
        return out;
      case DxTokKind::kEnd:
        return Error(StrCat("unterminated ", block_what, " (missing '}')"));
      case DxTokKind::kLBrace:
      case DxTokKind::kLBracket:
      case DxTokKind::kRBracket:
        return Error(StrCat("unexpected '", t.text, "' inside ", block_what));
      case DxTokKind::kIdent: kind = TokKind::kIdent; break;
      case DxTokKind::kQuoted: kind = TokKind::kQuoted; break;
      case DxTokKind::kInt: kind = TokKind::kInt; break;
      case DxTokKind::kLParen: kind = TokKind::kLParen; break;
      case DxTokKind::kRParen: kind = TokKind::kRParen; break;
      case DxTokKind::kComma: kind = TokKind::kComma; break;
      case DxTokKind::kSemicolon: kind = TokKind::kSemicolon; break;
      case DxTokKind::kCaret: kind = TokKind::kCaret; break;
      case DxTokKind::kDot: kind = TokKind::kDot; break;
      case DxTokKind::kEq: kind = TokKind::kEq; break;
      case DxTokKind::kNeq: kind = TokKind::kNeq; break;
      case DxTokKind::kBang: kind = TokKind::kBang; break;
      case DxTokKind::kAmp: kind = TokKind::kAmp; break;
      case DxTokKind::kPipe: kind = TokKind::kPipe; break;
      case DxTokKind::kArrow: kind = TokKind::kArrow; break;
      case DxTokKind::kColonDash: kind = TokKind::kColonDash; break;
      default:
        return Error(StrCat("unexpected token inside ", block_what));
    }
    out.push_back(Token{kind, std::string(t.text), t.offset});
    Advance();
  }
}

Status DxParser::ParseScenarioDecl(DxScenario* out) {
  if (saw_scenario_decl_) {
    return Error("duplicate 'scenario' declaration");
  }
  saw_scenario_decl_ = true;
  if (Peek().kind != DxTokKind::kQuoted && Peek().kind != DxTokKind::kIdent) {
    return Error("expected a scenario name");
  }
  out->name = std::string(Advance().text);
  return Expect(DxTokKind::kSemicolon, "';' after scenario declaration");
}

// `budget { chase_max_triggers = 100; deadline_ms = 500; ... }`
//
// Keys are validated against SetBudgetField (logic/budget.h) at parse
// time, so a typo'd field is a positioned parse error instead of a
// silently ignored setting.
Status DxParser::ParseBudgetDecl(DxScenario* out) {
  if (saw_budget_decl_) {
    return Error("duplicate 'budget' block");
  }
  saw_budget_decl_ = true;
  OCDX_RETURN_IF_ERROR(Expect(DxTokKind::kLBrace, "'{' after 'budget'"));
  Budget probe;
  while (!Accept(DxTokKind::kRBrace)) {
    size_t key_offset = Peek().offset;
    OCDX_ASSIGN_OR_RETURN(std::string key, ExpectIdent("a budget field name"));
    for (const auto& [prev, value] : out->budget_settings) {
      if (prev == key) {
        return ErrorAt(key_offset,
                       StrCat("duplicate budget field '", key, "'"));
      }
    }
    OCDX_RETURN_IF_ERROR(Expect(DxTokKind::kEq, "'=' after budget field"));
    if (Peek().kind != DxTokKind::kInt) {
      return Error("expected an integer budget value");
    }
    size_t value_offset = Peek().offset;
    uint64_t value = 0;
    if (!ParseU64(Advance().text, &value)) {
      return ErrorAt(value_offset, "budget value does not fit in 64 bits");
    }
    OCDX_RETURN_IF_ERROR(
        Expect(DxTokKind::kSemicolon, "';' after budget setting"));
    if (!SetBudgetField(&probe, key, value)) {
      return ErrorAt(
          key_offset,
          StrCat("unknown budget field '", key,
                 "' (expected chase_max_triggers, chase_max_nulls, "
                 "max_members, hom_max_steps, repa_max_steps or "
                 "deadline_ms)"));
    }
    out->budget_settings.emplace_back(std::move(key), value);
  }
  return Status::OK();
}

Status DxParser::ParseSchemaDecl(DxScenario* out) {
  size_t name_offset = Peek().offset;
  OCDX_ASSIGN_OR_RETURN(std::string name, ExpectIdent("a schema name"));
  if (out->FindSchema(name) != nullptr) {
    return ErrorAt(name_offset, StrCat("duplicate schema '", name, "'"));
  }
  OCDX_RETURN_IF_ERROR(Expect(DxTokKind::kLBrace, "'{' after schema name"));
  Schema schema;
  while (!Accept(DxTokKind::kRBrace)) {
    size_t rel_offset = Peek().offset;
    OCDX_ASSIGN_OR_RETURN(std::string rel, ExpectIdent("a relation name"));
    if (schema.Contains(rel)) {
      return ErrorAt(rel_offset, StrCat("duplicate relation '", rel,
                                        "' in schema '", name, "'"));
    }
    OCDX_RETURN_IF_ERROR(
        Expect(DxTokKind::kLParen, "'(' after relation name"));
    std::vector<std::string> attrs;
    if (!Accept(DxTokKind::kRParen)) {
      while (true) {
        OCDX_ASSIGN_OR_RETURN(std::string attr,
                              ExpectIdent("an attribute name"));
        attrs.push_back(std::move(attr));
        if (Accept(DxTokKind::kComma)) continue;
        OCDX_RETURN_IF_ERROR(Expect(DxTokKind::kRParen, "')' or ','"));
        break;
      }
    }
    OCDX_RETURN_IF_ERROR(
        Expect(DxTokKind::kSemicolon, "';' after relation declaration"));
    schema.Add(std::move(rel), std::move(attrs));
  }
  out->schemas.push_back(DxSchemaDecl{std::move(name), std::move(schema)});
  return Status::OK();
}

Status DxParser::ParseMappingDecl(DxScenario* out) {
  size_t name_offset = Peek().offset;
  OCDX_ASSIGN_OR_RETURN(std::string name, ExpectIdent("a mapping name"));
  if (out->FindMapping(name) != nullptr) {
    return ErrorAt(name_offset, StrCat("duplicate mapping '", name, "'"));
  }
  if (!AcceptKeyword("from")) return Error("expected 'from'");
  OCDX_ASSIGN_OR_RETURN(std::string from, ExpectIdent("a source schema name"));
  if (!AcceptKeyword("to")) return Error("expected 'to'");
  OCDX_ASSIGN_OR_RETURN(std::string to, ExpectIdent("a target schema name"));

  const DxSchemaDecl* source = out->FindSchema(from);
  if (source == nullptr) {
    return ErrorAt(name_offset, StrCat("mapping '", name,
                                       "' refers to undeclared schema '",
                                       from, "'"));
  }
  const DxSchemaDecl* target = out->FindSchema(to);
  if (target == nullptr) {
    return ErrorAt(name_offset, StrCat("mapping '", name,
                                       "' refers to undeclared schema '", to,
                                       "'"));
  }

  DxMappingDecl decl;
  decl.name = std::move(name);
  decl.from = std::move(from);
  decl.to = std::move(to);
  decl.line = lines().LineOf(name_offset);
  decl.col = lines().ColOf(name_offset);
  if (Accept(DxTokKind::kLBracket)) {
    while (true) {
      if (AcceptKeyword("default")) {
        if (AcceptKeyword("op")) {
          decl.default_ann = Ann::kOpen;
        } else if (AcceptKeyword("cl")) {
          decl.default_ann = Ann::kClosed;
        } else {
          return Error("expected 'op' or 'cl' after 'default'");
        }
      } else if (AcceptKeyword("skolem")) {
        decl.skolem = true;
      } else {
        return Error("expected a mapping attribute ('default op|cl' or "
                     "'skolem')");
      }
      if (Accept(DxTokKind::kComma)) continue;
      OCDX_RETURN_IF_ERROR(Expect(DxTokKind::kRBracket, "']' or ','"));
      break;
    }
  }
  OCDX_RETURN_IF_ERROR(Expect(DxTokKind::kLBrace, "'{' before mapping rules"));

  OCDX_ASSIGN_OR_RETURN(std::vector<Token> block,
                        TakeBlockTokens("mapping block"));
  FormulaParser rules(std::move(block), universe_);
  Mapping mapping(source->schema, target->schema);
  while (!rules.AtEnd()) {
    Result<AnnotatedStd> std_ = ParseStdAt(&rules, decl.default_ann);
    if (!std_.ok()) return TranslatePositions(std_.status(), lines());
    mapping.AddStd(std::move(std_).value());
    if (!rules.Accept(TokKind::kSemicolon) && !rules.AtEnd()) {
      return TranslatePositions(rules.MakeError("expected ';' between rules"),
                                lines());
    }
  }
  Status valid = mapping.Validate(/*allow_functions=*/decl.skolem);
  if (!valid.ok()) {
    return Status(valid.code(), StrCat("in mapping '", decl.name, "' (",
                                       lines().Describe(name_offset), "): ",
                                       valid.message()));
  }
  decl.mapping = std::move(mapping);
  out->mappings.push_back(std::move(decl));
  return Status::OK();
}

bool DxParser::TakeAnnName(Ann* ann) {
  if (Peek().kind != DxTokKind::kIdent) return false;
  if (Peek().text == "op") {
    *ann = Ann::kOpen;
  } else if (Peek().text == "cl") {
    *ann = Ann::kClosed;
  } else {
    return false;
  }
  Advance();
  return true;
}

Value DxParser::TakeValue() {
  const DxToken& t = Peek();
  if (t.kind == DxTokKind::kQuoted || t.kind == DxTokKind::kInt) {
    return universe_->Const(Advance().text);
  }
  if (t.kind != DxTokKind::kIdent || t.text[0] != '_' || t.text.size() == 1) {
    return Value();
  }
  std::string_view name = Advance().text;
  auto it = nulls_.find(name);
  if (it != nulls_.end()) return it->second;
  // Label without the '_': Universe::Describe prepends it back.
  Value null = universe_->FreshNull(std::string(name.substr(1)));
  nulls_.emplace(std::string(name), null);
  return null;
}

Status DxParser::ValueError() const {
  if (Peek().kind == DxTokKind::kIdent && Peek().text == "_") {
    return Error("a null literal needs a name after '_'");
  }
  return Error("expected a value ('const', integer, or _null)");
}

Status DxParser::ParseFact(FactTargets& targets, DxInstanceDecl* decl) {
  const size_t offset = Peek().offset;
  if (Peek().kind != DxTokKind::kIdent) {
    return Error("expected a relation name");
  }
  const std::string_view rel = Advance().text;
  const auto target_it = targets.find(rel);
  if (target_it == targets.end()) {
    return ErrorAt(offset,
                   StrCat("relation '", rel,
                          "' is not declared in the instance's schema"));
  }
  OCDX_RETURN_IF_ERROR(Expect(DxTokKind::kLParen, "'(' after relation name"));
  values_.clear();
  ann_.clear();
  size_t marker_positions = 0;
  bool any_annotated = false;
  if (!Accept(DxTokKind::kRParen)) {
    while (true) {
      Ann a = Ann::kClosed;
      if (Accept(DxTokKind::kCaret)) {
        // Bare annotation: an empty-marker position.
        if (!TakeAnnName(&a)) return AnnNameError();
        ++marker_positions;
        any_annotated = true;
      } else {
        Value v = TakeValue();
        if (!v.IsValid()) return ValueError();
        values_.push_back(v);
        // Positions without an explicit annotation default to `cl`
        // (matching the rule parser's default).
        if (Accept(DxTokKind::kCaret)) {
          if (!TakeAnnName(&a)) return AnnNameError();
          any_annotated = true;
        }
      }
      ann_.push_back(a);
      if (Accept(DxTokKind::kComma)) continue;
      OCDX_RETURN_IF_ERROR(Expect(DxTokKind::kRParen, "')' or ','"));
      break;
    }
  }
  OCDX_RETURN_IF_ERROR(Expect(DxTokKind::kSemicolon, "';' after fact"));

  if (marker_positions > 0 && marker_positions != ann_.size()) {
    return ErrorAt(offset, StrCat("fact for '", rel,
                                  "' mixes empty-marker positions with "
                                  "values"));
  }
  const FactTarget& target = target_it->second;
  const size_t arity =
      marker_positions > 0 ? marker_positions : values_.size();
  if (arity != target.arity) {
    return ErrorAt(offset, StrCat("fact for '", rel, "' has arity ", arity,
                                  " but the schema declares arity ",
                                  target.arity));
  }
  if (any_annotated && !decl->annotated) SeedAnnotated(targets, decl);
  if (marker_positions == 0) target.plain->Add(values_);
  if (decl->annotated) target.annotated->Add(AnnotatedTupleRef{values_, ann_});
  return Status::OK();
}

void DxParser::SeedAnnotated(FactTargets& targets, DxInstanceDecl* decl) {
  decl->annotated = true;
  for (auto& [name, target] : targets) {
    target.annotated = &decl->annotated_instance.GetOrCreate(
        std::string(name), target.arity);
    const std::vector<Ann> closed(target.arity, Ann::kClosed);
    for (TupleRef t : target.plain->tuples()) {
      target.annotated->Add(AnnotatedTupleRef{t, closed});
    }
  }
}

Status DxParser::ParseInstanceDecl(DxScenario* out) {
  size_t name_offset = Peek().offset;
  OCDX_ASSIGN_OR_RETURN(std::string name, ExpectIdent("an instance name"));
  if (out->FindInstance(name) != nullptr) {
    return ErrorAt(name_offset, StrCat("duplicate instance '", name, "'"));
  }
  if (!AcceptKeyword("over")) return Error("expected 'over'");
  OCDX_ASSIGN_OR_RETURN(std::string over, ExpectIdent("a schema name"));
  const DxSchemaDecl* schema = out->FindSchema(over);
  if (schema == nullptr) {
    return ErrorAt(name_offset, StrCat("instance '", name,
                                       "' refers to undeclared schema '",
                                       over, "'"));
  }
  if (Peek().kind != DxTokKind::kLBrace) {
    return Error("expected '{' before instance facts");
  }
  Advance();

  DxInstanceDecl decl;
  decl.name = std::move(name);
  decl.over = std::move(over);
  // Pre-declare every schema relation so empty relations print and chase
  // over the instance sees the full vocabulary; each fact then goes
  // straight into its relation.
  FactTargets targets;
  for (const RelationDecl& rd : schema->schema.decls()) {
    Relation& rel = decl.plain.GetOrCreate(rd.name, rd.arity());
    targets.emplace(rd.name, FactTarget{rd.arity(), &rel});
  }
  while (!Accept(DxTokKind::kRBrace)) {
    OCDX_RETURN_IF_ERROR(ParseFact(targets, &decl));
  }
  out->instances.push_back(std::move(decl));
  return Status::OK();
}

Status DxParser::ParseQueryDecl(DxScenario* out) {
  size_t name_offset = Peek().offset;
  OCDX_ASSIGN_OR_RETURN(std::string name, ExpectIdent("a query name"));
  if (out->FindQuery(name) != nullptr) {
    return ErrorAt(name_offset, StrCat("duplicate query '", name, "'"));
  }
  DxQuery query;
  query.name = std::move(name);
  query.line = lines().LineOf(name_offset);
  query.col = lines().ColOf(name_offset);
  OCDX_RETURN_IF_ERROR(Expect(DxTokKind::kLParen, "'(' after query name"));
  if (!Accept(DxTokKind::kRParen)) {
    while (true) {
      OCDX_ASSIGN_OR_RETURN(std::string var, ExpectIdent("a variable name"));
      query.vars.push_back(std::move(var));
      if (Accept(DxTokKind::kComma)) continue;
      OCDX_RETURN_IF_ERROR(Expect(DxTokKind::kRParen, "')' or ','"));
      break;
    }
  }
  if (Peek().kind == DxTokKind::kQuoted) {
    query.description = std::string(Advance().text);
  }
  OCDX_RETURN_IF_ERROR(
      Expect(DxTokKind::kLBrace, "'{' before the query formula"));
  OCDX_ASSIGN_OR_RETURN(std::vector<Token> block,
                        TakeBlockTokens("query block"));
  FormulaParser formula_parser(std::move(block), universe_);
  Result<FormulaPtr> formula = formula_parser.ParseComplete();
  if (!formula.ok()) return TranslatePositions(formula.status(), lines());
  query.formula = std::move(formula).value();

  // The declared head must name exactly the free variables (in the
  // caller's column order; the set equality is what we can check).
  std::vector<std::string> free = FreeVars(query.formula);
  std::set<std::string> declared(query.vars.begin(), query.vars.end());
  std::set<std::string> actual(free.begin(), free.end());
  if (declared.size() != query.vars.size()) {
    return ErrorAt(name_offset,
                   StrCat("query '", query.name, "' repeats a head variable"));
  }
  if (declared != actual) {
    return ErrorAt(
        name_offset,
        StrCat("query '", query.name, "' declares variables (",
               Join(query.vars, ", "), ") but its free variables are (",
               Join(free, ", "), ")"));
  }
  // Typo guard: every relation mentioned must exist in some schema.
  for (const std::string& rel : RelationsIn(query.formula)) {
    bool found = false;
    for (const DxSchemaDecl& s : out->schemas) {
      if (s.schema.Contains(rel)) {
        found = true;
        break;
      }
    }
    if (!found) {
      return ErrorAt(name_offset,
                     StrCat("query '", query.name, "' uses relation '", rel,
                            "' not declared in any schema"));
    }
  }
  out->queries.push_back(std::move(query));
  return Status::OK();
}

Result<DxScenario> DxParser::ParseFile() {
  DxScenario out;
  while (!AtEnd()) {
    if (AcceptKeyword("scenario")) {
      OCDX_RETURN_IF_ERROR(ParseScenarioDecl(&out));
    } else if (AcceptKeyword("budget")) {
      OCDX_RETURN_IF_ERROR(ParseBudgetDecl(&out));
    } else if (AcceptKeyword("schema")) {
      OCDX_RETURN_IF_ERROR(ParseSchemaDecl(&out));
    } else if (AcceptKeyword("mapping")) {
      OCDX_RETURN_IF_ERROR(ParseMappingDecl(&out));
    } else if (AcceptKeyword("instance")) {
      OCDX_RETURN_IF_ERROR(ParseInstanceDecl(&out));
    } else if (AcceptKeyword("query")) {
      OCDX_RETURN_IF_ERROR(ParseQueryDecl(&out));
    } else {
      return Error(
          "expected 'scenario', 'budget', 'schema', 'mapping', 'instance' "
          "or 'query'");
    }
  }
  return out;
}

}  // namespace

Result<DxScenario> ParseDxScenario(std::string_view src, Universe* universe) {
  DxParser parser(src, universe);
  Result<DxScenario> out = parser.ParseFile();
  if (out.ok()) return out;
  Status lexical = parser.LexicalError();
  return lexical.ok() ? out : Result<DxScenario>(std::move(lexical));
}

}  // namespace ocdx
