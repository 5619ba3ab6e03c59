// Recursive-descent parser for `.dx` scenario files.
//
// The grammar (EBNF, authoritative copy with examples in docs/format.md):
//
//   file      := item*
//   item      := scenario | schema | mapping | instance | query
//   scenario  := 'scenario' STRING ';'
//   schema    := 'schema' NAME '{' reldecl* '}'
//   reldecl   := NAME '(' [ NAME (',' NAME)* ] ')' ';'
//   mapping   := 'mapping' NAME 'from' NAME 'to' NAME [attrs] '{' rule* '}'
//   attrs     := '[' attr (',' attr)* ']'
//   attr      := 'default' ('op' | 'cl') | 'skolem'
//   rule      := <rule grammar of mapping/rule_parser.h> ';'
//   instance  := 'instance' NAME 'over' NAME '{' fact* '}'
//   fact      := NAME '(' [ factarg (',' factarg)* ] ')' ';'
//   factarg   := value ['^' ('op' | 'cl')]    -- an (annotated) value
//              | '^' ('op' | 'cl')            -- an empty-marker position
//   value     := STRING | INTEGER | NULLNAME  -- NULLNAME starts with '_'
//   query     := 'query' NAME '(' [ NAME (',' NAME)* ] ')' [STRING]
//                '{' <formula grammar of logic/parser.h> '}'
//
// Rule bodies and query formulas are parsed by the existing recursive-
// descent parsers (logic/parser.h, mapping/rule_parser.h) over tokens
// re-based to absolute file offsets, so every error — lexical, scenario-
// structural, or deep inside a formula — reports a "line L, col C"
// position in the `.dx` file.
//
// The parse is one streaming pass: the parser pulls tokens from a
// DxLexer (text/dx_lexer.h) with one token of lookahead, and no token
// vector or fact buffer is ever built. When an instance block opens,
// each schema relation is resolved once to its AnnotatedRelation; every
// fact is then parsed into two scratch buffers (values, annotations)
// that all facts reuse, and added to its relation at once.
//
// Invariants:
//   - Constants and nulls get Universe ids in order of first appearance
//     in the text, whatever block they appear in. Canonical output
//     relies on it.
//   - A lexical error anywhere in the file outranks a parse error: when
//     the parse fails, the rest of the file is lexed and its first
//     lexical error, if any, is reported instead, exactly as if the
//     whole file had been lexed up front.

#ifndef OCDX_TEXT_DX_PARSER_H_
#define OCDX_TEXT_DX_PARSER_H_

#include <string_view>

#include "text/dx_scenario.h"
#include "util/status.h"

namespace ocdx {

/// Parses a complete `.dx` file. Constants and nulls are interned into
/// `*universe`; all cross-references (schema names, fact arities, query
/// variables vs. free variables, mapping validity) are checked, so an OK
/// result is ready for the driver (text/dx_driver.h) with no further
/// validation.
Result<DxScenario> ParseDxScenario(std::string_view src, Universe* universe);

}  // namespace ocdx

#endif  // OCDX_TEXT_DX_PARSER_H_
