#include "text/dx_printer.h"

#include <algorithm>

#include "util/str.h"

namespace ocdx {

std::string DxValueLiteral(Value v, const Universe& u) {
  if (v.IsConst()) return StrCat("'", u.Describe(v), "'");
  // Universe::Describe renders every null with a leading underscore, which
  // is exactly the `.dx` null-literal form.
  return u.Describe(v);
}

namespace {

void PrintSchema(const DxSchemaDecl& decl, std::string* out) {
  *out += StrCat("schema ", decl.name, " {\n");
  for (const RelationDecl& rd : decl.schema.decls()) {
    *out += StrCat("  ", rd.name, "(", Join(rd.attrs, ", "), ");\n");
  }
  *out += "}\n";
}

void PrintMapping(const DxMappingDecl& decl, const Universe& u,
                  std::string* out) {
  *out += StrCat("mapping ", decl.name, " from ", decl.from, " to ", decl.to);
  if (decl.skolem) *out += " [skolem]";
  *out += " {\n";
  // Every head position prints its annotation explicitly, so the block is
  // independent of the declaration's default annotation.
  for (const AnnotatedStd& std_ : decl.mapping.stds()) {
    *out += StrCat("  ", std_.ToString(u), ";\n");
  }
  *out += "}\n";
}

// `ann` is empty for a fact of an unannotated instance.
std::string FactLine(const std::string& rel, TupleRef values, AnnRef ann,
                     const Universe& u) {
  std::vector<std::string> args;
  if (values.empty()) {
    // An empty marker (or a 0-ary fact, which has no positions at all).
    for (Ann a : ann) args.push_back(StrCat("^", AnnToString(a)));
  } else {
    for (size_t i = 0; i < values.size(); ++i) {
      std::string arg = DxValueLiteral(values[i], u);
      if (!ann.empty()) arg += StrCat("^", AnnToString(ann[i]));
      args.push_back(std::move(arg));
    }
  }
  return StrCat("  ", rel, "(", Join(args, ", "), ");\n");
}

// Each relation's facts, one per line, sorted.
template <typename Relations, typename Line>
void PrintFacts(const Relations& relations, const Line& line,
                std::string* out) {
  for (const auto& [rel, relation] : relations) {
    std::vector<std::string> lines;
    for (const auto& t : relation.tuples()) lines.push_back(line(rel, t));
    std::sort(lines.begin(), lines.end());
    for (const std::string& l : lines) *out += l;
  }
}

void PrintInstance(const DxInstanceDecl& decl, const Universe& u,
                   std::string* out) {
  *out += StrCat("instance ", decl.name, " over ", decl.over, " {\n");
  if (decl.annotated) {
    PrintFacts(decl.annotated_instance.relations(),
               [&](const std::string& rel, const AnnotatedTupleRef& t) {
                 return FactLine(rel, t.values, t.ann, u);
               },
               out);
  } else {
    PrintFacts(decl.plain.relations(),
               [&](const std::string& rel, TupleRef t) {
                 return FactLine(rel, t, {}, u);
               },
               out);
  }
  *out += "}\n";
}

void PrintQuery(const DxQuery& query, const Universe& u, std::string* out) {
  *out += StrCat("query ", query.name, "(", Join(query.vars, ", "), ")");
  if (!query.description.empty()) {
    *out += StrCat(" '", query.description, "'");
  }
  *out += StrCat(" {\n  ", query.formula->ToString(u), "\n}\n");
}

}  // namespace

std::string PrintDxScenario(const DxScenario& scenario, const Universe& u) {
  std::string out;
  if (!scenario.name.empty()) {
    out += StrCat("scenario '", scenario.name, "';\n\n");
  }
  if (!scenario.budget_settings.empty()) {
    out += "budget {\n";
    for (const auto& [key, value] : scenario.budget_settings) {
      out += StrCat("  ", key, " = ", value, ";\n");
    }
    out += "}\n\n";
  }
  for (const DxSchemaDecl& s : scenario.schemas) {
    PrintSchema(s, &out);
    out += "\n";
  }
  for (const DxMappingDecl& m : scenario.mappings) {
    PrintMapping(m, u, &out);
    out += "\n";
  }
  for (const DxInstanceDecl& i : scenario.instances) {
    PrintInstance(i, u, &out);
    out += "\n";
  }
  for (const DxQuery& q : scenario.queries) {
    PrintQuery(q, u, &out);
    out += "\n";
  }
  // Exactly one trailing newline: trim the section separator.
  while (out.size() >= 2 && out[out.size() - 1] == '\n' &&
         out[out.size() - 2] == '\n') {
    out.pop_back();
  }
  return out;
}

}  // namespace ocdx
