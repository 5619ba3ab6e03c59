// Which corpus files the generic engine (JoinEngineMode::kGeneric) runs
// in tests. bulk_import.dx rides ~24k facts that the active-domain
// evaluator enumerates as its domain — about a minute per run — so the
// corpus-wide generic legs skip it; its golden pins it under kIndexed.

#ifndef OCDX_TESTS_GENERIC_CORPUS_H_
#define OCDX_TESTS_GENERIC_CORPUS_H_

#include <filesystem>
#include <string>
#include <vector>

namespace ocdx {

inline bool GenericAffordable(const std::filesystem::path& file) {
  return file.filename() != "bulk_import.dx";
}

/// `files` without the ones GenericAffordable rejects.
template <typename Path>
std::vector<Path> GenericAffordableFiles(const std::vector<Path>& files) {
  std::vector<Path> out;
  for (const Path& f : files) {
    if (GenericAffordable(f)) out.push_back(f);
  }
  return out;
}

}  // namespace ocdx

#endif  // OCDX_TESTS_GENERIC_CORPUS_H_
