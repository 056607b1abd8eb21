// Loading a schema + KB program for static analysis.
//
// classic-lint analyzes whole programs in the operator language (the same
// `.classic` / `.clq` files the REPL and snapshot replay consume). The
// loader replays the program's definitions and assertions into a private
// scratch Database — the user's database is never touched — while
// recording, for every defined name, where it was defined, and for every
// diagnostic-worthy event (undefined reference, rejected operation) a
// located Diagnostic. Unlike the interpreter, the loader does not stop at
// the first error: a form that cannot be executed is reported and
// skipped, so one run surfaces every problem in the file.

#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analyze/diagnostics.h"
#include "classic/database.h"
#include "sexpr/sexpr.h"
#include "util/result.h"
#include "util/status.h"

namespace classic::analyze {

/// \brief A loaded program: the scratch database plus the source maps the
/// analysis passes need to attach real positions to their findings.
struct AnalyzedProgram {
  /// Display label used in diagnostics (the path as given).
  std::string file;

  /// All toplevel forms, in order, with source locations.
  std::vector<sexpr::Value> forms;

  /// The scratch database the program was replayed into.
  std::unique_ptr<Database> db;

  /// Definition sites by name.
  std::map<std::string, SourceLocation> concept_sites;
  std::map<std::string, SourceLocation> role_sites;

  /// Index into `forms` of each concept's define-concept form (for
  /// conjunct-level positions).
  std::map<std::string, size_t> concept_form_index;

  /// Source location of rule i (parallel to db->kb().rules()).
  std::vector<SourceLocation> rule_sites;

  /// Concepts whose definition could not be installed (undefined
  /// references or a rejected define) — the passes skip them.
  std::set<std::string> broken_concepts;

  /// How often each symbol occurs outside its own defining position
  /// (vocabulary-hygiene input; includes occurrences in query forms).
  std::map<std::string, size_t> mentions;

  /// Diagnostics emitted while loading (C000/C007/C011).
  std::vector<Diagnostic> load_diagnostics;
};

/// \brief Parses and replays `text`. `file_label` is used verbatim in
/// diagnostic locations (pass a relative path for stable golden files).
/// A program whose surface syntax cannot be read at all still returns a
/// program (with a C000 diagnostic), so the CLI has one rendering path;
/// the Result is only an error for invariant violations.
Result<AnalyzedProgram> LoadProgram(std::string file_label,
                                    const std::string& text);

/// \brief Reads `path` and loads it; IO failures are a Status error.
Result<AnalyzedProgram> LoadProgramFile(const std::string& path);

}  // namespace classic::analyze
