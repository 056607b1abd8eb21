// classic::Database — the public API of the library.
//
// One object exposes the paper's full interface (its Appendix-level
// brevity was a stated design goal): schema definition, updates, rules,
// the three kinds of queries, introspection, and persistence. All
// descriptions are accepted in the paper's concrete syntax:
//
//   Database db;
//   db.DefineRole("enrolled-at");
//   db.DefineConcept("STUDENT", "(AND PERSON (AT-LEAST 1 enrolled-at))");
//   db.CreateIndividual("Rocky", "PERSON");
//   db.AssertInd("Rocky", "(FILLS enrolled-at Rutgers)");
//   db.Ask("STUDENT");   // -> {"Rocky"}  (recognized, never asserted)
//
// Structured (DescPtr / Query) overloads are available for programmatic
// use; the string overloads parse and delegate.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "kb/knowledge_base.h"
#include "query/describe.h"
#include "query/introspect.h"
#include "query/query.h"
#include "storage/log.h"

namespace classic {

struct QueryRequest;

/// \brief A CLASSIC database instance. Single-writer; not thread-safe by
/// itself — for concurrent query serving, hand kb() to
/// KbEngine::PublishFrom (kb/kb_engine.h), which copies it copy-on-write
/// and publishes immutable epoch snapshots to any number of reader
/// threads. Publication does not copy the database's contents:
/// snapshots share chunked storage with the master, and the writer
/// copies only what it changes afterwards.
class Database {
 public:
  Database();

  KnowledgeBase& kb() { return kb_; }
  const KnowledgeBase& kb() const { return kb_; }

  // --- Schema (DDL) -------------------------------------------------------

  /// \brief define-role[name]. Multi-valued unless declared an attribute.
  Status DefineRole(const std::string& name);

  /// \brief Declares a single-valued role, usable in SAME-AS chains.
  Status DefineAttribute(const std::string& name);

  /// \brief define-concept[name, definition].
  Status DefineConcept(const std::string& name,
                       const std::string& definition);
  Status DefineConcept(const std::string& name, DescPtr definition);

  /// \brief Registers a host TEST function.
  Status RegisterTest(const std::string& name, TestFn fn);

  /// \brief assert-rule[antecedent, consequent].
  Status AssertRule(const std::string& antecedent,
                    const std::string& consequent);

  // --- Updates (DML) ------------------------------------------------------

  /// \brief create-ind[name].
  Status CreateIndividual(const std::string& name);
  /// \brief create-ind[name, description].
  Status CreateIndividual(const std::string& name,
                          const std::string& description);

  /// \brief assert-ind[name, expression]; rejected atomically on
  /// integrity violation.
  Status AssertInd(const std::string& name, const std::string& expression);
  Status AssertInd(const std::string& name, DescPtr expression);

  /// \brief Bulk load: many assert-inds applied as ONE atomic update
  /// whose descriptive parts settle in a single propagation wavefront.
  /// CLOSE conjuncts apply in batch order after that settlement, so a
  /// batch is not always equivalent to the same asserts in sequence —
  /// see KnowledgeBase::AssertIndBatch. Logged as per-entry assert-ind
  /// lines (replay-compatible).
  Status BulkAssert(
      const std::vector<std::pair<std::string, std::string>>& assertions);

  /// \brief Retraction ("destructive update"): removes a base assertion
  /// and re-derives.
  Status RetractInd(const std::string& name, const std::string& expression);

  // --- Queries --------------------------------------------------------------
  //
  // The string-returning reads (Ask, AskPossible, AskDescription,
  // InstancesOf, MostSpecificConcepts, DescribeIndividual) are served by
  // the engine's one dispatch, KbEngine::ServeQuery, over the live base:
  // the facade, the repl and the wire answer every read the same way.

  /// \brief ask-necessary-set: names of individuals known to satisfy the
  /// query (which may contain one ?: marker).
  Result<std::vector<std::string>> Ask(const std::string& query) const;

  /// \brief Same, with execution statistics.
  Result<RetrievalResult> AskWithStats(const std::string& query) const;

  /// \brief Individuals that *might* satisfy the query (open world).
  Result<std::vector<std::string>> AskPossible(const std::string& query) const;

  /// \brief ask-description: the necessary description of all possible
  /// answers, rendered in concrete syntax.
  Result<std::string> AskDescription(const std::string& query) const;
  /// \brief Same, structured: the description plus the most specific
  /// named concepts subsuming it.
  Result<DescriptionAnswer> AskDescriptionFull(const std::string& query) const;

  /// \brief concept-subsumes[c1, c2] over arbitrary expressions.
  Result<bool> Subsumes(const std::string& c1, const std::string& c2) const;
  Result<bool> Equivalent(const std::string& c1, const std::string& c2) const;
  /// \brief Is the expression satisfiable?
  Result<bool> Coherent(const std::string& c) const;

  // --- Introspection --------------------------------------------------------

  /// \brief Known instances of a named concept.
  Result<std::vector<std::string>> InstancesOf(
      const std::string& concept_name) const;

  /// \brief Most specific named concepts an individual is recognized
  /// under.
  Result<std::vector<std::string>> MostSpecificConcepts(
      const std::string& ind_name) const;

  /// \brief The individual's full derived description, rendered.
  Result<std::string> DescribeIndividual(const std::string& ind_name) const;

  /// \brief ind-aspect[i, FILLS, role]: filler display names.
  Result<std::vector<std::string>> Fillers(const std::string& ind_name,
                                           const std::string& role) const;
  /// \brief ind-aspect[i, CLOSE, role].
  Result<bool> RoleClosed(const std::string& ind_name,
                          const std::string& role) const;

  /// \brief Explanation tree for "is this individual an instance of this
  /// concept?" — the deployed system's audit facility.
  Result<std::string> WhyInstance(const std::string& ind_name,
                                  const std::string& concept_expr) const;

  /// \brief Explanation tree for "does c1 subsume c2?".
  Result<std::string> WhySubsumes(const std::string& c1,
                                  const std::string& c2) const;

  Result<std::vector<std::string>> Parents(const std::string& concept_name) const;
  Result<std::vector<std::string>> Children(const std::string& concept_name) const;
  Result<std::vector<std::string>> Ancestors(const std::string& concept_name) const;
  Result<std::vector<std::string>> Descendants(
      const std::string& concept_name) const;

  /// \brief Resolves an individual name to its id.
  Result<IndId> FindIndividual(const std::string& name) const;

  // --- Persistence ------------------------------------------------------------

  /// \brief Starts logging every accepted mutating operation to `path`.
  Status OpenLog(const std::string& path);

  /// \brief Writes a replayable snapshot of the whole base to `path`.
  Status SaveSnapshot(const std::string& path) const;

  /// \brief Replays a snapshot / log file (see interpreter.h). TEST
  /// functions referenced by the file must be registered first. A file
  /// that cannot be read, or that has a syntax error anywhere, applies
  /// nothing; a form that fails to apply stops the replay there.
  Status LoadFile(const std::string& path);

  /// \brief Checkpoint: writes a snapshot to `path` and truncates the
  /// open operation log (the snapshot now subsumes it). Recovery after a
  /// checkpoint = load the snapshot, then replay the (short) log.
  Status Checkpoint(const std::string& snapshot_path);

 private:
  friend class Interpreter;

  /// Appends to the op log if one is open. A logging failure is surfaced
  /// as IOError (the in-memory operation has already taken effect and is
  /// NOT rolled back; the message says so).
  Status LogOp(const std::string& line);

  Result<DescPtr> Parse(const std::string& text) const;

  /// Serves one read request against the live base
  /// (KbEngine::ServeQuery); the answer values, or the answer's error.
  Result<std::vector<std::string>> ServeQuery(
      const QueryRequest& request) const;

  KnowledgeBase kb_;
  storage::OperationLog log_;
  /// Suppresses logging during replay.
  bool replaying_ = false;
};

}  // namespace classic
