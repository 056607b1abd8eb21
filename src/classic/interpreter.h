// The operator-language interpreter.
//
// One small language drives the whole database (the paper's "simple and
// uniform interface": "the description of the entire interface is brief").
// Each operation is an s-expression; the interpreter executes it against a
// Database and renders the result as text. The same interpreter powers the
// interactive REPL example, snapshot/log replay, and scripting in tests.
//
// Operations:
//   (define-role r)                  (define-attribute a)
//   (define-concept NAME <concept>)  (assert-rule NAME <concept>)
//   (create-ind Name [<concept>])    (assert-ind Name <expr>)
//   (retract-ind Name <expr>)
//   (ask <query>)                    (ask-possible <query>)
//   (ask-description <query>)        (summarize <query>)
//   (select (?v...) atoms...)
//   (subsumes <c1> <c2>)             (equivalent <c1> <c2>)
//   (coherent <c>)
//   (instances NAME)                 (msc IndName)
//   (describe IndName)               (fillers IndName role)
//   (closed? IndName role)
//   (parents NAME) (children NAME) (ancestors NAME) (descendants NAME)
//   (concept-aspect NAME ASPECT [role])
//   (ind-aspect IndName ASPECT role)
//   (save-snapshot "path")           (load "path")
//   (publish)                        (epochs)
//   (as-of EPOCH <read-form>)        (explain <read-form>)
//
// The read forms — ask, ask-possible, ask-description, select,
// instances, msc, describe, explain and the wire's canonical
// (request <kind> "<text>" [epoch] [explain]) — have exactly one path:
// Session::RequestFromForm parses them into a QueryRequest,
// KbEngine::ServeQuery answers it and the answer is printed as a name
// list, path-query rows, or text lines (ask-description prints the
// description, then the most specific named concepts, one per line).
// It is the parser and dispatch the wire protocol and classic_stats
// use, so the repl cannot answer a read differently from them.
//
// The epoch forms expose O(delta) copy-on-write publication: (publish)
// captures the database's current state as the next epoch (cost
// proportional to the mutations since the previous capture — snapshots
// share chunked storage with the live database), (epochs) lists the
// retained epoch numbers, and (as-of N <form>) serves a read form
// against retained epoch N, i.e. against history. A read form that
// names its own epoch — (request ask "STUDENT" 3) — is routed the same
// way; every other read is served from the live database.
//
// (explain <form>) prints the query planner's plan tree above the
// answer: the candidate sources, the streamed base first, with
// estimated and actual per-node cardinalities (query/planner.h).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "classic/database.h"
#include "kb/kb_engine.h"
#include "kb/session.h"
#include "sexpr/sexpr.h"
#include "util/result.h"

namespace classic {

/// \brief Executes operator-language forms against a Database.
class Interpreter {
 public:
  explicit Interpreter(Database* db) : db_(db) {}

  /// \brief Executes one form; returns its printable result ("ok" for
  /// updates).
  Result<std::string> Execute(const sexpr::Value& op);

  /// \brief Parses and executes one form from text.
  Result<std::string> ExecuteString(const std::string& text);

  /// \brief Executes every form in a program; stops at the first error.
  /// Returns the outputs of all executed forms.
  Result<std::vector<std::string>> ExecuteProgram(const std::string& text);

 private:
  /// Lazily created on the first (publish): the epoch-serving engine and
  /// the Session facade behind (epochs) and (as-of ...). The repl is a
  /// thin client of the same Session API the network front-end
  /// (src/serve) speaks, so epoch semantics cannot drift between the
  /// two.
  Session& TheSession();

  Database* db_;
  std::unique_ptr<KbEngine> engine_;
  std::unique_ptr<Session> session_;
};

}  // namespace classic
