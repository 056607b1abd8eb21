// Snapshots: dumping a knowledge base as a canonical replayable program.
//
// Everything in a CLASSIC database is re-derivable from its *base*: role
// declarations, concept definitions, individuals, rules and the base
// assertions (derived knowledge is recomputed by the propagation engine
// during replay). A snapshot is therefore simply that base, rendered in
// the operator language, ordered so that replay resolves every name:
//
//   (define-role r) / (define-attribute a)
//   (create-ind Name)          ; individuals may appear in definitions
//   (define-concept NAME <definition>)
//   (assert-rule NAME <consequent>)
//   (assert-ind Name <expression>)   ; in the order they were accepted
//
// TEST functions are host-language closures and cannot be serialized; a
// snapshot references them by name and they must be re-registered before
// replay (exactly the paper's stance: tests live in the host language).

#pragma once

#include <string>

#include "kb/knowledge_base.h"
#include "util/status.h"

namespace classic::storage {

/// \brief Renders the knowledge base's entire base as a replayable
/// program.
std::string DumpDatabase(const KnowledgeBase& kb);

/// \brief Replaces `path` with DumpDatabase(kb): writes and syncs
/// `<path>.tmp`, renames it over `path`, then syncs the directory. On
/// failure the temp file is removed and `path` is left as it was.
Status WriteSnapshotFile(const KnowledgeBase& kb, const std::string& path);

}  // namespace classic::storage
