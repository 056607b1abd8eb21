#include "storage/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>

#include "util/string_util.h"

namespace classic::storage {

namespace {

/// Writes all of `data` to `fd`; false (errno set) on the first failure.
bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

/// Syncs the directory holding `path`, so a rename into it is durable.
Status SyncParentDirectory(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0 || ::fsync(fd) != 0) {
    const std::string error = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    return Status::IOError(
        StrCat("cannot sync snapshot directory ", dir, ": ", error));
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace

std::string DumpDatabase(const KnowledgeBase& kb) {
  const Vocabulary& vocab = kb.vocab();
  const SymbolTable& symbols = vocab.symbols();
  // One buffer for the whole program: every description is appended in
  // place rather than rendered to a temporary first.
  std::string out = "; CLASSIC snapshot (replayable operation program)\n";
  auto form = [&](const char* head, Symbol name, const Description* body) {
    out += head;
    out += symbols.Name(name);
    if (body != nullptr) {
      out += ' ';
      body->AppendTo(symbols, &out);
    }
    out += ")\n";
  };

  for (RoleId r = 0; r < vocab.num_roles(); ++r) {
    const RoleInfo& info = vocab.role(r);
    form(info.attribute ? "(define-attribute " : "(define-role ", info.name,
         nullptr);
  }

  for (IndId i = 0; i < vocab.num_individuals(); ++i) {
    const IndInfo& info = vocab.individual(i);
    if (info.kind != IndKind::kClassic) continue;  // host values are interned on demand
    form("(create-ind ", info.name, nullptr);
  }

  for (ConceptId c = 0; c < vocab.num_concepts(); ++c) {
    const ConceptInfo& info = vocab.concept_info(c);
    form("(define-concept ", info.name, info.source.get());
  }

  for (const Rule& rule : kb.rules()) {
    form("(assert-rule ", vocab.concept_info(rule.antecedent_concept).name,
         rule.consequent_source.get());
  }

  // Assertions in the global order they were accepted, not grouped by
  // individual: CLOSE fixes a role to the fillers known at that moment,
  // which may come from another individual's earlier assertion.
  const auto& log = kb.base_log();
  for (size_t i = 0; i < log.size(); ++i) {
    const auto& [ind, expr] = log[i];
    form("(assert-ind ", vocab.individual(ind).name, expr.get());
  }

  return out;
}

Status WriteSnapshotFile(const KnowledgeBase& kb, const std::string& path) {
  // The dump goes to a temp file beside `path`, synced, then renamed over
  // it: a write that fails part-way leaves the previous snapshot whole.
  const std::string dump = DumpDatabase(kb);
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(StrCat("cannot open snapshot file: ", tmp, ": ",
                                  std::strerror(errno)));
  }
  std::string error;
  if (!WriteAll(fd, dump) || ::fsync(fd) != 0) {
    error = std::strerror(errno);
  }
  if (::close(fd) != 0 && error.empty()) error = std::strerror(errno);
  if (error.empty() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    error = std::strerror(errno);
  }
  if (!error.empty()) {
    ::unlink(tmp.c_str());
    return Status::IOError(
        StrCat("snapshot write failed: ", path, ": ", error));
  }
  return SyncParentDirectory(path);
}

}  // namespace classic::storage
