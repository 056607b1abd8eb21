// Append-only operation log.
//
// The paper takes "the database component of a complex application to be a
// cache for persistent information of limited complexity" (Section 1) and
// leaves secondary storage as future work (Section 5). We provide the
// simplest honest persistence story: every accepted mutating operation is
// appended, in concrete syntax, to a text log; recovery replays the log
// (optionally on top of a snapshot) through the command interpreter.
// Replay is deterministic because accepted updates are monotonic.

#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "sexpr/sexpr.h"
#include "util/result.h"
#include "util/status.h"

namespace classic::storage {

/// \brief Append-only log of s-expression operations, one per line.
class OperationLog {
 public:
  OperationLog() = default;
  ~OperationLog() { Close(); }

  OperationLog(const OperationLog&) = delete;
  OperationLog& operator=(const OperationLog&) = delete;

  /// \brief Opens (creating or appending to) the log file.
  Status Open(const std::string& path);

  bool is_open() const { return out_.is_open(); }
  const std::string& path() const { return path_; }

  /// \brief Appends one operation and flushes it to the OS. Returns
  /// IOError if the log is closed, if the stream is already in a failed
  /// state from an earlier error, or if the write / flush itself fails —
  /// callers see exactly which operations did not reach the OS.
  Status Append(const sexpr::Value& op);

  /// \brief Appends a pre-rendered operation line (same error contract).
  Status AppendLine(const std::string& line);

  /// \brief Discards all logged operations (checkpointing: a snapshot has
  /// made them redundant). The log stays open for appends.
  Status Truncate();

  void Close();

 private:
  std::ofstream out_;
  std::string path_;
};

/// \brief The whole text of a log / snapshot file. IOError if the file
/// cannot be opened or a read fails (a directory, say): a failed read is
/// never taken for an empty file.
Result<std::string> ReadFileText(const std::string& path);

/// \brief Reads every operation recorded in a log / snapshot file.
Result<std::vector<sexpr::Value>> ReadOperations(const std::string& path);

}  // namespace classic::storage
