#include "storage/log.h"


#include "util/string_util.h"

namespace classic::storage {

Status OperationLog::Open(const std::string& path) {
  if (out_.is_open()) Close();
  out_.open(path, std::ios::out | std::ios::app);
  if (!out_) {
    return Status::IOError(StrCat("cannot open log file: ", path));
  }
  path_ = path;
  return Status::OK();
}

Status OperationLog::Append(const sexpr::Value& op) {
  return AppendLine(op.ToString());
}

Status OperationLog::AppendLine(const std::string& line) {
  if (!out_.is_open()) {
    return Status::IOError("operation log is not open");
  }
  if (!out_) {
    // A previous write failed and left the stream in a failed state; every
    // further append must keep failing loudly rather than silently dropping
    // operations (the log would otherwise have a hole in the middle).
    return Status::IOError(
        StrCat("operation log is in a failed state: ", path_));
  }
  out_ << line << '\n';
  if (!out_) {
    return Status::IOError(StrCat("write to log failed: ", path_));
  }
  out_.flush();
  if (!out_) {
    return Status::IOError(StrCat("flush of log failed: ", path_));
  }
  return Status::OK();
}

Status OperationLog::Truncate() {
  if (!out_.is_open()) {
    return Status::IOError("operation log is not open");
  }
  std::string path = path_;
  out_.close();
  out_.open(path, std::ios::out | std::ios::trunc);
  if (!out_) {
    return Status::IOError(StrCat("cannot truncate log file: ", path));
  }
  path_ = path;
  return Status::OK();
}

void OperationLog::Close() {
  if (out_.is_open()) out_.close();
  path_.clear();
}

Result<std::string> ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError(StrCat("cannot open file: ", path));
  }
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  // The loop stops at a clean end of file only with eofbit set; a failed
  // read (EISDIR, EIO) leaves badbit instead.
  if (!in.eof()) {
    return Status::IOError(StrCat("cannot read file: ", path));
  }
  return text;
}

Result<std::vector<sexpr::Value>> ReadOperations(const std::string& path) {
  CLASSIC_ASSIGN_OR_RETURN(std::string text, ReadFileText(path));
  return sexpr::ParseAll(text);
}

}  // namespace classic::storage
