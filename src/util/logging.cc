#include "src/util/logging.h"

#include <cstdio>
#include <string>

namespace keypad {

namespace {
constexpr LogSeverity kThreshold = LogSeverity::kWarning;

const char* SeverityTag(LogSeverity s) {
  switch (s) {
    case LogSeverity::kDebug:
      return "D";
    case LogSeverity::kInfo:
      return "I";
    case LogSeverity::kWarning:
      return "W";
    case LogSeverity::kError:
      return "E";
  }
  return "?";
}
}  // namespace

LogMessage::LogMessage(LogSeverity severity, const char* file, int line)
    : enabled_(severity >= kThreshold), severity_(severity) {
  if (enabled_) {
    std::string_view path(file);
    size_t pos = path.rfind('/');
    if (pos != std::string_view::npos) {
      path.remove_prefix(pos + 1);
    }
    stream_ << "[" << SeverityTag(severity_) << " " << path << ":" << line
            << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
}

}  // namespace keypad
