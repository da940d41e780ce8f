// Minimal stream logger. Usage:
//   KP_LOG(kInfo) << "fetched key " << ToHex(id);
// Severity below kWarning is compiled to a no-op-ish dead stream, so tests
// and benches stay quiet.

#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <sstream>
#include <string_view>

namespace keypad {

enum class LogSeverity { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) {
      stream_ << value;
    }
    return *this;
  }

 private:
  bool enabled_;
  LogSeverity severity_;
  std::ostringstream stream_;
};

#define KP_LOG(severity)                                             \
  ::keypad::LogMessage(::keypad::LogSeverity::severity, __FILE__, \
                       __LINE__)

}  // namespace keypad

#endif  // SRC_UTIL_LOGGING_H_
