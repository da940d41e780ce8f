// The one JSON writer every bench emits its BENCH_*.json through
// (DESIGN.md §24). Dependency-free, so a test can pin its bytes.
//
// Layout contract, which the committed BENCH files and run_benches.sh's
// schema guard rely on:
//
//   {
//     "bench": "<name>",
//     "<key>": <object on one line>,
//     "<key>": [
//       <object on one line>,
//       <object on one line>
//     ],
//     "<key>": true
//   }
//
// A JsonRow is one object on one line, {"k": v, "k": v}, with its fields
// in the order they were added. Numbers print exactly as the printf
// conversions they replace: integers in full, reals fixed to the given
// number of decimals.

#ifndef BENCH_JSON_H_
#define BENCH_JSON_H_

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

namespace keypad {
namespace bench {

inline std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

class JsonRow {
 public:
  JsonRow& Str(const char* key, const std::string& value) {
    return Field(key, JsonQuote(value));
  }
  template <typename T>
  JsonRow& Int(const char* key, T value) {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    return Field(key, std::to_string(value));
  }
  JsonRow& Num(const char* key, double value, int decimals) {
    int n = std::snprintf(nullptr, 0, "%.*f", decimals, value);
    std::string text(static_cast<size_t>(n), '\0');
    std::snprintf(text.data(), text.size() + 1, "%.*f", decimals, value);
    return Field(key, text);
  }
  JsonRow& Bool(const char* key, bool value) {
    return Field(key, value ? "true" : "false");
  }
  // An inline int list: "key": [5,5,0].
  JsonRow& Ints(const char* key, const std::vector<int>& values) {
    std::string list = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      list += (i == 0 ? "" : ",") + std::to_string(values[i]);
    }
    return Field(key, list + "]");
  }
  // Inline nested objects: "key": [{...}, {...}].
  JsonRow& Rows(const char* key, const std::vector<JsonRow>& rows) {
    std::string list = "[";
    for (size_t i = 0; i < rows.size(); ++i) {
      list += (i == 0 ? "" : ", ") + rows[i].str();
    }
    return Field(key, list + "]");
  }

  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonRow& Field(const char* key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + JsonQuote(key) + ": " + value;
    return *this;
  }

  std::string body_;
};

// One row per item, in order.
template <typename T, typename ToRow>
std::vector<JsonRow> ToRows(const std::vector<T>& items, ToRow to_row) {
  std::vector<JsonRow> rows;
  for (const T& item : items) rows.push_back(to_row(item));
  return rows;
}

// A bench's whole document: "bench" first, then one entry per line.
class JsonDoc {
 public:
  explicit JsonDoc(const std::string& bench) : bench_(bench) {
    Entry("bench", JsonQuote(bench));
  }

  const std::string& bench() const { return bench_; }

  JsonDoc& Row(const char* key, const JsonRow& row) {
    return Entry(key, row.str());
  }
  // One object per line, indented under the key.
  JsonDoc& Rows(const char* key, const std::vector<JsonRow>& rows) {
    std::string list = "[\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      list += "    " + rows[i].str() + (i + 1 < rows.size() ? "," : "") + "\n";
    }
    return Entry(key, list + "  ]");
  }
  JsonDoc& Bool(const char* key, bool value) {
    return Entry(key, value ? "true" : "false");
  }

  std::string str() const { return "{\n" + body_ + "\n}\n"; }

  // False, after naming the path on stderr, when the file cannot be
  // written in full.
  bool Write(const std::string& path) const {
    std::string text = str();
    FILE* f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr &&
              std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (f != nullptr && std::fclose(f) != 0) {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
    return ok;
  }

 private:
  JsonDoc& Entry(const char* key, const std::string& value) {
    body_ += (body_.empty() ? "  " : ",\n  ") + JsonQuote(key) + ": " + value;
    return *this;
  }

  std::string bench_;
  std::string body_;
};

}  // namespace bench
}  // namespace keypad

#endif  // BENCH_JSON_H_
