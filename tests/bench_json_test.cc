// Pins the bytes of the one JSON writer every bench emits through
// (bench/json.h, DESIGN.md §24): the committed BENCH_*.json files and
// run_benches.sh's schema guard depend on its exact layout.

#include "bench/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace keypad {
namespace bench {
namespace {

TEST(BenchJsonTest, DocumentLayoutIsByteExact) {
  std::vector<JsonRow> cells;
  cells.push_back(JsonRow()
                      .Str("scenario", "a")
                      .Int("n", uint64_t{18446744073709551615u})
                      .Num("p99_ms", 1.23456, 3)
                      .Bool("ok", true)
                      .Ints("per_s", {5, 5, 0})
                      .Rows("shards", {JsonRow().Int("entries", 7).Num(
                                           "avg", 2.5, 2),
                                       JsonRow().Int("entries", -1).Num(
                                           "avg", 0, 2)}));
  cells.push_back(JsonRow().Str("scenario", "b").Num("rate", 1234.4, 0));
  JsonDoc doc("demo");
  doc.Bool("deterministic", false)
      .Rows("cells", cells)
      .Row("summary", JsonRow().Num("ratio", 23.24, 1).Ints("none", {}))
      .Rows("empty", {});

  EXPECT_EQ(doc.str(),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"deterministic\": false,\n"
            "  \"cells\": [\n"
            "    {\"scenario\": \"a\", \"n\": 18446744073709551615, "
            "\"p99_ms\": 1.235, \"ok\": true, \"per_s\": [5,5,0], "
            "\"shards\": [{\"entries\": 7, \"avg\": 2.50}, "
            "{\"entries\": -1, \"avg\": 0.00}]},\n"
            "    {\"scenario\": \"b\", \"rate\": 1234}\n"
            "  ],\n"
            "  \"summary\": {\"ratio\": 23.2, \"none\": []},\n"
            "  \"empty\": [\n"
            "  ]\n"
            "}\n");
}

TEST(BenchJsonTest, StringsAreEscaped) {
  EXPECT_EQ(JsonRow().Str("k", "say \"hi\" \\o/").str(),
            "{\"k\": \"say \\\"hi\\\" \\\\o/\"}");
}

TEST(BenchJsonTest, WriteToAnUnwritablePathFails) {
  JsonDoc doc("demo");
  EXPECT_FALSE(doc.Write("/nonexistent-dir/x.json"));
}

}  // namespace
}  // namespace bench
}  // namespace keypad
