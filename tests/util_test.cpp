#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <ostream>
#include <set>

#include "util/argparse.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"
#include "util/units.hpp"

namespace caraml {
namespace {

// --- strings -----------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = str::split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitSingleToken) {
  const auto parts = str::split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = str::split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(str::join({"x", "y", "z"}, "-"), "x-y-z");
  EXPECT_EQ(str::join({}, "-"), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(str::trim("  hi  "), "hi");
  EXPECT_EQ(str::ltrim("  hi  "), "hi  ");
  EXPECT_EQ(str::rtrim("  hi  "), "  hi");
  EXPECT_EQ(str::trim("\t\n"), "");
}

TEST(Strings, StartsEndsContains) {
  EXPECT_TRUE(str::starts_with("tokens_per_s", "tokens"));
  EXPECT_FALSE(str::starts_with("abc", "abcd"));
  EXPECT_TRUE(str::ends_with("result.csv", ".csv"));
  EXPECT_TRUE(str::contains("a100-sxm", "100"));
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(str::to_lower("GH200"), "gh200");
  EXPECT_EQ(str::to_upper("mi250"), "MI250");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(str::replace_all("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(str::replace_all("aaa", "aa", "b"), "ba");
}

TEST(Strings, ExpandEnvKnownVariable) {
  ::setenv("CARAML_TEST_RANK", "7", 1);
  EXPECT_EQ(str::expand_env("out_%q{CARAML_TEST_RANK}.csv"), "out_7.csv");
}

TEST(Strings, ExpandEnvUnknownVariableIsEmpty) {
  ::unsetenv("CARAML_NO_SUCH_VAR");
  EXPECT_EQ(str::expand_env("x%q{CARAML_NO_SUCH_VAR}y"), "xy");
}

TEST(Strings, ExpandEnvPercentEscape) {
  EXPECT_EQ(str::expand_env("100%%"), "100%");
}

TEST(Strings, ExpandEnvUnterminatedThrows) {
  EXPECT_THROW(str::expand_env("%q{OOPS"), ParseError);
}

TEST(Strings, SubstitutePlaceholders) {
  const auto out = str::substitute(
      "run --batch ${batch} on ${system}",
      {{"batch", "64"}, {"system", "A100"}});
  EXPECT_EQ(out, "run --batch 64 on A100");
}

TEST(Strings, SubstituteLeavesUnknown) {
  EXPECT_EQ(str::substitute("${x}", {{"y", "1"}}), "${x}");
}

TEST(Strings, Fnv1a64StandardVectors) {
  EXPECT_EQ(str::hex16(str::fnv1a64("")), "cbf29ce484222325");
  EXPECT_EQ(str::hex16(str::fnv1a64("a")), "af63dc4c8601ec8c");
  // Continuing from a hash equals hashing the concatenation.
  EXPECT_EQ(str::fnv1a64("b", str::fnv1a64("a")), str::fnv1a64("ab"));
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(str::parse_int(" 42 "), 42);
  EXPECT_EQ(str::parse_int("-7"), -7);
  EXPECT_THROW(str::parse_int("12x"), ParseError);
  EXPECT_THROW(str::parse_int("abc"), ParseError);
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(str::parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(str::parse_double("1e3"), 1000.0);
  EXPECT_THROW(str::parse_double("1.2.3"), ParseError);
}

TEST(Strings, ParseBool) {
  EXPECT_TRUE(str::parse_bool("true"));
  EXPECT_TRUE(str::parse_bool("YES"));
  EXPECT_FALSE(str::parse_bool("0"));
  EXPECT_THROW(str::parse_bool("maybe"), ParseError);
}

// --- units ---------------------------------------------------------------------

TEST(Units, FormatBytes) {
  EXPECT_EQ(units::format_bytes(512), "512 B");
  EXPECT_EQ(units::format_bytes(2.5 * units::kGiB), "2.50 GiB");
}

TEST(Units, FormatFlops) {
  EXPECT_EQ(units::format_flops(312e12), "312.0 TFLOP/s");
  EXPECT_EQ(units::format_flops(1.5e9), "1.5 GFLOP/s");
}

TEST(Units, FormatBandwidthAndSeconds) {
  EXPECT_EQ(units::format_bandwidth(900e9), "900.0 GB/s");
  EXPECT_EQ(units::format_seconds(90.0), "1.50 min");
  EXPECT_EQ(units::format_seconds(7200.0), "2.00 h");
  EXPECT_EQ(units::format_seconds(0.5e-3), "500.00 us");
}

TEST(Units, ParseBytes) {
  EXPECT_DOUBLE_EQ(units::parse_bytes("40 GB"), 40e9);
  EXPECT_DOUBLE_EQ(units::parse_bytes("1 KiB"), 1024.0);
  EXPECT_DOUBLE_EQ(units::parse_bytes("96GB"), 96e9);
  EXPECT_THROW(units::parse_bytes("5 parsecs"), ParseError);
}

TEST(Units, ParseFlopsAndWatts) {
  EXPECT_DOUBLE_EQ(units::parse_flops("312 TFLOP/s"), 312e12);
  EXPECT_DOUBLE_EQ(units::parse_watts("700 W"), 700.0);
  EXPECT_DOUBLE_EQ(units::parse_watts("1.5 kW"), 1500.0);
}

TEST(Units, WhJoulesRoundTrip) {
  EXPECT_DOUBLE_EQ(units::wh_to_joules(units::joules_to_wh(1234.5)), 1234.5);
}

struct BandwidthCase {
  const char* text;
  double value;
};
// gtest_discover_tests names each case after the printed parameter: print the
// text, not the default byte dump, whose pointer changes from build to build.
void PrintTo(const BandwidthCase& c, std::ostream* os) { *os << c.text; }
class BandwidthParse : public ::testing::TestWithParam<BandwidthCase> {};
TEST_P(BandwidthParse, RoundTrips) {
  EXPECT_DOUBLE_EQ(units::parse_bandwidth(GetParam().text), GetParam().value);
}
INSTANTIATE_TEST_SUITE_P(
    Units, BandwidthParse,
    ::testing::Values(BandwidthCase{"900 GB/s", 900e9},
                      BandwidthCase{"4 TB/s", 4e12},
                      BandwidthCase{"64GB/s", 64e9},
                      BandwidthCase{"512 MB/s", 512e6}));

// --- rng -------------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.split();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Rng, InvalidRangeThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), Error);
}

// --- thread pool ----------------------------------------------------------------

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for_range(0, hits.size(), 1,
                          [&](std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                          });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for_range(5, 5, 1,
                          [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_range(0, 100, 1,
                                       [](std::size_t lo, std::size_t hi) {
                                         if (lo <= 50 && 50 < hi) {
                                           throw std::runtime_error("x");
                                         }
                                       }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsRejected) {
  EXPECT_THROW(ThreadPool pool(0), Error);
}

// --- parallel_for_range ------------------------------------------------------

TEST(ParallelForRange, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_range(0, hits.size(), 16,
                          [&](std::size_t lo, std::size_t hi) {
                            ASSERT_LT(lo, hi);
                            for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                          });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForRange, EmptyRangeNeverInvokes) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for_range(7, 7, 1,
                          [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForRange, GrainLargerThanTotalRunsOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::atomic<std::size_t> covered{0};
  pool.parallel_for_range(0, 10, 1000,
                          [&](std::size_t lo, std::size_t hi) {
                            ++calls;
                            covered += hi - lo;
                          });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(covered.load(), 10u);
}

TEST(ParallelForRange, ZeroGrainTreatedAsOne) {
  ThreadPool pool(2);
  std::atomic<std::size_t> covered{0};
  pool.parallel_for_range(0, 64, 0,
                          [&](std::size_t lo, std::size_t hi) {
                            covered += hi - lo;
                          });
  EXPECT_EQ(covered.load(), 64u);
}

TEST(ParallelForRange, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_range(0, 100, 1,
                              [](std::size_t lo, std::size_t) {
                                if (lo >= 50) throw std::runtime_error("x");
                              }),
      std::runtime_error);
}

TEST(ParallelForRange, NestedCallFromWorkerRunsInline) {
  // A parallel_for_range issued from inside a pool worker must not deadlock
  // (all workers could be blocked waiting on sub-chunks); it runs inline as
  // one chunk on the calling worker instead.
  ThreadPool pool(2);
  std::atomic<int> inner_chunks{0};
  pool.parallel_for_range(0, 4, 1, [&](std::size_t, std::size_t) {
    pool.parallel_for_range(0, 100, 1, [&](std::size_t lo, std::size_t hi) {
      if (lo == 0 && hi == 100) ++inner_chunks;
    });
  });
  EXPECT_EQ(inner_chunks.load(), 4);
}

TEST(ParallelForRange, GrainContractHoldsForAdversarialShapes) {
  // Every chunk must span at least `grain` indices (the documented contract)
  // whenever the range itself holds a full grain, chunk starts must be
  // grain-aligned relative to `begin`, and the chunks must tile the range
  // exactly. total=9/grain=4 is the historical violation: ceil-split into 3
  // chunks of 3 undershot the grain.
  const std::size_t totals[] = {1, 2, 3, 5, 8, 9, 10, 16, 17, 63, 100, 1023};
  const std::size_t grains[] = {1, 2, 3, 4, 6, 7, 16, 64};
  const std::size_t pool_sizes[] = {1, 2, 3, 8};
  for (const std::size_t workers : pool_sizes) {
    ThreadPool pool(workers);
    for (const std::size_t total : totals) {
      for (const std::size_t grain : grains) {
        const std::size_t begin = 3;  // nonzero to catch absolute alignment
        const std::size_t end = begin + total;
        std::mutex mutex;
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        pool.parallel_for_range(begin, end, grain,
                                [&](std::size_t lo, std::size_t hi) {
                                  std::lock_guard<std::mutex> lock(mutex);
                                  chunks.emplace_back(lo, hi);
                                });
        std::sort(chunks.begin(), chunks.end());
        SCOPED_TRACE("total=" + std::to_string(total) +
                     " grain=" + std::to_string(grain) +
                     " workers=" + std::to_string(workers));
        ASSERT_FALSE(chunks.empty());
        EXPECT_EQ(chunks.front().first, begin);
        EXPECT_EQ(chunks.back().second, end);
        for (std::size_t c = 0; c < chunks.size(); ++c) {
          const auto [lo, hi] = chunks[c];
          ASSERT_LT(lo, hi);
          if (c > 0) {
            EXPECT_EQ(lo, chunks[c - 1].second);  // exact tiling
          }
          EXPECT_EQ((lo - begin) % std::max<std::size_t>(1, grain), 0u);
          if (total >= std::max<std::size_t>(1, grain)) {
            const std::size_t span = hi - lo;
            EXPECT_GE(span, std::max<std::size_t>(1, grain));
          }
        }
      }
    }
  }
}

TEST(ParallelForRange, FreeFunctionUsesGlobalPool) {
  std::vector<std::atomic<int>> hits(300);
  parallel_for_range(0, hits.size(), 8,
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                     });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- CARAML_NUM_THREADS parsing ---------------------------------------------

TEST(ParseEnvThreads, UnsetFallsBackToDefault) {
  EXPECT_EQ(ThreadPool::parse_env_threads(nullptr),
            ThreadPool::default_threads());
}

TEST(ParseEnvThreads, ValidValuesParse) {
  EXPECT_EQ(ThreadPool::parse_env_threads("1"), 1u);
  EXPECT_EQ(ThreadPool::parse_env_threads("8"), 8u);
  EXPECT_EQ(ThreadPool::parse_env_threads("1024"), 1024u);
}

TEST(ParseEnvThreads, GarbageIsRejectedWithClearError) {
  for (const char* bad : {"", "0", "-3", "abc", "4x", "2.5", "1025", "999999"}) {
    try {
      ThreadPool::parse_env_threads(bad);
      FAIL() << "expected rejection of '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("CARAML_NUM_THREADS"),
                std::string::npos)
          << "error message should name the variable, got: " << e.what();
    }
  }
}

// --- argparse ----------------------------------------------------------------------

TEST(ArgParser, ParsesOptionsAndFlags) {
  ArgParser parser("p", "test");
  parser.add_option("batch", "batch size", std::string("16"));
  parser.add_flag("verbose", "verbosity");
  ASSERT_TRUE(parser.parse({"--batch", "64", "--verbose"}));
  EXPECT_EQ(parser.get_int("batch"), 64);
  EXPECT_TRUE(parser.get_flag("verbose"));
}

TEST(ArgParser, DefaultValueUsed) {
  ArgParser parser("p", "test");
  parser.add_option("batch", "batch size", std::string("16"));
  ASSERT_TRUE(parser.parse(std::vector<std::string>{}));
  EXPECT_EQ(parser.get_int("batch"), 16);
}

TEST(ArgParser, EqualsSyntax) {
  ArgParser parser("p", "test");
  parser.add_option("tag", "tag");
  ASSERT_TRUE(parser.parse({"--tag=GH200"}));
  EXPECT_EQ(parser.get("tag"), "GH200");
}

TEST(ArgParser, UnknownOptionThrows) {
  ArgParser parser("p", "test");
  EXPECT_THROW(parser.parse({"--nope"}), ParseError);
}

TEST(ArgParser, MissingValueThrows) {
  ArgParser parser("p", "test");
  parser.add_option("x", "x");
  EXPECT_THROW(parser.parse({"--x"}), ParseError);
}

TEST(ArgParser, RequiredOptionMissingThrows) {
  ArgParser parser("p", "test");
  parser.add_option("x", "x");
  ASSERT_TRUE(parser.parse(std::vector<std::string>{}));
  EXPECT_THROW(parser.get("x"), ParseError);
}

TEST(ArgParser, CollectPositionalsInterleavesWithOptions) {
  ArgParser parser("p", "test");
  parser.add_option("format", "f", std::string("human"));
  parser.add_flag("strict", "s");
  parser.set_collect_positionals(true);
  ASSERT_TRUE(parser.parse({"configs", "--format", "json", "a.yaml",
                            "--strict"}));
  EXPECT_EQ(parser.get("format"), "json");
  EXPECT_TRUE(parser.get_flag("strict"));
  EXPECT_EQ(parser.rest(), (std::vector<std::string>{"configs", "a.yaml"}));
}

TEST(ArgParser, CollectRestCapturesWrappedCommand) {
  ArgParser parser("jpwr", "test");
  parser.add_option("methods", "m", std::string("procstat"));
  parser.set_collect_rest(true);
  ASSERT_TRUE(parser.parse({"--methods", "rocm", "stress-ng", "--gpu", "8"}));
  ASSERT_EQ(parser.rest().size(), 3u);
  EXPECT_EQ(parser.rest()[0], "stress-ng");
  EXPECT_EQ(parser.rest()[1], "--gpu");
}

TEST(ArgParser, PositionalWithoutCollectRestThrows) {
  ArgParser parser("p", "test");
  EXPECT_THROW(parser.parse({"oops"}), ParseError);
}

// --- table --------------------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"long-name", "23"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name |    23 |"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(TextTable, CsvEscapesSpecialCells) {
  TextTable table({"k"});
  table.add_row({"has,comma"});
  table.add_row({"has\"quote"});
  const std::string csv = table.render_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

// --- logging -----------------------------------------------------------------------

TEST(Logging, LevelNamesRoundTrip) {
  for (auto level : {log::Level::kDebug, log::Level::kInfo, log::Level::kWarn,
                     log::Level::kError, log::Level::kOff}) {
    EXPECT_EQ(log::level_from_name(log::level_name(level)), level);
  }
  EXPECT_THROW(log::level_from_name("loud"), InvalidArgument);
}

// --- error macros ---------------------------------------------------------------------

TEST(Error, CheckThrowsWithMessage) {
  try {
    CARAML_CHECK_MSG(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(CARAML_CHECK(2 + 2 == 4));
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  // Keep the loop observable without deprecated volatile compound ops.
  EXPECT_GT(sink, 0.0);
  EXPECT_GE(watch.elapsed_seconds(), 0.0);
  EXPECT_GE(watch.elapsed_ms(), watch.elapsed_seconds());
}

}  // namespace
}  // namespace caraml
