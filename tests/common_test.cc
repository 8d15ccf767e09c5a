#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/host_port.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace ddp {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad k");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad k");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad k");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
}

TEST(StatusTest, CopyPreservesState) {
  Status a = Status::IoError("disk");
  Status b = a;          // copy construct
  Status c;
  c = a;                 // copy assign
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(b.message(), "disk");
}

TEST(StatusTest, MoveLeavesSourceOk) {
  Status a = Status::Internal("boom");
  Status b = std::move(a);
  EXPECT_TRUE(b.IsInternal());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IoError("x"));
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    DDP_RETURN_NOT_OK(Status::NotFound("inner"));
    return Status::Internal("unreachable");
  };
  EXPECT_TRUE(fails().IsNotFound());
  auto succeeds = []() -> Status {
    DDP_RETURN_NOT_OK(Status::OK());
    return Status::Internal("reached");
  };
  EXPECT_TRUE(succeeds().IsInternal());
}

TEST(StatusCodeTest, NamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument),
            "Invalid argument");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIoError), "IO error");
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, OkStatusConstructionBecomesInternalError) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

TEST(ResultTest, MoveValueOut) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::OutOfRange("too big");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    DDP_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 8);
  EXPECT_TRUE(outer(true).status().IsOutOfRange());
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("hello");
  EXPECT_EQ(r->size(), 5u);
}

// ---------------------------------------------------------------- Serde

TEST(SerdeTest, VarintRoundTrip) {
  BufferWriter w;
  std::vector<uint64_t> values = {0, 1, 127, 128, 300, 1u << 20,
                                  0xffffffffffffffffULL};
  for (uint64_t v : values) w.PutVarint64(v);
  BufferReader r(w.data());
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(r.GetVarint64(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, VarintEncodingIsCompactForSmallValues) {
  BufferWriter w;
  w.PutVarint64(5);
  EXPECT_EQ(w.size(), 1u);
  BufferWriter w2;
  w2.PutVarint64(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(SerdeTest, SignedVarintRoundTrip) {
  BufferWriter w;
  std::vector<int64_t> values = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t v : values) w.PutSignedVarint64(v);
  BufferReader r(w.data());
  for (int64_t v : values) {
    int64_t got = 0;
    ASSERT_TRUE(r.GetSignedVarint64(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(SerdeTest, DoubleRoundTripIncludingSpecials) {
  BufferWriter w;
  std::vector<double> values = {0.0, -0.0, 3.14159, -1e300,
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::denorm_min()};
  for (double v : values) w.PutDouble(v);
  BufferReader r(w.data());
  for (double v : values) {
    double got = 0.0;
    ASSERT_TRUE(r.GetDouble(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(SerdeTest, StringRoundTrip) {
  BufferWriter w;
  w.PutString("hello");
  w.PutString("");
  w.PutString(std::string(1000, 'x'));
  BufferReader r(w.data());
  std::string s;
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(s, "");
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(s.size(), 1000u);
}

TEST(SerdeTest, TruncatedBufferIsIoError) {
  BufferWriter w;
  w.PutDouble(1.0);
  BufferReader r(w.data().data(), 3);  // cut mid-double
  double d;
  EXPECT_TRUE(r.GetDouble(&d).IsIoError());
}

TEST(SerdeTest, TruncatedVarintIsIoError) {
  std::string buf = "\xff";  // continuation bit set, no next byte
  BufferReader r(buf);
  uint64_t v;
  EXPECT_TRUE(r.GetVarint64(&v).IsIoError());
}

TEST(SerdeTest, OverlongVarintIsIoError) {
  std::string buf(11, '\xff');  // > 10 continuation bytes
  BufferReader r(buf);
  uint64_t v;
  EXPECT_TRUE(r.GetVarint64(&v).IsIoError());
}

TEST(SerdeTest, TypedSerdeVectorPairRoundTrip) {
  using T = std::vector<std::pair<uint32_t, double>>;
  T value = {{1, 0.5}, {7, -2.0}, {1000000, 1e-10}};
  BufferWriter w;
  Serde<T>::Write(&w, value);
  BufferReader r(w.data());
  T got{};
  ASSERT_TRUE(Serde<T>::Read(&r, &got).ok());
  EXPECT_EQ(got, value);
}

TEST(SerdeTest, SerializedSizeMatchesWrite) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  BufferWriter w;
  Serde<std::vector<double>>::Write(&w, v);
  EXPECT_EQ(SerializedSize(v), w.size());
}

TEST(SerdeTest, ExternalBufferAppends) {
  std::string backing = "prefix";
  BufferWriter w(&backing);
  w.PutVarint64(1);
  EXPECT_EQ(backing.size(), 7u);
  EXPECT_EQ(backing.substr(0, 6), "prefix");
}

// ---------------------------------------------------------------- Crc32

// The CRC computed one bit at a time from its definition: no table, no
// fold. `crc` chains like Crc32's.
uint32_t BitwiseCrc32(const uint8_t* p, size_t n, uint32_t crc) {
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(256));
  return bytes;
}

TEST(Crc32Test, CheckValues) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32(zeros.data(), zeros.size()), 0x190A55ADu);
}

// Every length below 64 and every tail takes the byte table; longer
// buffers fold their 16-byte multiple first. Both must equal the bitwise
// definition at every length and alignment, from any starting value.
TEST(Crc32Test, EqualsBitwiseDefinitionAtEveryLengthAndOffset) {
  const std::vector<uint8_t> bytes = RandomBytes(1100 + 16, 7);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      const uint8_t* p = bytes.data() + offset;
      const uint32_t start =
          static_cast<uint32_t>(0x9E3779B9u * (offset * 1101 + len + 1));
      ASSERT_EQ(Crc32(p, len, start), BitwiseCrc32(p, len, start))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, ChainingAcrossRandomSplitsEqualsOneCall) {
  const std::vector<uint8_t> bytes = RandomBytes(size_t{1} << 20, 11);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, BitwiseCrc32(bytes.data(), bytes.size(), 0));
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    // Short chunks on odd trials, so splits land on both sides of the
    // 64-byte fold threshold.
    const uint64_t max_chunk = trial % 2 ? 200 : 100000;
    uint32_t crc = 0;
    size_t off = 0;
    while (off < bytes.size()) {
      const size_t n = std::min(bytes.size() - off,
                                static_cast<size_t>(rng.UniformInt(max_chunk)));
      crc = Crc32(bytes.data() + off, n, crc);
      off += n;
    }
    EXPECT_EQ(crc, whole) << "trial " << trial;
  }
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, SplitSeedIsDeterministicAndSpread) {
  EXPECT_EQ(SplitSeed(1, 0), SplitSeed(1, 0));
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 100; ++i) seen.insert(SplitSeed(123, i));
  EXPECT_EQ(seen.size(), 100u);
}

TEST(RandomTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RandomTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RandomTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RandomTest, SameSeedSameSequence) {
  Rng a(99), b(99);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.Uniform(), b.Uniform());
}

TEST(RandomTest, GaussianVectorHasRequestedDim) {
  Rng rng(1);
  EXPECT_EQ(rng.GaussianVector(17).size(), 17u);
}

TEST(RandomTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(5);
  std::vector<size_t> s = SampleWithoutReplacement(100, 30, &rng);
  EXPECT_EQ(s.size(), 30u);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (size_t v : s) EXPECT_LT(v, 100u);
}

TEST(RandomTest, SampleWithoutReplacementFullRange) {
  Rng rng(5);
  std::vector<size_t> s = SampleWithoutReplacement(10, 10, &rng);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(std::memory_order_relaxed), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(std::memory_order_relaxed), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(std::memory_order_relaxed), 45);
}

TEST(ThreadPoolTest, ManySmallParallelForsBackToBack) {
  // Exercises the wait/notify protocol under rapid reuse.
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(17, [&](size_t i) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(std::memory_order_relaxed), 200ull * (16 * 17 / 2));
}

TEST(ThreadPoolTest, SubmitFromManyThreads) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&pool, &count] {
      for (int i = 0; i < 50; ++i) {
        pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.Wait();
  EXPECT_EQ(count.load(std::memory_order_relaxed), 200);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
}

TEST(ThreadPoolTest, DefaultParallelismAtLeastOne) {
  EXPECT_GE(DefaultParallelism(), 1u);
}

// ------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, ElapsedIsNonNegativeAndMonotonic) {
  Stopwatch sw;
  double a = sw.ElapsedSeconds();
  double b = sw.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 0.005);
}

// --------------------------------------------------------------- Logging

TEST(LoggingTest, LevelGate) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  DDP_LOG(Info) << "suppressed";
  SetLogLevel(old);
}

TEST(LoggingTest, CheckPassesOnTrueCondition) {
  DDP_CHECK(1 + 1 == 2) << "never shown";
  DDP_CHECK_EQ(4, 4);
  DDP_CHECK_LT(1, 2);
  DDP_CHECK_GE(2, 2);
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ DDP_CHECK(false) << "boom"; }, "Check failed");
}

TEST(HostPortTest, ParsesNumericEndpoints) {
  auto hp = ParseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(hp.ok());
  EXPECT_EQ(hp->host, "127.0.0.1");
  EXPECT_EQ(hp->port, 8080);
  EXPECT_EQ(hp->ToString(), "127.0.0.1:8080");

  // Port 0 is valid: listeners use it to request an ephemeral port.
  hp = ParseHostPort("0.0.0.0:0");
  ASSERT_TRUE(hp.ok());
  EXPECT_EQ(hp->host, "0.0.0.0");
  EXPECT_EQ(hp->port, 0);

  hp = ParseHostPort("255.255.255.255:65535");
  ASSERT_TRUE(hp.ok());
  EXPECT_EQ(hp->port, 65535);

  // host:0 with a non-wildcard host is equally valid — ddp_cli's
  // --remote-listen and ddp_server's --remote-listen both default to it.
  hp = ParseHostPort("127.0.0.1:0");
  ASSERT_TRUE(hp.ok());
  EXPECT_EQ(hp->host, "127.0.0.1");
  EXPECT_EQ(hp->port, 0);
}

TEST(HostPortTest, RejectsMalformedEndpoints) {
  const char* bad[] = {
      "",                       // empty
      "127.0.0.1",              // no port
      "127.0.0.1:",             // empty port
      ":8080",                  // empty host
      "localhost:8080",         // names are not numeric IPv4
      "127.0.0:8080",           // three octets
      "127.0.0.1.5:8080",       // five octets
      "127.0.0.256:8080",       // octet > 255
      "127.0.0.1:65536",        // port > 65535
      "127.0.0.1:99999999999",  // port overflow
      "127.0.0.1:8080x",        // trailing garbage
      "127.0.0.1:0x",           // trailing garbage after port 0
      "127.0.0.1:8080 ",        // trailing space
      "127.0.0.1:8080/path",    // trailing path
      "127.0.0.1:8080\n",       // trailing newline
      "127.0..1:8080",          // empty octet
      "127.0.0.1:80:80",        // two colons
      " 127.0.0.1:8080",        // leading space
      "127.0.0.1:-1",           // negative port
      "127.0.0.1:+80",          // explicit sign
      "127.0.0.1.:80",          // trailing dot in host
  };
  for (const char* spec : bad) {
    auto hp = ParseHostPort(spec);
    EXPECT_FALSE(hp.ok()) << "accepted '" << spec << "'";
    if (!hp.ok()) {
      EXPECT_EQ(hp.status().code(), StatusCode::kInvalidArgument) << spec;
    }
  }
}

}  // namespace
}  // namespace ddp
