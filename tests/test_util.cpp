#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>

#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace saga::util {
namespace {

TEST(SeedSplitter, ProducesDistinctStreams) {
  SeedSplitter splitter(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(seen.insert(splitter.next()).second);
}

TEST(SeedSplitter, DeterministicForSameRoot) {
  SeedSplitter a(7);
  SeedSplitter b(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(2);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 4);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 4);
    saw_lo |= v == 0;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GeometricClippedRespectsMax) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.geometric_clipped(0.2, 10);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 10);
  }
}

TEST(Rng, GeometricMeanRoughlyMatches) {
  Rng rng(4);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(rng.geometric_clipped(0.5, 1000));
  }
  EXPECT_NEAR(total / n, 2.0, 0.1);  // mean of Geo(0.5) = 1/p = 2
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(5);
  const auto p = rng.permutation(50);
  std::set<std::size_t> unique(p.begin(), p.end());
  EXPECT_EQ(unique.size(), 50U);
  EXPECT_EQ(*unique.begin(), 0U);
  EXPECT_EQ(*unique.rbegin(), 49U);
}

TEST(FastRng, Uniform01InRange) {
  FastRng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.uniform01();
    EXPECT_GE(v, 0.0F);
    EXPECT_LT(v, 1.0F);
  }
}

TEST(ThreadPool, ParallelForCoversRange) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  std::atomic<int> count{0};
  parallel_for(0, 8, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, PropagatesExceptions) {
  EXPECT_THROW(
      ThreadPool::global().parallel_for(
          0, 100, [](std::size_t i) { if (i == 50) throw std::runtime_error("boom"); }),
      std::runtime_error);
}

// One short fork-join run `depth` frames below the caller, so consecutive
// calls place parallel_for's stack-local completion state at different
// addresses. Returns how many indices ran (pool.size() when complete).
[[gnu::noinline]] int fork_join_at_depth(ThreadPool& pool, int depth) {
  if (depth == 0) {
    std::atomic<int> hits{0};
    pool.parallel_for(0, pool.size(), [&](std::size_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
    return hits.load();
  }
  volatile std::size_t pad[16] = {};  // shifts the frames below this one
  pad[depth % 16] = depth;
  return fork_join_at_depth(pool, depth - 1) +
         static_cast<int>(pad[depth % 16]) - depth;
}

// Many short fork-joins from several clients into a core-count pool (more
// runnable threads than cores), each from a different stack depth. A pool
// that kept its completion state on the caller's stack aborted or crashed
// here in about half the runs on a 4-core host when its last worker could
// touch that state after the caller returned.
TEST(ThreadPool, ConcurrentShortParallelForsComplete) {
  ThreadPool pool(std::max(1U, std::thread::hardware_concurrency()));
  constexpr int kClients = 4;
  constexpr int kCalls = 5000;
  std::atomic<int> incomplete{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      for (int call = 0; call < kCalls; ++call) {
        if (fork_join_at_depth(pool, call % 8) !=
            static_cast<int>(pool.size())) {
          incomplete.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(incomplete.load(), 0);
}

// Waits (yielding, so it also works on one CPU) until flag is set.
void await(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::yield();
}

TEST(ThreadPool, SinglePoolRunsEverythingOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1U);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(100);
  pool.parallel_for(0, ran.size(), [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const auto id : ran) EXPECT_EQ(id, caller);
}

// Each worker holds the chunk it claimed until the caller has run one, so a
// pool of n runs chunks on both sides; one side throws.
TEST(ThreadPool, ExceptionsFromCallerAndWorkerChunksPropagate) {
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  for (const bool caller_throws : {true, false}) {
    std::atomic<bool> caller_ran{false};
    std::atomic<bool> worker_ran{false};
    EXPECT_THROW(pool.parallel_for(0, pool.size(), [&](std::size_t) {
      if (std::this_thread::get_id() == caller) {
        caller_ran = true;
        await(worker_ran);
        if (caller_throws) throw std::runtime_error("caller");
      } else {
        worker_ran = true;
        await(caller_ran);
        if (!caller_throws) throw std::runtime_error("worker");
      }
    }), std::runtime_error);
    std::vector<int> hits(1000, 0);
    pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 1000);
  }
}

// The workers hold their chunks until the caller's has run, so the caller
// runs at least one.
TEST(ThreadPool, NestedCallFromCallersChunkRunsInline) {
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::atomic<int> nested{0};
  std::atomic<int> elsewhere{0};
  pool.parallel_for(0, pool.size(), [&](std::size_t) {
    if (std::this_thread::get_id() != caller) return await(caller_ran);
    pool.parallel_for(0, 64, [&](std::size_t) {
      nested.fetch_add(1);
      if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
    });
    caller_ran = true;
  });
  EXPECT_EQ(nested.load() % 64, 0);
  EXPECT_GE(nested.load(), 64);
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ThreadPool, ForkDuringAnotherThreadsForkRunsInline) {
  ThreadPool pool(3);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::thread owner([&] {
    pool.parallel_for(0, pool.size(), [&](std::size_t) {
      started = true;
      await(release);
    });
  });
  await(started);
  const auto self = std::this_thread::get_id();
  std::vector<std::thread::id> ran(100);
  pool.parallel_for(0, ran.size(), [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const auto id : ran) EXPECT_EQ(id, self);
  release = true;
  owner.join();
}

// Back-to-back forks find the workers spinning; forks separated by a sleep
// longer than the spin find them asleep on the state word.
TEST(ThreadPool, BackToBackAndSpacedForksCoverTheirRanges) {
  ThreadPool pool(4);
  std::vector<int> hits(37, 0);
  const auto fork_and_check = [&](int round) {
    pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] += 1; });
    return std::count(hits.begin(), hits.end(), round) ==
           static_cast<std::ptrdiff_t>(hits.size());
  };
  int round = 0;
  int incomplete = 0;
  for (int i = 0; i < 20000; ++i) incomplete += fork_and_check(++round) ? 0 : 1;
  for (int i = 0; i < 30; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    incomplete += fork_and_check(++round) ? 0 : 1;
  }
  EXPECT_EQ(incomplete, 0);
}

#if defined(__linux__)
TEST(ThreadPool, GlobalPoolMatchesTheAffinityMask) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(ThreadPool::global().size(), static_cast<std::size_t>(CPU_COUNT(&set)));
}
#endif

TEST(Serialize, RoundTripsBlobs) {
  const std::string path = std::filesystem::temp_directory_path() / "saga_blobs.bin";
  NamedBlobs blobs;
  blobs["a.weight"] = {1.0F, 2.5F, -3.0F};
  blobs["b.bias"] = {};
  blobs["c"] = std::vector<float>(1000, 0.25F);
  save_blobs(path, blobs);
  const auto loaded = load_blobs(path);
  EXPECT_EQ(loaded, blobs);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsCorruptMagic) {
  const std::string path = std::filesystem::temp_directory_path() / "saga_bad.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("NOPE", f);
    std::fclose(f);
  }
  EXPECT_THROW(load_blobs(path), std::runtime_error);
  EXPECT_THROW(load_manifest(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, ManifestRoundTripsMetadataAndBlobs) {
  const std::string path =
      std::filesystem::temp_directory_path() / "saga_manifest.bin";
  Manifest manifest;
  manifest.metadata["format"] = "test";
  manifest.metadata["empty"] = "";
  manifest.metadata["count"] = "42";
  manifest.blobs["w"] = {1.0F, -2.0F};
  manifest.blobs["b"] = {};
  save_manifest(path, manifest);
  const Manifest loaded = load_manifest(path);
  EXPECT_EQ(loaded, manifest);
  // Blob-only readers see a v2 file's blobs too.
  EXPECT_EQ(load_blobs(path), manifest.blobs);
  std::filesystem::remove(path);
}

TEST(Serialize, ManifestReadsV1FilesAsEmptyMetadata) {
  const std::string path =
      std::filesystem::temp_directory_path() / "saga_manifest_v1.bin";
  NamedBlobs blobs;
  blobs["legacy"] = {3.0F};
  save_blobs(path, blobs);
  const Manifest loaded = load_manifest(path);
  EXPECT_TRUE(loaded.metadata.empty());
  EXPECT_EQ(loaded.blobs, blobs);
  std::filesystem::remove(path);
}

TEST(Serialize, ManifestRoundTripsByteBlobs) {
  const std::string path =
      std::filesystem::temp_directory_path() / "saga_manifest_v3.bin";
  Manifest manifest;
  manifest.metadata["format"] = "test";
  manifest.blobs["w"] = {1.0F, -2.0F};
  manifest.byte_blobs["w:q8"] = {-128, -1, 0, 1, 127};
  manifest.byte_blobs["empty"] = {};
  save_manifest(path, manifest);
  const Manifest loaded = load_manifest(path);
  EXPECT_EQ(loaded, manifest);
  // Blob-only readers still see a v3 file's float blobs.
  EXPECT_EQ(load_blobs(path), manifest.blobs);
  std::filesystem::remove(path);
}

TEST(Serialize, EmptyByteBlobsKeepEmittingV2) {
  // The writer must emit the oldest version that can hold the manifest, so
  // fp32-only files stay readable by pre-v3 builds: no byte blobs -> the
  // version header says 2 and the file ends right after the float blobs
  // (no empty v3 section appended).
  const std::string path =
      std::filesystem::temp_directory_path() / "saga_v2_stable.bin";
  Manifest manifest = load_manifest(std::string(SAGA_TEST_DATA_DIR) +
                                    "/golden_v2.manifest");
  ASSERT_TRUE(manifest.byte_blobs.empty());
  save_manifest(path, manifest);

  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GE(bytes.size(), 8U);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, 2U);
  // A v3 copy of the same content grows by exactly one (empty) byte-blob
  // section; the v2 file must not carry those 8 count bytes.
  Manifest with_bytes = manifest;
  with_bytes.byte_blobs["b"] = {1};
  const std::string v3_path =
      std::filesystem::temp_directory_path() / "saga_v3_probe.bin";
  save_manifest(v3_path, with_bytes);
  const auto v3_size = std::filesystem::file_size(v3_path);
  // v3 overhead: u64 blob count + (u64 name len + "b" + u64 byte count + 1).
  EXPECT_EQ(v3_size, bytes.size() + 8 + (8 + 1 + 8 + 1));
  std::filesystem::remove(v3_path);
  std::filesystem::remove(path);
}

TEST(Serialize, GoldenV3FixtureStillLoads) {
  // Byte-level drift guard for the v3 (byte blob) section, mirroring the
  // v1/v2 fixtures below.
  const Manifest v3 =
      load_manifest(std::string(SAGA_TEST_DATA_DIR) + "/golden_v3.manifest");
  EXPECT_EQ(v3.require("format"), "saga.golden");
  EXPECT_EQ(v3.require("note"), "checked-in v3 fixture");
  EXPECT_EQ(v3.require_int("answer"), 42);
  const NamedBlobs expected_blobs{{"bias", {0.5F}},
                                  {"weight", {1.0F, -2.25F, 3.5F}}};
  EXPECT_EQ(v3.blobs, expected_blobs);
  const NamedByteBlobs expected_bytes{{"codes", {-128, -1, 0, 1, 127}},
                                      {"empty", {}}};
  EXPECT_EQ(v3.byte_blobs, expected_bytes);
}

TEST(Serialize, GoldenV1AndV2FixturesStillLoad) {
  // Checked-in byte-level fixtures (tests/data/): guards the "v1 stays
  // readable" promise against accidental format drift as the serve layer
  // evolves. If this fails, a serializer change broke an on-disk contract —
  // bump the version instead of mutating an existing one.
  const std::string dir = SAGA_TEST_DATA_DIR;
  const NamedBlobs expected_blobs{{"bias", {0.5F}},
                                  {"weight", {1.0F, -2.25F, 3.5F}}};

  const Manifest v1 = load_manifest(dir + "/golden_v1.manifest");
  EXPECT_TRUE(v1.metadata.empty());
  EXPECT_EQ(v1.blobs, expected_blobs);
  EXPECT_EQ(load_blobs(dir + "/golden_v1.manifest"), expected_blobs);

  const Manifest v2 = load_manifest(dir + "/golden_v2.manifest");
  EXPECT_EQ(v2.require("format"), "saga.golden");
  EXPECT_EQ(v2.require("note"), "checked-in v2 fixture");
  EXPECT_EQ(v2.require_int("answer"), 42);
  EXPECT_EQ(v2.blobs, expected_blobs);
  EXPECT_EQ(load_blobs(dir + "/golden_v2.manifest"), expected_blobs);
}

TEST(Serialize, RejectsUnsupportedVersion) {
  const std::string path =
      std::filesystem::temp_directory_path() / "saga_future.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const std::uint32_t version = 99;
    std::fwrite("SAGA", 1, 4, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fclose(f);
  }
  EXPECT_THROW(
      {
        try {
          load_manifest(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("unsupported version 99"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsTruncatedFile) {
  const std::string path =
      std::filesystem::temp_directory_path() / "saga_truncated.bin";
  Manifest manifest;
  manifest.metadata["key"] = "value";
  manifest.blobs["w"] = std::vector<float>(256, 1.0F);
  save_manifest(path, manifest);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 100);
  EXPECT_THROW(
      {
        try {
          load_manifest(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, ManifestRequireReportsMissingAndMalformedKeys) {
  Manifest manifest;
  manifest.metadata["n"] = "12";
  manifest.metadata["bad"] = "12abc";
  EXPECT_EQ(manifest.require("n"), "12");
  EXPECT_EQ(manifest.require_int("n"), 12);
  EXPECT_THROW(manifest.require("absent"), std::runtime_error);
  EXPECT_THROW(manifest.require_int("absent"), std::runtime_error);
  EXPECT_THROW(manifest.require_int("bad"), std::runtime_error);
}

TEST(Table, FormatsAlignedRows) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22.5"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22.5  |"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table table({"one", "two"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Env, FallsBackWhenUnset) {
  EXPECT_EQ(env_int("SAGA_TEST_UNSET_VAR", 42), 42);
  EXPECT_DOUBLE_EQ(env_double("SAGA_TEST_UNSET_VAR", 1.5), 1.5);
}

TEST(Env, ParsesSetValues) {
  ::setenv("SAGA_TEST_SET_VAR", "123", 1);
  EXPECT_EQ(env_int("SAGA_TEST_SET_VAR", 0), 123);
  ::setenv("SAGA_TEST_SET_VAR", "-4.25", 1);
  EXPECT_DOUBLE_EQ(env_double("SAGA_TEST_SET_VAR", 0.0), -4.25);
  ::unsetenv("SAGA_TEST_SET_VAR");
}

TEST(Env, RejectsMalformedValues) {
  // Trailing characters and out-of-range values fall back instead of
  // reading a prefix or a clamped value.
  for (const char* malformed : {"", "abc", "12abc", "1e999"}) {
    ::setenv("SAGA_TEST_BAD_VAR", malformed, 1);
    EXPECT_EQ(env_int("SAGA_TEST_BAD_VAR", 7), 7) << malformed;
    EXPECT_DOUBLE_EQ(env_double("SAGA_TEST_BAD_VAR", 2.5), 2.5) << malformed;
  }
  // Past INT64_MAX for the integer parser; an ordinary 1e20 as a double.
  ::setenv("SAGA_TEST_BAD_VAR", "99999999999999999999", 1);
  EXPECT_EQ(env_int("SAGA_TEST_BAD_VAR", 7), 7);
  EXPECT_DOUBLE_EQ(env_double("SAGA_TEST_BAD_VAR", 2.5), 1e20);
  ::unsetenv("SAGA_TEST_BAD_VAR");
}

}  // namespace
}  // namespace saga::util
