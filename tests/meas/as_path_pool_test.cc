// The per-dataset AS path pool: what it interns, that its ids never reach
// the .ds bytes, and that every producer (collector, reader, subset)
// resolves a row to the same path.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "meas/catalog.h"
#include "meas/checkpoint.h"
#include "meas/serialize.h"
#include "test_util.h"
#include "util/atomic_io.h"
#include "util/codec.h"

namespace pathsel::meas {
namespace {

using Path = std::vector<topo::AsId>;

Path path_of(const Dataset& ds, const Measurement& m) {
  const std::span<const topo::AsId> p = ds.as_path(m);
  return {p.begin(), p.end()};
}

std::string text_of(const Dataset& ds) {
  std::string out;
  write_dataset_chunks(ds, [&out](std::string_view chunk) { out += chunk; });
  return out;
}

// Loads `text` through both readers, which must agree.
Dataset load_text(const std::string& text) {
  const std::string path =
      ::testing::TempDir() + "/as_path_pool_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".ds";
  EXPECT_TRUE(write_file_atomic(path, text).is_ok());
  Result<Dataset> loaded = load_dataset(path);
  EXPECT_TRUE(loaded.is_ok()) << loaded.status().message();
  std::istringstream is{text};
  const std::optional<Dataset> streamed = read_dataset(is);
  EXPECT_TRUE(streamed.has_value());
  if (streamed.has_value() && loaded.is_ok()) {
    EXPECT_EQ(text_of(*streamed), text_of(loaded.value()));
  }
  return loaded.is_ok() ? std::move(loaded.value()) : Dataset{};
}

TEST(AsPathPool, EmptyPathIsIdZeroAndIdsFollowFirstSight) {
  AsPathPool pool;
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.at(AsPathPool::kEmpty).empty());
  EXPECT_EQ(pool.intern({}), AsPathPool::kEmpty);
  EXPECT_EQ(test::intern_path(pool, {7, 3}), 1u);
  EXPECT_EQ(test::intern_path(pool, {3, 7}), 2u);
  EXPECT_EQ(test::intern_path(pool, {7}), 3u);
  EXPECT_EQ(test::intern_path(pool, {7, 3}), 1u);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(Path(pool.at(2).begin(), pool.at(2).end()),
            (Path{topo::AsId{3}, topo::AsId{7}}));
}

TEST(AsPathPool, KeepsEveryIdAcrossGrowthAndCopies) {
  AsPathPool pool;
  std::vector<Path> paths;
  for (std::int32_t i = 0; i < 5000; ++i) {
    paths.push_back({topo::AsId{i % 71}, topo::AsId{i}, topo::AsId{i / 3}});
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    ASSERT_EQ(pool.intern(paths[i]), i + 1);
  }
  const AsPathPool copy = pool;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto id = static_cast<AsPathId>(i + 1);
    EXPECT_TRUE(std::ranges::equal(copy.at(id), paths[i]));
    EXPECT_EQ(pool.intern(paths[i]), id);
  }
  EXPECT_EQ(pool.size(), paths.size() + 1);
}

TEST(AsPathPool, CollectedUw3InternsExactlyItsDistinctPaths) {
  Catalog catalog{CatalogConfig{.seed = 11, .scale = 0.05}};
  const Dataset& uw3 = catalog.by_name("UW3");
  std::set<Path> distinct{Path{}};
  for (const Measurement& m : uw3.measurements) {
    distinct.insert(path_of(uw3, m));
  }
  EXPECT_EQ(uw3.paths.size(), distinct.size());
  EXPECT_GT(uw3.paths.size(), 100u);
}

TEST(AsPathPool, IdsNeverReachTheBytes) {
  Catalog catalog{CatalogConfig{.seed = 11, .scale = 0.05}};
  const Dataset& collected = catalog.by_name("UW3");
  const std::string bytes = text_of(collected);
  // The same rows over a pool that met its paths in reverse order.
  Dataset reversed = collected;
  reversed.paths = AsPathPool{};
  std::vector<AsPathId> ids(collected.paths.size(), AsPathPool::kEmpty);
  for (auto id = static_cast<AsPathId>(ids.size() - 1); id > 0; --id) {
    ids[id] = reversed.paths.intern(collected.paths.at(id));
  }
  std::size_t moved = 0;
  for (Measurement& m : reversed.measurements) {
    if (ids[m.path] != m.path) ++moved;
    m.path = ids[m.path];
  }
  ASSERT_GT(moved, 0u);
  EXPECT_EQ(text_of(reversed), bytes);
  // The reader interns in row order, and its rows resolve to the same
  // paths and write the same bytes again.
  const Dataset loaded = load_text(bytes);
  ASSERT_EQ(loaded.measurements.size(), collected.measurements.size());
  EXPECT_EQ(loaded.paths.size(), collected.paths.size());
  for (std::size_t i = 0; i < collected.measurements.size(); ++i) {
    ASSERT_EQ(path_of(loaded, loaded.measurements[i]),
              path_of(collected, collected.measurements[i]))
        << "row " << i;
  }
  EXPECT_EQ(text_of(loaded), bytes);
}

TEST(AsPathPool, WhitespaceSpellingsInternToTheCanonicalId) {
  const std::string text =
      "pathsel-dataset v1\nname ws\nkind traceroute\nduration_ms 1000\n"
      "first_sample_loss_only 0\nepisodes 0\nhosts 3 0 1 2\n"
      "m 0 0 1 -1 1 0 1.5 0 2.5 0 3.5 3 7 1239 701\n"
      "m 1 1 2 -1 1 0 1.5 0 2.5 0 3.5 3  7\t1239   701 \n"
      "m 2 2 0 -1 1 0 1.5 0 2.5 0 3.5\t3 7 1239 701\r\n"
      "m 3 0 2 -1 1 0 1.5 0 2.5 0 3.5 2 7 1239\n"
      "m 4 2 1 -1 1 0 1.5 0 2.5 0 3.5 +3 007 1239 701\n";
  const Dataset ds = load_text(text);
  ASSERT_EQ(ds.measurements.size(), 5u);
  const AsPathId canonical = ds.measurements[0].path;
  EXPECT_EQ(ds.measurements[1].path, canonical);
  EXPECT_EQ(ds.measurements[2].path, canonical);
  EXPECT_NE(ds.measurements[3].path, canonical);
  EXPECT_EQ(ds.measurements[4].path, canonical);
  EXPECT_EQ(ds.paths.size(), 3u);
  EXPECT_EQ(path_of(ds, ds.measurements[1]),
            (Path{topo::AsId{7}, topo::AsId{1239}, topo::AsId{701}}));
}

// Every field of two rows, the path id included, bit for bit.
void expect_same_row(const Measurement& got, const Measurement& want) {
  EXPECT_EQ(got.when, want.when);
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.episode, want.episode);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.failure, want.failure);
  EXPECT_EQ(got.attempts, want.attempts);
  for (std::size_t i = 0; i < want.samples.size(); ++i) {
    EXPECT_EQ(got.samples[i].lost, want.samples[i].lost) << "sample " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.samples[i].rtt_ms),
              std::bit_cast<std::uint64_t>(want.samples[i].rtt_ms))
        << "sample " << i;
  }
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bandwidth_kBps),
            std::bit_cast<std::uint64_t>(want.bandwidth_kBps));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.tcp_rtt_ms),
            std::bit_cast<std::uint64_t>(want.tcp_rtt_ms));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.tcp_loss_rate),
            std::bit_cast<std::uint64_t>(want.tcp_loss_rate));
}

// A checkpoint whose measurement rows are `rows`, lines as given.
std::string checkpoint_text(const std::vector<std::string>& rows) {
  CampaignCheckpoint cp;
  cp.dataset_name = "ws";
  std::string text = serialize_checkpoint(cp, MeasurementKind::kTraceroute, 1);
  std::string payload{*codec::unseal_text(text, codec::CrcRadix::kDecimal)};
  payload.resize(payload.find("measurements 0\n"));
  payload += "measurements " + std::to_string(rows.size()) + "\n";
  for (const std::string& row : rows) payload += row + "\n";
  codec::seal_text(payload, codec::CrcRadix::kDecimal);
  return payload;
}

// Faulted rows in every spelling the token language allows read to the
// canonical spelling's row, path id included, in the dataset readers and
// the checkpoint reader alike.
TEST(AsPathPool, FaultedSpellingsReadAlikeInEveryReader) {
  struct Case {
    const char* canonical;  // as append_measurement writes it
    std::vector<const char*> spellings;
  };
  const Case cases[] = {
      {"m 5 0 1 -1 0 0 1.5 0 2.5 1 3.5 3 7 1239 701 f 2 a 3",
       {"m 5 0 1 -1 0 0 1.5 0 2.5 1 3.5 3 7 1239 701 a 3 f 2",
        "m\t5\t0\t1\t-1\t0\t0\t1.5\t0\t2.5\t1\t3.5\t3\t7\t1239\t701"
        "\tf\t2\ta\t3",
        "  m  5 0   1 -1 0 0 1.5  0 2.5 1 3.5 3  7 1239   701  f  2   a 3  ",
        "m +5 +0 +1 -1 +0 +0 +1.5 +0 +2.5 +1 +3.5 +3 +7 +1239 +701 f +2 a +3",
        "m 005 00 01 -01 00 00 1.5 00 2.5 01 3.5 03 007 01239 0701 f 02 a 003",
        "m 5 0 1 -1 0 0 1.5 0 2.5 1 3.5 3 7 1239 701 f 2 a 3\r",
        "m 5 0 1 -1 0 0 1.5 0 2.5 1 3.5 3 7 1239 701\ta 3\r\tf 2 \r"}},
      {"m 9 2 0 -1 1 0 4 0 5.25 0 6 2 7 1239 a 2",
       {"m 9 2 0 -1 1 0 4 0 5.25 0 6 2 7 1239\ta +2",
        "m 9 2 0 -1 1 0 4. 0 5.25 0 6e0 2 7 1239 a 02\r",
        "m 9 2 0 -1 +1 0 +4 0 5.250 0 6 +2 7 1239  a 2"}},
      {"m 12 1 2 -1 0 0 0 1 0 1 0 0 f 4",
       {"m 12 1 2 -1 0 0 0 1 0 1 0 0 f +4\r",
        "m 12 1 2 -1 0 0 0 1 0 1 0 -0 f 4",
        "m\t12 1 2 -1 0\t0 0 1 0 1 0 0\t\tf\t004"}},
  };
  const std::string header =
      "pathsel-dataset v1\nname ws\nkind traceroute\nduration_ms 1000\n"
      "first_sample_loss_only 0\nepisodes 0\nhosts 3 0 1 2\n";
  for (const Case& c : cases) {
    for (const char* spelling : c.spellings) {
      SCOPED_TRACE(spelling);
      const std::vector<std::string> rows{c.canonical, spelling};
      const Dataset ds = load_text(header + rows[0] + "\n" + rows[1] + "\n");
      ASSERT_EQ(ds.measurements.size(), 2u);
      expect_same_row(ds.measurements[1], ds.measurements[0]);
      std::string canonical;
      append_measurement(canonical, ds.measurements[1], ds.kind, ds.paths);
      EXPECT_EQ(canonical, rows[0] + "\n");

      const Result<CampaignCheckpoint> cp = parse_checkpoint(
          checkpoint_text(rows), MeasurementKind::kTraceroute, 1);
      ASSERT_TRUE(cp.is_ok()) << cp.status().message();
      ASSERT_EQ(cp.value().measurements.size(), 2u);
      for (std::size_t i = 0; i < 2; ++i) {
        expect_same_row(cp.value().measurements[i], ds.measurements[i]);
      }
    }
  }
}

TEST(AsPathPool, SubsetRowsResolveToTheirParentsPaths) {
  Catalog catalog{CatalogConfig{.seed = 11, .scale = 0.05}};
  const Dataset& d2 = catalog.by_name("D2");
  const Dataset& na = catalog.by_name("D2-NA");
  ASSERT_FALSE(na.measurements.empty());
  const std::set<topo::HostId> kept{na.hosts.begin(), na.hosts.end()};
  std::size_t next = 0;  // the subset keeps the parent's row order
  for (const Measurement& p : d2.measurements) {
    if (!kept.contains(p.src) || !kept.contains(p.dst)) continue;
    ASSERT_LT(next, na.measurements.size());
    const Measurement& c = na.measurements[next++];
    ASSERT_EQ(c.when, p.when);
    ASSERT_EQ(c.src, p.src);
    ASSERT_EQ(c.dst, p.dst);
    EXPECT_EQ(path_of(na, c), path_of(d2, p));
  }
  EXPECT_EQ(next, na.measurements.size());
  EXPECT_EQ(na.measurements.capacity(), na.measurements.size());
}

}  // namespace
}  // namespace pathsel::meas
