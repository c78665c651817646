// Byte pins for collection: the crc32 of every catalog dataset's .ds text,
// and of a faulted, checkpointed campaign's .ds and checkpoint files.
//
// The other collection suites check derived properties (counts, windows,
// resume identity against a second run of the same build).  Those would all
// still pass if a refactor of the collector or the probe engine moved every
// measurement the same way in both runs; these literal values would not.
// They were recorded from the collector that probed inline in its serial
// event loop, and every later change to collection must reproduce them.
//
// A failure prints the new crc.  Change a value only in a change whose
// purpose is a stated numeric change to collection.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "meas/campaign.h"
#include "meas/catalog.h"
#include "meas/serialize.h"
#include "util/atomic_io.h"

namespace pathsel::meas {
namespace {

std::uint32_t dataset_crc(const Dataset& dataset) {
  std::uint32_t crc = 0;
  write_dataset_chunks(dataset,
                       [&crc](std::string_view chunk) { crc = crc32(chunk, crc); });
  return crc;
}

std::uint32_t file_crc(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  EXPECT_TRUE(is.good()) << "cannot read " << path;
  const std::string bytes{std::istreambuf_iterator<char>{is},
                          std::istreambuf_iterator<char>{}};
  return crc32(bytes);
}

// Compares every (name, crc) pair with the pinned table; names on either
// side only are failures too.
void expect_crcs(const std::map<std::string, std::uint32_t>& pinned,
                 const std::map<std::string, std::uint32_t>& got) {
  for (const auto& [name, crc] : got) {
    const auto it = pinned.find(name);
    if (it == pinned.end()) {
      ADD_FAILURE() << name << " is not pinned (crc32 0x" << std::hex << crc
                    << ")";
    } else {
      EXPECT_EQ(it->second, crc)
          << name << " bytes moved: crc32 is now 0x" << std::hex << crc;
    }
  }
  for (const auto& [name, crc] : pinned) {
    EXPECT_TRUE(got.contains(name)) << name << " was not produced";
  }
}

TEST(CollectionGolden, CatalogDatasets) {
  CatalogConfig cfg;
  cfg.seed = 1999;
  cfg.scale = 0.05;
  Catalog catalog{cfg};
  std::map<std::string, std::uint32_t> got;
  for (const std::string& name : Catalog::dataset_names()) {
    got[name] = dataset_crc(catalog.by_name(name));
  }
  expect_crcs(
      {
          {"D2", 0x3a32aebau},
          {"D2-NA", 0xe0f9193du},
          {"N2", 0xe39ce817u},
          {"N2-NA", 0xf9d74127u},
          {"UW1", 0xd7d3f964u},
          {"UW3", 0x6caba391u},
          {"UW4-A", 0x7031453bu},
          {"UW4-B", 0x419c1547u},
      },
      got);
}

// Runs a checkpointed campaign over all of Table 1 and returns the crc32 of
// every .ds output and every checkpoint generation file it left behind.
std::map<std::string, std::uint32_t> campaign_crcs(const std::string& tag,
                                                   double fault_intensity) {
  const std::string root = ::testing::TempDir() + "collection_golden_" + tag;
  std::filesystem::remove_all(root);
  CampaignOptions opt;
  opt.catalog.seed = 1999;
  opt.catalog.scale = 0.05;
  opt.catalog.fault_intensity = fault_intensity;
  opt.catalog.fault_seed = 7;
  opt.output_dir = root + "/out";
  opt.checkpoint_dir = root + "/ck";
  opt.checkpoint_interval = Duration::hours(6);
  const CampaignReport report = run_campaign(opt);
  EXPECT_TRUE(report.status.is_ok()) << report.status.message();

  std::map<std::string, std::uint32_t> got;
  for (const std::string& dir : {opt.output_dir, opt.checkpoint_dir}) {
    for (const auto& entry : std::filesystem::directory_iterator{dir}) {
      const std::string file = entry.path().filename().string();
      if (file.ends_with(".ds") || file.find(".ckpt.") != std::string::npos) {
        got[file] = file_crc(entry.path().string());
      }
    }
  }
  std::filesystem::remove_all(root);
  return got;
}

// The fault-free path with periodic checkpoints.  Both checkpoint
// generations of each dataset are pinned, so the last two snapshots of every
// campaign are covered.
TEST(CollectionGolden, CheckpointedCampaign) {
  expect_crcs(
      {
          {"D2-NA.ds", 0xe0f9193du},
          {"D2.ckpt.0", 0x2a9f2931u},
          {"D2.ckpt.1", 0x255941f2u},
          {"D2.ds", 0x3a32aebau},
          {"N2-NA.ds", 0xf9d74127u},
          {"N2.ckpt.0", 0x667d1e7fu},
          {"N2.ckpt.1", 0x85f12cc7u},
          {"N2.ds", 0xe39ce817u},
          {"UW1.ckpt.0", 0x6b35766cu},
          {"UW1.ckpt.1", 0xaf76b8f9u},
          {"UW1.ds", 0xd7d3f964u},
          {"UW3.ckpt.0", 0x626426ebu},
          {"UW3.ds", 0x6caba391u},
          {"UW4-A.ckpt.0", 0xe0edd0d5u},
          {"UW4-A.ckpt.1", 0x2c02154cu},
          {"UW4-A.ds", 0x7031453bu},
          {"UW4-B.ckpt.0", 0xfa0cfcfcu},
          {"UW4-B.ckpt.1", 0x8a2058b5u},
          {"UW4-B.ds", 0x419c1547u},
      },
      campaign_crcs("fault_free", 0.0));
}

// The fault-aware path: injected faults, retries with backoff, checkpoints.
TEST(CollectionGolden, FaultedCampaign) {
  const std::map<std::string, std::uint32_t> got =
      campaign_crcs("faulted", 0.15);
  expect_crcs(
      {
          {"D2-NA.ds", 0x8c25d2eeu},
          {"D2.ckpt.0", 0x0aa1fdbcu},
          {"D2.ckpt.1", 0x0b1809e2u},
          {"D2.ds", 0xbb4f127eu},
          {"N2-NA.ds", 0x14a9991bu},
          {"N2.ckpt.0", 0x10473c56u},
          {"N2.ckpt.1", 0x12824c74u},
          {"N2.ds", 0x8fe5d81cu},
          {"UW1.ckpt.0", 0x47941ce5u},
          {"UW1.ckpt.1", 0x3167b753u},
          {"UW1.ds", 0x47c16125u},
          {"UW3.ckpt.0", 0x302080a1u},
          {"UW3.ds", 0x5ede093eu},
          {"UW4-A.ckpt.0", 0x2aaaf546u},
          {"UW4-A.ckpt.1", 0xd69b847au},
          {"UW4-A.ds", 0x56429c6au},
          {"UW4-B.ckpt.0", 0xbae4bf20u},
          {"UW4-B.ckpt.1", 0x36cc6c6fu},
          {"UW4-B.ds", 0x877d5ae5u},
      },
      got);
}

}  // namespace
}  // namespace pathsel::meas
