// Campaign orchestration: dataset expansion, checkpoint cadence, and the
// core acceptance property — a campaign cancelled mid-collection and resumed
// from its checkpoint produces byte-identical outputs to an uninterrupted
// run, at zero and at nonzero fault intensity.  (The SIGKILL variant of the
// same property lives in tests/tools/kill_resume.sh; this one cancels
// in-process so it can run everywhere, including under TSan.)
#include "meas/campaign.h"

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "util/metrics.h"

namespace pathsel::meas {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "campaign_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string read_bytes(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  EXPECT_TRUE(is.good()) << path;
  return std::string{std::istreambuf_iterator<char>{is},
                     std::istreambuf_iterator<char>{}};
}

CatalogConfig quick_catalog(double fault_intensity = 0.0) {
  CatalogConfig cfg;
  cfg.seed = 1999;
  cfg.scale = 0.005;
  cfg.fault_intensity = fault_intensity;
  cfg.fault_seed = 7;
  return cfg;
}

TEST(Campaign, ExpandDatasetsCoversTable1) {
  const std::vector<std::string> all = expand_datasets({});
  EXPECT_EQ(all, Catalog::dataset_names());
  EXPECT_EQ(all.size(), 8u);
}

TEST(Campaign, ExpandDatasetsPullsParentsAndKeepsCanonicalOrder) {
  const std::vector<std::string> got = expand_datasets({"N2-NA", "UW1"});
  // N2 is inserted before its subset; both in Table-1 order.
  EXPECT_EQ(got, (std::vector<std::string>{"N2", "N2-NA", "UW1"}));
  // Unknown names survive at the end for the caller's error reporting.
  const std::vector<std::string> bad = expand_datasets({"UW3", "nope"});
  EXPECT_EQ(bad, (std::vector<std::string>{"UW3", "nope"}));
}

TEST(Campaign, RejectsBadOptions) {
  CampaignOptions no_out;
  EXPECT_EQ(run_campaign(no_out).status.code(), ErrorCode::kInvalidArgument);

  CampaignOptions resume_without_dir;
  resume_without_dir.output_dir = fresh_dir("badopt");
  resume_without_dir.resume = true;
  EXPECT_EQ(run_campaign(resume_without_dir).status.code(),
            ErrorCode::kInvalidArgument);

  CampaignOptions unknown;
  unknown.output_dir = fresh_dir("badopt2");
  unknown.datasets = {"UW99"};
  EXPECT_EQ(run_campaign(unknown).status.code(), ErrorCode::kInvalidArgument);
}

TEST(Campaign, ProducesRequestedDatasetAndDerivedParent) {
  CampaignOptions opt;
  opt.catalog = quick_catalog();
  opt.datasets = {"N2-NA"};
  opt.output_dir = fresh_dir("derived");
  const CampaignReport report = run_campaign(opt);
  ASSERT_TRUE(report.status.is_ok()) << report.status.message();
  EXPECT_EQ(report.completed, (std::vector<std::string>{"N2", "N2-NA"}));
  EXPECT_TRUE(std::filesystem::exists(opt.output_dir + "/N2.ds"));
  EXPECT_TRUE(std::filesystem::exists(opt.output_dir + "/N2-NA.ds"));
}

// Cancel after the Nth checkpoint, resume, and compare bytes against an
// uninterrupted run of the same campaign.
void check_cancel_resume_identity(const std::string& tag,
                                  double fault_intensity) {
  // Uninterrupted reference run.
  CampaignOptions ref;
  ref.catalog = quick_catalog(fault_intensity);
  ref.datasets = {"UW3"};
  ref.output_dir = fresh_dir(tag + "_ref");
  const CampaignReport ref_report = run_campaign(ref);
  ASSERT_TRUE(ref_report.status.is_ok()) << ref_report.status.message();
  const std::string expected = read_bytes(ref.output_dir + "/UW3.ds");
  ASSERT_FALSE(expected.empty());

  // Interrupted run: trip the token right after the second checkpoint write.
  CancelToken token;
  CampaignOptions interrupted;
  interrupted.catalog = quick_catalog(fault_intensity);
  interrupted.datasets = {"UW3"};
  interrupted.output_dir = fresh_dir(tag + "_out");
  interrupted.checkpoint_dir = fresh_dir(tag + "_ck");
  interrupted.cancel = &token;
  interrupted.after_checkpoint = [&token](std::size_t writes) {
    if (writes >= 2) token.cancel();
  };
  const CampaignReport stopped = run_campaign(interrupted);
  ASSERT_FALSE(stopped.status.is_ok());
  EXPECT_EQ(stopped.status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(stopped.stopped_in, "UW3");
  EXPECT_FALSE(std::filesystem::exists(interrupted.output_dir + "/UW3.ds"));

  // Resume from the checkpoint and compare bytes.
  CampaignOptions resumed = interrupted;
  resumed.cancel = nullptr;
  resumed.after_checkpoint = nullptr;
  resumed.resume = true;
  const CampaignReport finished = run_campaign(resumed);
  ASSERT_TRUE(finished.status.is_ok()) << finished.status.message();
  EXPECT_EQ(finished.resumed, (std::vector<std::string>{"UW3"}));
  EXPECT_EQ(read_bytes(resumed.output_dir + "/UW3.ds"), expected)
      << "resumed dataset differs from the uninterrupted run";
}

TEST(Campaign, CancelResumeByteIdentityFaultFree) {
  check_cancel_resume_identity("identity0", 0.0);
}

TEST(Campaign, CancelResumeByteIdentityUnderFaults) {
  check_cancel_resume_identity("identityf", 0.3);
}

TEST(Campaign, ResumeKeepsFinishedOutputs) {
  CampaignOptions opt;
  opt.catalog = quick_catalog();
  opt.datasets = {"UW3"};
  opt.output_dir = fresh_dir("keep_out");
  opt.checkpoint_dir = fresh_dir("keep_ck");
  const CampaignReport first = run_campaign(opt);
  ASSERT_TRUE(first.status.is_ok()) << first.status.message();
  EXPECT_EQ(first.completed, (std::vector<std::string>{"UW3"}));

  opt.resume = true;
  const CampaignReport second = run_campaign(opt);
  ASSERT_TRUE(second.status.is_ok()) << second.status.message();
  EXPECT_TRUE(second.completed.empty());
  EXPECT_EQ(second.loaded, (std::vector<std::string>{"UW3"}));
}

// A resumed campaign parses each checkpoint generation file once: the
// store keeps the generation the campaign's load found, so its first save
// does not read the directory again.
TEST(Campaign, ResumeParsesEachCheckpointFileOnce) {
  CancelToken token;
  CampaignOptions opt;
  opt.catalog = quick_catalog(0.3);
  opt.datasets = {"UW3"};
  opt.output_dir = fresh_dir("load_once_out");
  opt.checkpoint_dir = fresh_dir("load_once_ck");
  opt.cancel = &token;
  opt.after_checkpoint = [&token](std::size_t writes) {
    if (writes >= 2) token.cancel();
  };
  ASSERT_EQ(run_campaign(opt).status.code(), ErrorCode::kCancelled);
  std::uint64_t generations = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator{opt.checkpoint_dir}) {
    (void)entry;
    ++generations;
  }
  ASSERT_EQ(generations, 2u);

  MetricsRegistry& metrics = MetricsRegistry::global();
  const bool was_enabled = metrics.enabled();
  metrics.reset();
  metrics.enable();
  opt.cancel = nullptr;
  opt.after_checkpoint = nullptr;
  opt.resume = true;
  const CampaignReport resumed = run_campaign(opt);
  const MetricsSnapshot snap = metrics.snapshot();
  metrics.enable(was_enabled);
  ASSERT_TRUE(resumed.status.is_ok()) << resumed.status.message();
  EXPECT_EQ(resumed.resumed, (std::vector<std::string>{"UW3"}));
  std::uint64_t loads = 0;
  std::uint64_t saves = 0;
  for (const auto& [name, phase] : snap.phases) {
    if (name == "meas.checkpoint.load") loads = phase.calls;
    if (name == "meas.checkpoint.save") saves = phase.calls;
  }
  EXPECT_GT(saves, 0u);
  EXPECT_EQ(loads, generations);
}

TEST(Campaign, PreCancelledTokenStopsBeforeAnyWork) {
  CancelToken token;
  token.cancel();
  CampaignOptions opt;
  opt.catalog = quick_catalog();
  opt.datasets = {"UW3"};
  opt.output_dir = fresh_dir("precancel");
  opt.cancel = &token;
  const CampaignReport report = run_campaign(opt);
  EXPECT_EQ(report.status.code(), ErrorCode::kCancelled);
  EXPECT_TRUE(report.completed.empty());
  EXPECT_FALSE(std::filesystem::exists(opt.output_dir + "/UW3.ds"));
}

}  // namespace
}  // namespace pathsel::meas
