// End-to-end data-path tests: archive -> encrypt -> shard -> lose blocks ->
// repair/restore, plus the bandwidth model against the paper's arithmetic.

#include <gtest/gtest.h>

#include "archive/builder.h"
#include "archive/pipeline.h"
#include "net/bandwidth.h"
#include "util/rng.h"

namespace p2p {
namespace archive {
namespace {

archive::Archive MakeArchive(util::Rng* rng, int files, size_t bytes_each) {
  archive::BackupBuilder builder;
  for (int i = 0; i < files; ++i) {
    std::vector<uint8_t> content(bytes_each);
    for (auto& b : content) b = static_cast<uint8_t>(rng->NextU32());
    EXPECT_TRUE(builder.AddFile("file-" + std::to_string(i), content).ok());
  }
  auto archives = builder.TakeArchives();
  EXPECT_EQ(archives.size(), 1u);
  return archives[0];
}

TEST(PipelineTest, EncodeDecodeNoLoss) {
  util::Rng rng(1);
  auto pipeline = BackupPipeline::Create(8, 4).value();
  const archive::Archive a = MakeArchive(&rng, 5, 1000);
  auto enc = pipeline->Encode(a, &rng).value();
  EXPECT_EQ(enc.shards.size(), 12u);
  std::vector<bool> present(12, true);
  auto back = pipeline
                  ->Decode(enc.shards, present, enc.shard_size, enc.archive_size,
                           enc.archive_digest, enc.session_key, a.id())
                  .value();
  ASSERT_EQ(back.entries().size(), 5u);
  EXPECT_EQ(back.entries()[2].payload, a.entries()[2].payload);
}

TEST(PipelineTest, RestoresFromExactlyKShards) {
  util::Rng rng(2);
  auto pipeline = BackupPipeline::Create(8, 4).value();
  const archive::Archive a = MakeArchive(&rng, 3, 2048);
  auto enc = pipeline->Encode(a, &rng).value();
  for (int trial = 0; trial < 10; ++trial) {
    auto shards = enc.shards;
    std::vector<bool> present(12, false);
    for (uint32_t keep : rng.SampleIndices(12, 8)) present[keep] = true;
    for (size_t i = 0; i < shards.size(); ++i) {
      if (!present[i]) shards[i].assign(enc.shard_size, 0);
    }
    auto back = pipeline
                    ->Decode(shards, present, enc.shard_size, enc.archive_size,
                             enc.archive_digest, enc.session_key, a.id())
                    .value();
    ASSERT_EQ(back.entries().size(), 3u);
    for (size_t e = 0; e < 3; ++e) {
      ASSERT_EQ(back.entries()[e].payload, a.entries()[e].payload);
    }
  }
}

TEST(PipelineTest, FailsBelowK) {
  util::Rng rng(3);
  auto pipeline = BackupPipeline::Create(8, 4).value();
  const archive::Archive a = MakeArchive(&rng, 1, 512);
  auto enc = pipeline->Encode(a, &rng).value();
  std::vector<bool> present(12, false);
  for (int i = 0; i < 7; ++i) present[static_cast<size_t>(i)] = true;
  EXPECT_TRUE(pipeline
                  ->Decode(enc.shards, present, enc.shard_size, enc.archive_size,
                           enc.archive_digest, enc.session_key, a.id())
                  .status()
                  .IsFailedPrecondition());
}

TEST(PipelineTest, RepairRegeneratesExactShards) {
  // The maintenance step: regenerate missing blocks, byte-identical to the
  // originals (so Merkle proofs keep working).
  util::Rng rng(4);
  auto pipeline = BackupPipeline::Create(8, 4).value();
  const archive::Archive a = MakeArchive(&rng, 2, 4096);
  auto enc = pipeline->Encode(a, &rng).value();
  auto shards = enc.shards;
  std::vector<bool> present(12, true);
  present[1] = present[9] = present[11] = false;
  shards[1].clear();
  shards[9].clear();
  shards[11].clear();
  ASSERT_TRUE(pipeline->Repair(&shards, present, enc.shard_size).ok());
  EXPECT_EQ(shards[1], enc.shards[1]);
  EXPECT_EQ(shards[9], enc.shards[9]);
  EXPECT_EQ(shards[11], enc.shards[11]);
}

TEST(PipelineTest, WrongSessionKeyDetected) {
  util::Rng rng(5);
  auto pipeline = BackupPipeline::Create(4, 2).value();
  const archive::Archive a = MakeArchive(&rng, 1, 256);
  auto enc = pipeline->Encode(a, &rng).value();
  crypto::Key256 wrong = enc.session_key;
  wrong[0] ^= 1;
  std::vector<bool> present(6, true);
  EXPECT_TRUE(pipeline
                  ->Decode(enc.shards, present, enc.shard_size, enc.archive_size,
                           enc.archive_digest, wrong, a.id())
                  .status()
                  .IsCorruption());
}

TEST(PipelineTest, ShardsAreEncrypted) {
  // The plaintext archive must not appear in any shard.
  util::Rng rng(6);
  auto pipeline = BackupPipeline::Create(4, 2).value();
  archive::BackupBuilder builder;
  std::vector<uint8_t> marker(64, 0x5A);
  ASSERT_TRUE(builder.AddFile("marker", marker).ok());
  auto archives = builder.TakeArchives();
  auto enc = pipeline->Encode(archives[0], &rng).value();
  for (const auto& shard : enc.shards) {
    int run = 0;
    for (uint8_t b : shard) {
      run = b == 0x5A ? run + 1 : 0;
      ASSERT_LT(run, 16) << "plaintext marker leaked into a shard";
    }
  }
}

TEST(PipelineTest, RecordCarriesPlacementMetadata) {
  util::Rng rng(7);
  auto pipeline = BackupPipeline::Create(4, 2).value();
  const archive::Archive a = MakeArchive(&rng, 1, 128);
  auto enc = pipeline->Encode(a, &rng).value();
  auto rec = enc.ToRecord(4, 2, /*is_metadata=*/true);
  EXPECT_EQ(rec.archive_id, a.id());
  EXPECT_EQ(rec.k, 4u);
  EXPECT_EQ(rec.m, 2u);
  EXPECT_TRUE(rec.is_metadata);
  EXPECT_EQ(rec.session_key, enc.session_key);
  EXPECT_EQ(rec.merkle_root, enc.merkle_root);
}

// --- The paper's bandwidth arithmetic (section 2.2.4) ---

TEST(BandwidthTest, PaperRepairTimeIs77Minutes) {
  const net::RepairCostModel model(net::LinkProfile::Dsl2009(),
                                   128ull * 1024 * 1024, 128, 128);
  // "delta_download > 512 s": 128 blocks of 1 MiB at 256 kB/s.
  EXPECT_NEAR(model.DownloadSeconds(), 512.0, 1.0);
  // "with d < 128, a total repair time should last 69 + 8 = 77 minutes"
  // (69 min upload of 128 blocks at 32 kB/s + ~8.5 min download).
  EXPECT_NEAR(model.RepairSeconds(128) / 60.0, 77.0, 1.0);
}

TEST(BandwidthTest, PaperRepairBudgetPerDay) {
  const net::RepairCostModel model(net::LinkProfile::Dsl2009(),
                                   128ull * 1024 * 1024, 128, 128);
  // "no more than 20 repair operations should be triggered per day".
  const double per_day = model.MaxRepairsPerDay(128);
  EXPECT_GT(per_day, 18.0);
  EXPECT_LT(per_day, 20.0);
}

TEST(BandwidthTest, FasterLinksScale) {
  const uint64_t archive = 128ull * 1024 * 1024;
  const net::RepairCostModel dsl(net::LinkProfile::Dsl2009(), archive, 128, 128);
  const net::RepairCostModel modern(net::LinkProfile::ModernDsl(), archive, 128,
                                    128);
  const net::RepairCostModel ftth(net::LinkProfile::Ftth(), archive, 128, 128);
  // "modern DSL connections are at least four times faster".
  EXPECT_NEAR(dsl.RepairSeconds(128) / modern.RepairSeconds(128), 4.0, 0.01);
  EXPECT_LT(ftth.RepairSeconds(128), modern.RepairSeconds(128));
}

TEST(BandwidthTest, InitialUploadAndRestore) {
  const net::RepairCostModel model(net::LinkProfile::Dsl2009(),
                                   128ull * 1024 * 1024, 128, 128);
  // Initial upload of one archive = 256 blocks at 32 kB/s = 8192 s.
  EXPECT_NEAR(model.InitialUploadSeconds(1), 8192.0, 16.0);
  // Restore downloads k blocks per archive.
  EXPECT_NEAR(model.RestoreSeconds(2), 1024.0, 2.0);
}

}  // namespace
}  // namespace archive
}  // namespace p2p
