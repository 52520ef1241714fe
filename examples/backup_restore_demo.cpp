// End-to-end data-path demo: the complete backup/restore cycle of paper
// section 2.2 on real bytes.
//
//  1. Build archives from a synthetic home directory (full files + deltas).
//  2. Encrypt each archive with a session key, erasure-code it (k=32, m=32
//     here; 128/128 works identically), and hash the shards into a Merkle
//     tree for proofs of storage.
//  3. Seal a master block with a passphrase.
//  4. Simulate catastrophe: the user machine dies AND half the partners
//     disappear.
//  5. Restore: open the master block, gather surviving shards, decode,
//     decrypt, reconstruct every file, verify digests.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "archive/builder.h"
#include "archive/delta.h"
#include "archive/master_block.h"
#include "archive/pipeline.h"
#include "crypto/proof_of_storage.h"
#include "util/rng.h"

using namespace p2p;

namespace {

std::vector<uint8_t> SyntheticFile(util::Rng* rng, size_t size) {
  std::vector<uint8_t> out(size);
  for (auto& b : out) b = static_cast<uint8_t>(rng->NextU32());
  return out;
}

}  // namespace

int main() {
  util::Rng rng(2026);
  constexpr int kDataShards = 32;
  constexpr int kParityShards = 32;

  // --- 1. The user's files, including an edited second version. ---
  std::map<std::string, std::vector<uint8_t>> files;
  files["photos/trip.raw"] = SyntheticFile(&rng, 300'000);
  files["docs/thesis.tex"] = SyntheticFile(&rng, 120'000);
  files["mail/inbox.mbox"] = SyntheticFile(&rng, 80'000);
  auto thesis_v2 = files["docs/thesis.tex"];
  thesis_v2[5'000] ^= 0xff;  // one edit
  thesis_v2.insert(thesis_v2.begin() + 60'000, {'n', 'e', 'w'});

  archive::BackupBuilder builder(/*max_archive_bytes=*/384 * 1024);
  for (const auto& [path, content] : files) {
    if (auto st = builder.AddFile(path, content); !st.ok()) {
      std::printf("AddFile(%s) failed: %s\n", path.c_str(),
                  st.ToString().c_str());
      return 1;
    }
  }
  if (auto st = builder.AddFileVersion("docs/thesis.tex", thesis_v2,
                                       files["docs/thesis.tex"]);
      !st.ok()) {
    std::printf("AddFileVersion failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto archives = builder.TakeArchives();
  archives.push_back(builder.BuildMetadataArchive());
  std::printf("built %zu archives (incl. metadata) from %zu files\n",
              archives.size(), files.size() + 1);

  // --- 2. Encode every archive into encrypted shards. ---
  auto pipeline = archive::BackupPipeline::Create(kDataShards, kParityShards);
  if (!pipeline.ok()) return 1;
  archive::MasterBlock master;
  master.owner_id = 1;
  master.sequence = 1;
  std::vector<archive::EncodedArchive> encoded;
  for (const auto& a : archives) {
    auto enc = (*pipeline)->Encode(a, &rng);
    if (!enc.ok()) return 1;
    auto rec = enc->ToRecord(kDataShards, kParityShards,
                             a.id() == archive::kMetadataArchiveId);
    // Assign each shard to a partner peer id (simulated placement).
    for (int b = 0; b < kDataShards + kParityShards; ++b) {
      rec.block_hosts.push_back(1000 + static_cast<uint32_t>(b));
    }
    master.archives.push_back(rec);
    encoded.push_back(std::move(enc).value());
    std::printf("archive %llu: %zu bytes -> %d shards of %zu bytes\n",
                static_cast<unsigned long long>(
                    master.archives.back().archive_id),
                static_cast<size_t>(master.archives.back().archive_size),
                kDataShards + kParityShards,
                encoded.back().shard_size);
  }

  // Proof of storage: audit one partner before trusting it.
  crypto::StorageAuditor auditor(encoded[0].shards[0], 4, &rng);
  const auto challenge = auditor.NextChallenge();
  const auto proof =
      crypto::StorageAuditor::Respond(encoded[0].shards[0], challenge);
  std::printf("proof-of-storage audit of partner 1000: %s\n",
              auditor.Verify(proof) ? "PASS" : "FAIL");

  // --- 3. Seal the master block. ---
  const auto sealed = master.Seal("correct horse battery staple");
  std::printf("master block sealed: %zu bytes\n", sealed.size());

  // --- 4. Catastrophe: lose the machine and half the partners. ---
  util::Rng disaster(13);
  std::vector<std::vector<bool>> survivors;
  for (const auto& enc : encoded) {
    std::vector<bool> present(enc.shards.size(), false);
    for (uint32_t keep : disaster.SampleIndices(
             static_cast<uint32_t>(enc.shards.size()), kDataShards)) {
      present[keep] = true;  // exactly k survivors: worst recoverable case
    }
    survivors.push_back(present);
  }
  std::printf("disaster: every archive reduced to %d of %d shards\n",
              kDataShards, kDataShards + kParityShards);

  // --- 5. Restore from the network. ---
  auto opened = archive::MasterBlock::Open(sealed, "correct horse battery staple");
  if (!opened.ok()) {
    std::printf("FAILED to open master block\n");
    return 1;
  }
  size_t verified = 0, restored_files = 0;
  for (size_t i = 0; i < encoded.size(); ++i) {
    const auto& rec = opened->archives[i];
    auto restored = (*pipeline)->Decode(
        encoded[i].shards, survivors[i], encoded[i].shard_size,
        rec.archive_size, rec.archive_digest, rec.session_key, rec.archive_id);
    if (!restored.ok()) {
      std::printf("FAILED to restore archive %llu: %s\n",
                  static_cast<unsigned long long>(rec.archive_id),
                  restored.status().ToString().c_str());
      return 1;
    }
    ++verified;
    for (const auto& entry : restored->entries()) {
      if (entry.kind == archive::EntryKind::kFull &&
          files.count(entry.path) > 0 && entry.payload == files[entry.path]) {
        ++restored_files;
      }
      if (entry.kind == archive::EntryKind::kDelta) {
        auto applied = archive::ApplyDelta(files[entry.path], entry.payload);
        if (applied.ok() && *applied == thesis_v2) ++restored_files;
      }
    }
  }
  std::printf(
      "restored %zu archives, %zu file versions verified bit-exact\n"
      "wrong passphrase rejected: %s\n",
      verified, restored_files,
      archive::MasterBlock::Open(sealed, "wrong").ok() ? "NO (bug!)" : "yes");
  return 0;
}
