#include "archive/pipeline.h"

#include <cstring>

#include "erasure/erasure_code.h"

namespace p2p {
namespace archive {

ArchiveRecord EncodedArchive::ToRecord(int k, int m, bool is_metadata) const {
  ArchiveRecord rec;
  rec.archive_id = archive_id;
  rec.k = static_cast<uint32_t>(k);
  rec.m = static_cast<uint32_t>(m);
  rec.archive_size = archive_size;
  rec.archive_digest = archive_digest;
  rec.merkle_root = merkle_root;
  rec.is_metadata = is_metadata;
  rec.session_key = session_key;
  return rec;
}

util::Result<std::unique_ptr<BackupPipeline>> BackupPipeline::Create(int k, int m) {
  auto codec = erasure::ReedSolomon::Create(k, m);
  if (!codec.ok()) return codec.status();
  return std::unique_ptr<BackupPipeline>(
      new BackupPipeline(std::move(codec).value()));
}

BackupPipeline::BackupPipeline(std::unique_ptr<erasure::ReedSolomon> codec)
    : codec_(std::move(codec)) {}

crypto::Nonce96 BackupPipeline::NonceFor(uint64_t archive_id) {
  crypto::Nonce96 nonce{};
  for (int i = 0; i < 8; ++i) {
    nonce[static_cast<size_t>(i)] = static_cast<uint8_t>(archive_id >> (8 * i));
  }
  return nonce;
}

util::Result<EncodedArchive> BackupPipeline::Encode(const Archive& a,
                                                    util::Rng* rng) const {
  EncodedArchive out;
  out.archive_id = a.id();

  std::vector<uint8_t> plain = a.Serialize();
  out.archive_size = plain.size();
  out.archive_digest = crypto::Sha256::Hash(plain);

  for (auto& byte : out.session_key) byte = static_cast<uint8_t>(rng->NextU32());
  crypto::ChaCha20 cipher(out.session_key, NonceFor(a.id()));
  cipher.Apply(plain.data(), plain.size());

  out.shards = erasure::SplitIntoShards(plain, codec_->k(), &out.shard_size);
  out.shards.resize(static_cast<size_t>(codec_->n()));
  std::vector<uint8_t*> ptrs;
  ptrs.reserve(out.shards.size());
  for (int i = codec_->k(); i < codec_->n(); ++i) {
    out.shards[static_cast<size_t>(i)].assign(out.shard_size, 0);
  }
  for (auto& shard : out.shards) ptrs.push_back(shard.data());
  P2P_RETURN_IF_ERROR(codec_->Encode(ptrs, out.shard_size));

  auto tree = crypto::MerkleTree::Build(out.shards);
  if (!tree.ok()) return tree.status();
  out.merkle_root = tree->root();
  return out;
}

util::Status BackupPipeline::Repair(std::vector<std::vector<uint8_t>>* shards,
                                    const std::vector<bool>& present,
                                    size_t shard_size) const {
  if (static_cast<int>(shards->size()) != codec_->n()) {
    return util::Status::InvalidArgument("Repair expects n shard slots");
  }
  for (int i = 0; i < codec_->n(); ++i) {
    auto& shard = (*shards)[static_cast<size_t>(i)];
    if (!present[static_cast<size_t>(i)] || shard.size() != shard_size) {
      shard.assign(shard_size, 0);
    }
  }
  std::vector<uint8_t*> ptrs;
  ptrs.reserve(shards->size());
  for (auto& shard : *shards) ptrs.push_back(shard.data());
  return codec_->Decode(ptrs, present, shard_size);
}

util::Result<Archive> BackupPipeline::Decode(
    const std::vector<std::vector<uint8_t>>& shards,
    const std::vector<bool>& present, size_t shard_size, uint64_t archive_size,
    const crypto::Digest& expected_digest, const crypto::Key256& session_key,
    uint64_t archive_id) const {
  std::vector<std::vector<uint8_t>> work = shards;
  work.resize(static_cast<size_t>(codec_->n()));
  P2P_RETURN_IF_ERROR(Repair(&work, present, shard_size));

  std::vector<uint8_t> plain =
      erasure::JoinShards(work, codec_->k(), archive_size);
  crypto::ChaCha20 cipher(session_key, NonceFor(archive_id));
  cipher.Apply(plain.data(), plain.size());
  if (crypto::Sha256::Hash(plain) != expected_digest) {
    return util::Status::Corruption("restored archive digest mismatch");
  }
  return Archive::Deserialize(plain);
}

}  // namespace archive
}  // namespace p2p
