// The concrete data path of the backup task (paper 2.2.1-2.2.2), tying the
// substrates together: serialize archive -> encrypt with a per-archive
// session key -> split into k data shards -> add m Reed-Solomon shards ->
// hash each shard into a Merkle tree (for proofs of storage) -> record
// everything in the master block. Restoration runs the same path backwards
// from any k surviving shards.

#ifndef P2P_ARCHIVE_PIPELINE_H_
#define P2P_ARCHIVE_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "archive/archive.h"
#include "archive/master_block.h"
#include "crypto/chacha20.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "erasure/reed_solomon.h"
#include "util/result.h"
#include "util/rng.h"

namespace p2p {
namespace archive {

/// \brief An archive turned into placeable blocks.
struct EncodedArchive {
  uint64_t archive_id = 0;
  uint64_t archive_size = 0;            ///< plaintext serialized size
  size_t shard_size = 0;                ///< bytes per shard
  crypto::Digest archive_digest{};      ///< digest of the plaintext bytes
  crypto::Digest merkle_root{};         ///< root over the encrypted shards
  crypto::Key256 session_key{};         ///< random per-archive key
  std::vector<std::vector<uint8_t>> shards;  ///< n = k + m encrypted shards

  /// Fills an ArchiveRecord (placement hosts are appended by the caller).
  ArchiveRecord ToRecord(int k, int m, bool is_metadata) const;
};

/// \brief Stateless encoder/decoder for the (k, m) configuration.
class BackupPipeline {
 public:
  /// Creates the pipeline; fails when (k, m) is invalid for RS over GF(256).
  static util::Result<std::unique_ptr<BackupPipeline>> Create(int k, int m);

  /// Serializes, encrypts and shards one archive. `rng` supplies the
  /// session key.
  util::Result<EncodedArchive> Encode(const Archive& a, util::Rng* rng) const;

  /// Rebuilds the archive from surviving shards. `shards[i]` is ignored
  /// when `present[i]` is false; at least k shards must be present.
  /// Verifies the plaintext digest before parsing.
  util::Result<Archive> Decode(
      const std::vector<std::vector<uint8_t>>& shards,
      const std::vector<bool>& present, size_t shard_size,
      uint64_t archive_size, const crypto::Digest& expected_digest,
      const crypto::Key256& session_key, uint64_t archive_id) const;

  /// Regenerates the missing shards in place from any k survivors - the
  /// paper's repair step ("download k blocks ... re-encode either the
  /// missing blocks, or new blocks").
  util::Status Repair(std::vector<std::vector<uint8_t>>* shards,
                      const std::vector<bool>& present, size_t shard_size) const;

  int k() const { return codec_->k(); }
  int m() const { return codec_->m(); }
  int n() const { return codec_->n(); }

 private:
  explicit BackupPipeline(std::unique_ptr<erasure::ReedSolomon> codec);

  static crypto::Nonce96 NonceFor(uint64_t archive_id);

  std::unique_ptr<erasure::ReedSolomon> codec_;
};

}  // namespace archive
}  // namespace p2p

#endif  // P2P_ARCHIVE_PIPELINE_H_
