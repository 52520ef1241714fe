// Little-endian binary serialization used by the archive format and master
// blocks.

#ifndef P2P_UTIL_SERIALIZE_H_
#define P2P_UTIL_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace p2p {
namespace util {

/// \brief Appends little-endian primitives to a growing byte buffer.
class Writer {
 public:
  /// \name Fixed-width little-endian writers.
  /// @{
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// @}

  /// LEB128 variable-length unsigned integer.
  void PutVarint(uint64_t v);

  /// Length-prefixed (varint) byte blob.
  void PutBytes(const std::vector<uint8_t>& bytes);
  /// Length-prefixed (varint) string.
  void PutString(const std::string& s);
  /// Raw bytes, no length prefix.
  void PutRaw(const uint8_t* data, size_t len);

  /// The accumulated buffer.
  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> TakeData() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// \brief Consumes little-endian primitives from a byte buffer; every getter
/// fails with Corruption on truncated input.
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Reader(const std::vector<uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  /// \name Fixed-width little-endian readers.
  /// @{
  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  /// @}

  /// LEB128 varint (at most 10 bytes).
  Result<uint64_t> GetVarint();
  /// Length-prefixed byte blob.
  Result<std::vector<uint8_t>> GetBytes();
  /// Length-prefixed string.
  Result<std::string> GetString();
  /// Exactly `len` raw bytes.
  Status GetRaw(uint8_t* out, size_t len);

  /// Bytes not yet consumed.
  size_t remaining() const { return len_ - pos_; }
  /// True when the whole buffer has been consumed.
  bool AtEnd() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace util
}  // namespace p2p

#endif  // P2P_UTIL_SERIALIZE_H_
