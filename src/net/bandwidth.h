// The bandwidth / repair-cost model of paper section 2.2.4.
//
//   delta_repair = delta_download + delta_upload
//
// "If we estimate the bandwidth of a DSL connection to 32 kB/s for upload,
// and 256 kB/s for download, we obtain delta_download > 512 s and
// delta_upload > d x 32 [s]. Consequently, with d < 128, a total repair
// time should last 69 + 8 = 77 minutes." The same model yields the
// feasibility ceilings the paper derives (<= 20 repair operations per day;
// about one repair per month per archive for a 4 GB / 32-archive user).

#ifndef P2P_NET_BANDWIDTH_H_
#define P2P_NET_BANDWIDTH_H_

#include <cstdint>
#include <string>

namespace p2p {
namespace net {

/// Bytes in one archive: "a typical data amount of 128 MB per archive".
constexpr uint64_t kArchiveBytes = 128ull << 20;

/// \brief An asymmetric access link.
struct LinkProfile {
  std::string name;
  double download_bytes_per_s = 0.0;
  double upload_bytes_per_s = 0.0;

  /// The paper's reference DSL link: 256 kB/s down, 32 kB/s up.
  static LinkProfile Dsl2009();
  /// "modern DSL connections (in France) are at least four times faster".
  static LinkProfile ModernDsl();
  /// "FTTH connections are even faster" (100 Mb/s symmetric-ish).
  static LinkProfile Ftth();
};

/// \brief Cost model for one archive configuration on one link.
class RepairCostModel {
 public:
  /// `archive_bytes` is the archive size (paper: 128 MB), split into k data
  /// blocks with m redundancy blocks.
  RepairCostModel(const LinkProfile& link, uint64_t archive_bytes, int k, int m);

  /// Bytes in one block.
  uint64_t block_bytes() const { return block_bytes_; }

  /// Seconds to download the k blocks needed for decoding.
  double DownloadSeconds() const;

  /// Seconds to upload d regenerated blocks.
  double UploadSeconds(int d) const;

  /// Seconds for a whole repair replacing d blocks (paper formula, coding
  /// time neglected: "computation time for encoding and decoding is
  /// negligible compared to transfers").
  double RepairSeconds(int d) const;

  /// Repairs of d blocks that fit in 24 hours of the link's uplink+downlink.
  double MaxRepairsPerDay(int d) const;

  /// Seconds to upload an initial backup of `archives` archives (n blocks
  /// each): the cost of joining the system.
  double InitialUploadSeconds(int archives) const;

  /// Seconds to restore `archives` archives (k blocks each downloaded).
  double RestoreSeconds(int archives) const;

  const LinkProfile& link() const { return link_; }
  int k() const { return k_; }
  int m() const { return m_; }

 private:
  LinkProfile link_;
  uint64_t archive_bytes_;
  int k_;
  int m_;
  uint64_t block_bytes_;
};

}  // namespace net
}  // namespace p2p

#endif  // P2P_NET_BANDWIDTH_H_
