// Tabular result emission: the figure/table benches print gnuplot-ready TSV
// plus aligned human-readable tables through this one writer, so every
// artefact in EXPERIMENTS.md has a uniform, parseable format.

#ifndef P2P_UTIL_TABLE_H_
#define P2P_UTIL_TABLE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace p2p {
namespace util {

/// \brief Collects rows of stringifiable cells and renders them as an aligned
/// text table or as TSV (for gnuplot / spreadsheets).
class Table {
 public:
  /// Creates a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Starts a new empty row.
  void BeginRow();

  /// \name Appends one cell to the current row.
  /// @{
  void Add(const std::string& cell);
  void Add(const char* cell);
  void Add(int64_t v);
  void Add(uint64_t v);
  void Add(int v) { Add(static_cast<int64_t>(v)); }
  /// Formats with `precision` digits after the decimal point.
  void Add(double v, int precision = 4);
  /// @}

  /// Renders an aligned, boxed, human-readable table.
  void RenderPretty(std::ostream& os) const;

  /// Renders `# header\nv1\tv2...` TSV; gnuplot-compatible.
  void RenderTsv(std::ostream& os) const;

  /// Renders RFC-4180 CSV (header row, quoted cells where needed).
  void RenderCsv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace util
}  // namespace p2p

#endif  // P2P_UTIL_TABLE_H_
