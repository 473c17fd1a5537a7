// Aligned tabular rendering of results, for interactive tools and the
// server's QUERY answers.
//
// There is one renderer, and it reads columns (relational/column_table.h):
// typed reads for int and double columns, Values for generic ones. A
// Relation is transposed once and rendered the same way.

#ifndef FRO_RELATIONAL_PRETTY_H_
#define FRO_RELATIONAL_PRETTY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "relational/column_table.h"
#include "relational/relation.h"

namespace fro {

class Catalog;

struct PrettyOptions {
  /// Render in canonical order (sorted columns and rows), matching
  /// CanonicalString's ordering, except that -0.0 sorts before 0.0 (they
  /// tie under Value::operator< but print differently), so the text
  /// never depends on the sort's tie order.
  bool canonical = true;
  /// Cap on rendered rows; the remainder is summarized as "... (N more)".
  size_t max_rows = 50;
  /// String shown for null values.
  std::string null_text = "∅";
};

/// The renderer. Construction is its first pass (column and row order,
/// column widths, exact size), kept so a caller can read the size before
/// the second pass, Write, renders anything; the server refuses an
/// over-limit table this way. `table` must outlive the layout.
class PrettyLayout {
 public:
  PrettyLayout(const ColumnTable& table, const Catalog* catalog,
               const PrettyOptions& options);

  /// The exact size in bytes of the table Write renders, without its
  /// trailer.
  size_t bytes() const { return bytes_; }

  /// The second pass: the table followed by `trailer`, written into one
  /// buffer sized once for both.
  std::string Write(std::string_view trailer = {}) const;

 private:
  std::string null_text_;
  std::vector<std::string> headers_;
  /// The table's columns in display order.
  std::vector<const ColumnVector*> columns_;
  /// Row order: a permutation of the table's rows, shown ones first.
  std::vector<uint32_t> order_;
  size_t shown_ = 0;
  std::vector<size_t> widths_;
  std::string more_;
  size_t bytes_ = 0;
};

/// Renders `rel`, transposed to columns once, as an aligned ASCII table
/// followed by `trailer`:
///
///   dno | dname    | location
///   ----+----------+---------
///     1 | Research | Zurich
///     3 | Archive  | Zurich
std::string PrettyTable(const Relation& rel, const Catalog* catalog,
                        const PrettyOptions& options = PrettyOptions(),
                        std::string_view trailer = {});

}  // namespace fro

#endif  // FRO_RELATIONAL_PRETTY_H_
