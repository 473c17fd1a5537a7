// Aligned tabular rendering of relations, for interactive tools.

#ifndef FRO_RELATIONAL_PRETTY_H_
#define FRO_RELATIONAL_PRETTY_H_

#include <string>
#include <string_view>

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

/// Renders `rel` as an aligned ASCII table:
///
///   dno | dname    | location
///   ----+----------+---------
///     1 | Research | Zurich
///     3 | Archive  | Zurich
std::string PrettyTable(const Relation& rel, const Catalog* catalog,
                        const PrettyOptions& options = PrettyOptions());

/// The same table followed by `trailer`, rendered into one buffer sized
/// once for both (the server appends its row-count footer this way).
std::string PrettyTable(const Relation& rel, const Catalog* catalog,
                        const PrettyOptions& options,
                        std::string_view trailer);

}  // namespace fro

#endif  // FRO_RELATIONAL_PRETTY_H_
