// Per-attribute statistics of one relation, in the System R tradition:
// distinct-value counts, null fractions and equi-width histograms over
// numeric values. RelationSnapshot::stats computes them once per relation
// version; the optimizer's CardinalityEstimator reads them.

#ifndef FRO_RELATIONAL_STATS_H_
#define FRO_RELATIONAL_STATS_H_

#include <vector>

#include "relational/relation.h"

namespace fro {

/// Selectivity of a range comparison when no histogram applies.
constexpr double kDefaultRangeSelectivity = 1.0 / 3.0;

/// Equi-width histogram over an attribute's numeric values, used for
/// range-predicate selectivity (col < literal and friends).
struct Histogram {
  static constexpr int kBuckets = 8;
  double lo = 0;
  double hi = 0;
  /// Fraction of (numeric, non-null) values per bucket; sums to 1 when
  /// populated.
  double fractions[kBuckets] = {0};
  bool populated = false;

  /// Estimated fraction of values strictly below `x` (linear
  /// interpolation within the containing bucket).
  double FractionBelow(double x) const;
};

/// Per-attribute statistics gathered by scanning a relation once.
struct AttrStats {
  double distinct = 1.0;       // non-null distinct values (>= 1)
  double null_fraction = 0.0;  // fraction of null values
  Histogram histogram;         // numeric attributes only
};

/// One AttrStats per column of a relation, in scheme order.
using RelationStats = std::vector<AttrStats>;

/// Scans every column of `relation` once.
RelationStats ComputeRelationStats(const Relation& relation);

}  // namespace fro

#endif  // FRO_RELATIONAL_STATS_H_
