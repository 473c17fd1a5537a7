#include "relational/stats.h"

#include <algorithm>
#include <set>

namespace fro {

double Histogram::FractionBelow(double x) const {
  if (!populated) return kDefaultRangeSelectivity;
  if (x <= lo) return 0.0;
  if (x >= hi) return 1.0;
  const double width = (hi - lo) / kBuckets;
  double below = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const double bucket_lo = lo + b * width;
    const double bucket_hi = bucket_lo + width;
    if (x >= bucket_hi) {
      below += fractions[b];
    } else {
      below += fractions[b] * (x - bucket_lo) / width;
      break;
    }
  }
  return std::min(1.0, std::max(0.0, below));
}

RelationStats ComputeRelationStats(const Relation& relation) {
  const Scheme& scheme = relation.scheme();
  RelationStats out;
  out.reserve(scheme.size());
  for (size_t c = 0; c < scheme.size(); ++c) {
    std::set<Value> distinct;
    size_t nulls = 0;
    std::vector<double> numeric_values;
    for (const Tuple& row : relation.rows()) {
      const Value& v = row.value(c);
      if (v.is_null()) {
        ++nulls;
      } else {
        distinct.insert(v);
        if (v.kind() == Value::Kind::kInt ||
            v.kind() == Value::Kind::kDouble) {
          numeric_values.push_back(v.NumericValue());
        }
      }
    }
    AttrStats stats;
    stats.distinct = std::max<double>(1.0, distinct.size());
    stats.null_fraction =
        relation.NumRows() == 0
            ? 0.0
            : static_cast<double>(nulls) / relation.NumRows();
    if (numeric_values.size() >= 2) {
      auto [lo_it, hi_it] =
          std::minmax_element(numeric_values.begin(), numeric_values.end());
      Histogram& h = stats.histogram;
      h.lo = *lo_it;
      h.hi = *hi_it;
      if (h.hi > h.lo) {
        const double width = (h.hi - h.lo) / Histogram::kBuckets;
        for (double v : numeric_values) {
          int bucket = static_cast<int>((v - h.lo) / width);
          bucket = std::min(bucket, Histogram::kBuckets - 1);
          h.fractions[bucket] += 1.0;
        }
        for (double& f : h.fractions) f /= numeric_values.size();
        h.populated = true;
      }
    }
    out.push_back(stats);
  }
  return out;
}

}  // namespace fro
