#include "relational/ops.h"

#include <set>
#include <utility>

#include "common/check.h"
#include "relational/index.h"

namespace fro {

EquiKeys ExtractEquiKeys(const PredicatePtr& pred, const Scheme& left,
                         const Scheme& right) {
  EquiKeys keys;
  if (pred == nullptr) return keys;
  for (const PredicatePtr& conjunct : pred->Conjuncts(pred)) {
    if (conjunct->kind() != Predicate::Kind::kCmp) continue;
    if (conjunct->cmp_op() != CmpOp::kEq) continue;
    const Operand& a = conjunct->lhs();
    const Operand& b = conjunct->rhs();
    if (!a.is_column() || !b.is_column()) continue;
    if (left.Contains(a.attr()) && right.Contains(b.attr())) {
      keys.left.push_back(a.attr());
      keys.right.push_back(b.attr());
    } else if (left.Contains(b.attr()) && right.Contains(a.attr())) {
      keys.left.push_back(b.attr());
      keys.right.push_back(a.attr());
    }
  }
  return keys;
}

Value NormalizeHashKeyValue(const Value& v) {
  if (v.kind() == Value::Kind::kInt) {
    return Value::Double(static_cast<double>(v.AsInt()));
  }
  return v;
}

namespace {

// Internal match-driving core shared by join / outerjoin / antijoin /
// semijoin. For each left row it invokes `on_match` for every right row
// satisfying the full predicate and then `on_done(had_match)`.
class Matcher {
 public:
  Matcher(const Relation& left, const Relation& right,
          const PredicatePtr& pred, JoinAlgo algo, KernelStats* stats,
          const HashIndex* prebuilt = nullptr)
      : left_(left),
        right_(right),
        pred_(pred),
        stats_(stats),
        out_scheme_(left.scheme().Concat(right.scheme())) {
    EquiKeys keys = ExtractEquiKeys(pred, left.scheme(), right.scheme());
    // A prebuilt index serves when it is keyed on exactly the
    // predicate's equi-key columns, in the order the probe keys come.
    if (prebuilt != nullptr && keys.Usable() &&
        algo != JoinAlgo::kNestedLoop &&
        prebuilt->key_positions() == right.scheme().PositionsOf(keys.right)) {
      use_hash_ = true;
      keys_ = std::move(keys);
      index_ = prebuilt;
      return;
    }
    use_hash_ = algo == JoinAlgo::kHash ||
                (algo == JoinAlgo::kAuto && keys.Usable());
    if (use_hash_ && !keys.Usable()) {
      // Hash requested but no equi keys: fall back to nested loop.
      use_hash_ = false;
    }
    if (use_hash_) {
      keys_ = std::move(keys);
      owned_index_ = std::make_unique<HashIndex>(
          right_, right_.scheme().PositionsOf(keys_.right));
      index_ = owned_index_.get();
    }
  }

  const Scheme& out_scheme() const { return out_scheme_; }

  /// With `stop_after_first_match`, stops scanning candidates for a left
  /// row as soon as one match is found — the accounting (and work) the
  /// antijoin/semijoin kernels and the pipelined executor share.
  template <typename OnMatch, typename OnDone>
  void Run(OnMatch&& on_match, OnDone&& on_done,
           bool stop_after_first_match = false) {
    std::vector<int> left_key_positions;
    if (use_hash_) {
      for (AttrId attr : keys_.left) {
        left_key_positions.push_back(left_.scheme().IndexOf(attr));
      }
    }
    for (size_t i = 0; i < left_.NumRows(); ++i) {
      ++stats_->left_reads;
      const Tuple& lrow = left_.row(i);
      bool had_match = false;
      auto consider = [&](size_t right_index) {
        ++stats_->right_reads;
        const Tuple& rrow = right_.row(right_index);
        Tuple joined = lrow.Concat(rrow);
        ++stats_->predicate_evals;
        if (pred_ == nullptr || IsTrue(pred_->Eval(joined, out_scheme_))) {
          had_match = true;
          on_match(lrow, rrow, joined);
        }
      };
      if (use_hash_) {
        std::vector<Value> key;
        key.reserve(left_key_positions.size());
        bool null_key = false;
        for (int pos : left_key_positions) {
          Value v = NormalizeHashKeyValue(lrow.value(static_cast<size_t>(pos)));
          if (v.is_null()) {
            null_key = true;
            break;
          }
          key.push_back(std::move(v));
        }
        ++stats_->probes;
        if (!null_key) {
          for (size_t right_index : index_->Probe(key)) {
            consider(right_index);
            if (stop_after_first_match && had_match) break;
          }
        }
      } else {
        for (size_t right_index = 0; right_index < right_.NumRows();
             ++right_index) {
          consider(right_index);
          if (stop_after_first_match && had_match) break;
        }
      }
      on_done(lrow, had_match);
    }
  }

 private:
  const Relation& left_;
  const Relation& right_;
  PredicatePtr pred_;
  KernelStats* stats_;
  Scheme out_scheme_;
  bool use_hash_ = false;
  EquiKeys keys_;
  std::unique_ptr<HashIndex> owned_index_;
  const HashIndex* index_ = nullptr;
};

}  // namespace

Relation Join(const Relation& left, const Relation& right,
              const PredicatePtr& pred, JoinAlgo algo, KernelStats* stats,
              const HashIndex* prebuilt_right_index) {
  KernelStats local;
  Matcher matcher(left, right, pred, algo, &local, prebuilt_right_index);
  Relation out(matcher.out_scheme());
  matcher.Run(
      [&](const Tuple&, const Tuple&, const Tuple& joined) {
        ++local.emitted;
        out.AddRow(joined);
      },
      [](const Tuple&, bool) {});
  if (stats != nullptr) *stats += local;
  return out;
}

Relation LeftOuterJoin(const Relation& left, const Relation& right,
                       const PredicatePtr& pred, JoinAlgo algo,
                       KernelStats* stats,
                       const HashIndex* prebuilt_right_index) {
  KernelStats local;
  Matcher matcher(left, right, pred, algo, &local, prebuilt_right_index);
  Relation out(matcher.out_scheme());
  const size_t right_arity = right.scheme().size();
  matcher.Run(
      [&](const Tuple&, const Tuple&, const Tuple& joined) {
        ++local.emitted;
        out.AddRow(joined);
      },
      [&](const Tuple& lrow, bool had_match) {
        if (!had_match) {
          ++local.emitted;
          out.AddRow(lrow.Concat(Tuple::Nulls(right_arity)));
        }
      });
  if (stats != nullptr) *stats += local;
  return out;
}

Relation Antijoin(const Relation& left, const Relation& right,
                  const PredicatePtr& pred, JoinAlgo algo,
                  KernelStats* stats,
                  const HashIndex* prebuilt_right_index) {
  KernelStats local;
  Matcher matcher(left, right, pred, algo, &local, prebuilt_right_index);
  Relation out(left.scheme());
  matcher.Run([](const Tuple&, const Tuple&, const Tuple&) {},
              [&](const Tuple& lrow, bool had_match) {
                if (!had_match) {
                  ++local.emitted;
                  out.AddRow(lrow);
                }
              },
              /*stop_after_first_match=*/true);
  if (stats != nullptr) *stats += local;
  return out;
}

Relation Semijoin(const Relation& left, const Relation& right,
                  const PredicatePtr& pred, JoinAlgo algo,
                  KernelStats* stats,
                  const HashIndex* prebuilt_right_index) {
  KernelStats local;
  Matcher matcher(left, right, pred, algo, &local, prebuilt_right_index);
  Relation out(left.scheme());
  matcher.Run([](const Tuple&, const Tuple&, const Tuple&) {},
              [&](const Tuple& lrow, bool had_match) {
                if (had_match) {
                  ++local.emitted;
                  out.AddRow(lrow);
                }
              },
              /*stop_after_first_match=*/true);
  if (stats != nullptr) *stats += local;
  return out;
}

Relation GeneralizedOuterJoin(const Relation& left, const Relation& right,
                              const PredicatePtr& pred, const AttrSet& subset,
                              JoinAlgo algo, KernelStats* stats) {
  FRO_CHECK(left.scheme().ToAttrSet().ContainsAll(subset))
      << "GOJ subset must be contained in the left scheme";
  KernelStats local;
  Matcher matcher(left, right, pred, algo, &local);
  Relation out(matcher.out_scheme());

  // Positions of the subset attributes in the left scheme, and in the
  // output scheme (left columns keep their positions under Concat).
  std::vector<int> subset_positions;
  for (AttrId attr : subset) {
    subset_positions.push_back(left.scheme().IndexOf(attr));
  }

  auto project_subset = [&](const Tuple& lrow) {
    std::vector<Value> key;
    key.reserve(subset_positions.size());
    for (int pos : subset_positions) {
      key.push_back(lrow.value(static_cast<size_t>(pos)));
    }
    return key;
  };

  // π[S] of the joined tuples (set semantics), and π[S] of all left rows.
  std::set<std::vector<Value>> matched_projections;
  std::set<std::vector<Value>> left_projections;

  matcher.Run(
      [&](const Tuple& lrow, const Tuple&, const Tuple& joined) {
        ++local.emitted;
        out.AddRow(joined);
        matched_projections.insert(project_subset(lrow));
      },
      [&](const Tuple& lrow, bool) {
        left_projections.insert(project_subset(lrow));
      });

  // (π[S](L) − π[S](JN)) × null: one padded tuple per missing projection.
  const Scheme& out_scheme = matcher.out_scheme();
  for (const std::vector<Value>& key : left_projections) {
    if (matched_projections.count(key) > 0) continue;
    std::vector<Value> values(out_scheme.size());
    for (size_t k = 0; k < subset_positions.size(); ++k) {
      values[static_cast<size_t>(subset_positions[k])] = key[k];
    }
    ++local.emitted;
    out.AddRow(Tuple(std::move(values)));
  }
  if (stats != nullptr) *stats += local;
  return out;
}

Relation Restrict(const Relation& input, const PredicatePtr& pred,
                  KernelStats* stats) {
  KernelStats local;
  Relation out(input.scheme());
  for (const Tuple& row : input.rows()) {
    ++local.left_reads;
    ++local.predicate_evals;
    if (pred == nullptr || IsTrue(pred->Eval(row, input.scheme()))) {
      ++local.emitted;
      out.AddRow(row);
    }
  }
  if (stats != nullptr) *stats += local;
  return out;
}

Relation Project(const Relation& input, const std::vector<AttrId>& cols,
                 bool dedup, KernelStats* stats) {
  KernelStats local;
  std::vector<int> positions;
  positions.reserve(cols.size());
  for (AttrId attr : cols) {
    int pos = input.scheme().IndexOf(attr);
    FRO_CHECK_GE(pos, 0) << "projection column not in scheme";
    positions.push_back(pos);
  }
  Relation out((Scheme(cols)));
  std::set<std::vector<Value>> seen;
  for (const Tuple& row : input.rows()) {
    ++local.left_reads;
    std::vector<Value> values;
    values.reserve(positions.size());
    for (int pos : positions) {
      values.push_back(row.value(static_cast<size_t>(pos)));
    }
    if (dedup && !seen.insert(values).second) continue;
    ++local.emitted;
    out.AddRow(Tuple(std::move(values)));
  }
  if (stats != nullptr) *stats += local;
  return out;
}

Relation CrossProduct(const Relation& left, const Relation& right,
                      KernelStats* stats) {
  KernelStats local;
  Relation out(left.scheme().Concat(right.scheme()));
  out.Reserve(left.NumRows() * right.NumRows());
  for (const Tuple& lrow : left.rows()) {
    ++local.left_reads;
    for (const Tuple& rrow : right.rows()) {
      ++local.right_reads;
      ++local.emitted;
      out.AddRow(lrow.Concat(rrow));
    }
  }
  if (stats != nullptr) *stats += local;
  return out;
}

}  // namespace fro
