#include "wcoj/leapfrog.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "graph/attr_classes.h"

namespace fro {

MultiwaySpec AnalyzeMultiwayJoin(const ExprPtr& expr) {
  FRO_CHECK(expr != nullptr && expr->is_multiway());
  MultiwaySpec spec;
  spec.var_reps = expr->mj_var_order();
  spec.residual = expr->pred();

  // Shared grouping (graph/attr_classes.h) keeps the executor's
  // variable classes identical to the planner's.
  AttrUnionFind uf;
  std::vector<AttrId> eq_attrs;
  if (expr->pred() != nullptr) {
    for (const PredicatePtr& c : expr->pred()->Conjuncts(expr->pred())) {
      if (!IsColEqCol(c)) continue;
      uf.Union(c->lhs().attr(), c->rhs().attr());
      eq_attrs.push_back(c->lhs().attr());
      eq_attrs.push_back(c->rhs().attr());
    }
  }
  std::sort(eq_attrs.begin(), eq_attrs.end());
  eq_attrs.erase(std::unique(eq_attrs.begin(), eq_attrs.end()),
                 eq_attrs.end());

  // Attribute class of each variable, members sorted ascending.
  std::vector<std::vector<AttrId>> classes(spec.var_reps.size());
  for (size_t v = 0; v < spec.var_reps.size(); ++v) {
    const AttrId root = uf.Find(spec.var_reps[v]);
    for (AttrId a : eq_attrs) {
      if (uf.Find(a) == root) classes[v].push_back(a);
    }
    if (classes[v].empty()) classes[v].push_back(spec.var_reps[v]);
  }

  const auto& children = expr->mj_children();
  spec.child_levels.resize(children.size());
  spec.child_level_vars.resize(children.size());
  for (size_t c = 0; c < children.size(); ++c) {
    const AttrSet& attrs = children[c]->attrs();
    for (size_t v = 0; v < classes.size(); ++v) {
      for (AttrId member : classes[v]) {
        if (attrs.Contains(member)) {
          spec.child_levels[c].push_back(member);
          spec.child_level_vars[c].push_back(static_cast<int>(v));
          break;
        }
      }
    }
  }
  return spec;
}

void LeapfrogCore::Start(const MultiwaySpec& spec,
                         std::vector<const TrieIndex*> tries,
                         const Scheme& out_scheme) {
  tries_ = std::move(tries);
  const size_t n = tries_.size();
  FRO_CHECK_EQ(n, spec.child_levels.size());

  num_vars_ = spec.var_reps.size();
  cursors_.clear();
  cursors_.reserve(n);
  for (const TrieIndex* trie : tries_) cursors_.emplace_back(trie);

  var_children_.assign(num_vars_, {});
  child_num_levels_.resize(n);
  for (size_t c = 0; c < n; ++c) {
    FRO_CHECK_EQ(tries_[c]->num_levels(), spec.child_level_vars[c].size());
    child_num_levels_[c] = spec.child_level_vars[c].size();
    for (int v : spec.child_level_vars[c]) {
      var_children_[static_cast<size_t>(v)].push_back(c);
    }
  }
  for (size_t v = 0; v < num_vars_; ++v) {
    FRO_CHECK(!var_children_[v].empty())
        << "multiway variable covered by no operand";
  }

  offset_.resize(n);
  arity_.resize(n);
  size_t off = 0;
  for (size_t c = 0; c < n; ++c) {
    offset_[c] = off;
    arity_[c] = tries_[c]->arity();
    off += arity_[c];
  }
  total_arity_ = off;
  FRO_CHECK_EQ(total_arity_, out_scheme.size());

  has_residual_ = spec.residual != nullptr;
  if (has_residual_) residual_.Bind(spec.residual, out_scheme);

  range_lo_.assign(n, 0);
  range_hi_.assign(n, 0);
  idx_.assign(n, 0);
  started_ = false;
  done_ = false;
  emitting_ = false;
  odo_overflow_ = false;
  evals_ = 0;
}

uint64_t LeapfrogCore::probes() const {
  uint64_t total = 0;
  for (const TrieCursor& cursor : cursors_) total += cursor.seeks();
  return total;
}

bool LeapfrogCore::Next(Tuple* out) {
  while (!done_) {
    if (emitting_) {
      while (!odo_overflow_) {
        Materialize(out);
        AdvanceOdometer();
        if (has_residual_) {
          ++evals_;
          if (residual_.Eval(*out) != TriBool::kTrue) continue;
        }
        return true;
      }
      emitting_ = false;
      continue;
    }
    if (!FindNextAssignment()) {
      done_ = true;
      break;
    }
    SetupEmission();
  }
  return false;
}

// Moves the cursors to the next full variable assignment (the first on
// the initial call) with an iterative descend/advance walk. Invariants:
// OpenVar leaves its cursors closed on failure; AdvanceVar leaves them
// open (exhausted), so the backtrack closes them.
bool LeapfrogCore::FindNextAssignment() {
  if (num_vars_ == 0) {
    if (started_) return false;
    started_ = true;
    for (const TrieIndex* trie : tries_) {
      if (trie->num_rows() == 0) return false;
    }
    return true;
  }

  int v;
  bool descending;
  if (!started_) {
    started_ = true;
    v = 0;
    descending = true;
  } else {
    v = static_cast<int>(num_vars_) - 1;
    descending = false;
  }
  while (true) {
    const bool ok = descending ? OpenVar(static_cast<size_t>(v))
                               : AdvanceVar(static_cast<size_t>(v));
    if (ok) {
      if (v == static_cast<int>(num_vars_) - 1) return true;
      ++v;
      descending = true;
    } else {
      if (!descending) {
        for (size_t c : var_children_[static_cast<size_t>(v)]) {
          cursors_[c].Up();
        }
      }
      --v;
      if (v < 0) return false;
      descending = false;
    }
  }
}

bool LeapfrogCore::OpenVar(size_t v) {
  const std::vector<size_t>& members = var_children_[v];
  for (size_t i = 0; i < members.size(); ++i) {
    if (!cursors_[members[i]].Open()) {
      for (size_t j = 0; j < i; ++j) cursors_[members[j]].Up();
      return false;
    }
  }
  if (Align(v)) return true;
  for (size_t c : members) cursors_[c].Up();
  return false;
}

bool LeapfrogCore::AdvanceVar(size_t v) {
  TrieCursor& lead = cursors_[var_children_[v][0]];
  if (lead.AtEnd()) return false;
  lead.Next();
  if (lead.AtEnd()) return false;
  return Align(v);
}

// The leapfrog step: repeatedly seek every lagging cursor to the
// current maximum key until all participants agree (intersection found)
// or one runs off the end.
bool LeapfrogCore::Align(size_t v) {
  const std::vector<size_t>& members = var_children_[v];
  if (members.size() == 1) return !cursors_[members[0]].AtEnd();
  while (true) {
    const Value* max = nullptr;
    bool all_equal = true;
    for (size_t c : members) {
      TrieCursor& cursor = cursors_[c];
      if (cursor.AtEnd()) return false;
      const Value& key = cursor.Key();
      if (max == nullptr) {
        max = &key;
      } else if (key < *max) {
        all_equal = false;
      } else if (*max < key) {
        max = &key;
        all_equal = false;
      }
    }
    if (all_equal) return true;
    const Value target = *max;
    for (size_t c : members) {
      TrieCursor& cursor = cursors_[c];
      if (cursor.Key() < target) {
        cursor.SeekGeq(target);
        if (cursor.AtEnd()) return false;
      }
    }
  }
}

void LeapfrogCore::SetupEmission() {
  bool any_empty = false;
  for (size_t c = 0; c < cursors_.size(); ++c) {
    if (child_num_levels_[c] == 0) {
      range_lo_[c] = 0;
      range_hi_[c] = tries_[c]->num_rows();
    } else {
      const auto range = cursors_[c].CurrentRange();
      range_lo_[c] = range.first;
      range_hi_[c] = range.second;
    }
    idx_[c] = range_lo_[c];
    if (range_lo_[c] >= range_hi_[c]) any_empty = true;
  }
  emitting_ = true;
  odo_overflow_ = any_empty;
}

void LeapfrogCore::Materialize(Tuple* out) {
  out->ResizeForWrite(total_arity_);
  for (size_t c = 0; c < tries_.size(); ++c) {
    const Tuple& row = tries_[c]->row(idx_[c]);
    for (size_t j = 0; j < arity_[c]; ++j) {
      *out->mutable_value(offset_[c] + j) = row.value(j);
    }
  }
}

void LeapfrogCore::AdvanceOdometer() {
  for (size_t c = idx_.size(); c-- > 0;) {
    if (++idx_[c] < range_hi_[c]) return;
    idx_[c] = range_lo_[c];
  }
  odo_overflow_ = true;
}

BatchLeapfrogIterator::BatchLeapfrogIterator(
    MultiwaySpec spec, std::vector<BatchIteratorPtr> children,
    size_t batch_capacity)
    : spec_(std::move(spec)),
      children_(std::move(children)),
      batch_capacity_(batch_capacity) {
  FRO_CHECK_GE(children_.size(), 2u);
  FRO_CHECK_EQ(children_.size(), spec_.child_levels.size());
  out_scheme_ = children_[0]->scheme();
  for (size_t c = 1; c < children_.size(); ++c) {
    out_scheme_ = out_scheme_.Concat(children_[c]->scheme());
  }
}

std::vector<BatchIterator*> BatchLeapfrogIterator::children() const {
  std::vector<BatchIterator*> out;
  out.reserve(children_.size());
  for (const BatchIteratorPtr& child : children_) out.push_back(child.get());
  return out;
}

void BatchLeapfrogIterator::OpenImpl() {
  build_reads_ = 0;
  tries_.clear();
  operands_.assign(children_.size(), DrainedRows());
  std::vector<const TrieIndex*> raw;
  raw.reserve(children_.size());
  for (size_t c = 0; c < children_.size(); ++c) {
    DrainedRows& operand = operands_[c];
    operand = DrainBuildInput(children_[c].get(), batch_capacity_);
    build_reads_ += operand.rows().NumRows();
    const std::vector<size_t> levels =
        children_[c]->scheme().PositionsOf(spec_.child_levels[c]);
    if (operand.snapshot != nullptr) {
      // A whole base relation: its trie on these levels is built once
      // per relation version and shared by every renaming of it.
      const RelationSnapshot& snapshot = *operand.snapshot;
      tries_.push_back(snapshot.Derived<TrieIndex>("trie", levels, [&] {
        return std::make_shared<const TrieIndex>(snapshot.relation(), levels);
      }));
    } else {
      tries_.push_back(
          std::make_shared<const TrieIndex>(operand.owned, levels));
    }
    raw.push_back(tries_.back().get());
  }
  core_.Start(spec_, std::move(raw), out_scheme_);
  SyncStats();
}

bool BatchLeapfrogIterator::NextBatchImpl(TupleBatch* out) {
  while (!out->full()) {
    Tuple* slot = out->PeekSlot();
    if (!core_.Next(slot)) break;
    out->CommitSlot();
  }
  SyncStats();
  return out->size() > 0;
}

void BatchLeapfrogIterator::CloseImpl() {
  tries_.clear();
  operands_.clear();
}

void BatchLeapfrogIterator::SyncStats() {
  ExecStats& stats = mutable_stats();
  stats.left_reads = build_reads_;
  stats.probes = core_.probes();
  stats.predicate_evals = core_.residual_evals();
}

BatchIteratorPtr MakeBatchLeapfrogIterator(
    const ExprPtr& expr, std::vector<BatchIteratorPtr> children,
    size_t batch_capacity) {
  auto iterator = std::make_unique<BatchLeapfrogIterator>(
      AnalyzeMultiwayJoin(expr), std::move(children), batch_capacity);
  iterator->set_source_expr(expr);
  return iterator;
}

}  // namespace fro
