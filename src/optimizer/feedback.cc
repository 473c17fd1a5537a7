#include "optimizer/feedback.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/hash.h"
#include "exec/stats_view.h"
#include "optimizer/cardinality.h"
#include "relational/database.h"

namespace fro {

double QError(double est, double actual) {
  const double e = std::max(est, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e, a) / std::min(e, a);
}

std::string FeedbackStoreStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "size=%zu capacity=%zu observations=%llu evictions=%llu "
                "merged=%llu max_q_error=%.2f",
                size, capacity,
                static_cast<unsigned long long>(observations),
                static_cast<unsigned long long>(evictions),
                static_cast<unsigned long long>(merged), max_q_error);
  return buf;
}

FeedbackStore::FeedbackStore(FeedbackOptions options)
    : options_(options) {}

double FeedbackStore::DecayedWeight(const Entry& entry) const {
  const double age = static_cast<double>(tick_ - entry.last_tick);
  return entry.weight * std::pow(options_.decay, age);
}

void FeedbackStore::ObserveLocked(uint64_t plan_hash, uint64_t op_hash,
                                  double est_rows, double actual_rows) {
  ++tick_;
  ++observations_;

  const double q = QError(est_rows, actual_rows);
  max_q_error_ = std::max(max_q_error_, q);
  int bucket = 0;
  for (double edge = 2.0;
       bucket < FeedbackStoreStats::kQErrorBuckets - 1 && q >= edge;
       edge *= 2.0) {
    ++bucket;
  }
  ++q_error_hist_[bucket];

  auto it = entries_.find(op_hash);
  if (it == entries_.end()) {
    Entry entry;
    entry.rows = actual_rows;
    entry.weight = 1.0;
    entry.last_tick = tick_;
    entry.plan_hash = plan_hash;
    entries_.emplace(op_hash, entry);
    EvictLocked();
    return;
  }
  Entry& entry = it->second;
  entry.weight = DecayedWeight(entry) + 1.0;
  entry.rows = options_.ewma_alpha * actual_rows +
               (1.0 - options_.ewma_alpha) * entry.rows;
  entry.last_tick = tick_;
  entry.plan_hash = plan_hash;
}

void FeedbackStore::EvictLocked() {
  while (entries_.size() > options_.capacity) {
    auto victim = entries_.end();
    double victim_weight = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      const double w = DecayedWeight(it->second);
      if (w < options_.min_weight) {
        // Fully faded: drop outright, no contest needed.
        it = entries_.erase(it);
        ++evictions_;
        continue;
      }
      if (victim == entries_.end() || w < victim_weight) {
        victim = it;
        victim_weight = w;
      }
      ++it;
    }
    if (entries_.size() <= options_.capacity) break;
    if (victim == entries_.end()) break;  // unreachable: size > 0
    entries_.erase(victim);
    ++evictions_;
  }
}

void FeedbackStore::Observe(uint64_t plan_hash, uint64_t op_hash,
                            double est_rows, double actual_rows) {
  std::lock_guard<std::mutex> lock(mu_);
  ObserveLocked(plan_hash, op_hash, est_rows, actual_rows);
}

void CardinalityFeedback::Load() const {
  if (source_ == nullptr) return;
  corrected_ = source_->CopyCorrections();
  source_ = nullptr;
}

CardinalityFeedback FeedbackStore::Snapshot() const {
  return CardinalityFeedback(this);
}

std::unordered_map<uint64_t, double> FeedbackStore::CopyCorrections() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, double> corrected;
  corrected.reserve(entries_.size());
  for (const auto& [op_hash, entry] : entries_) {
    corrected.emplace(op_hash, entry.rows);
  }
  return corrected;
}

void FeedbackStore::Merge(const CardinalityFeedback& other) {
  // Read `other` before locking: a pending snapshot of this very store
  // takes its copy under mu_.
  const std::unordered_map<uint64_t, double>& corrections = other.entries();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [op_hash, rows] : corrections) {
    // A merged correction arrives without the estimate it was measured
    // against; fold it as an exact observation (q-error 1).
    ObserveLocked(/*plan_hash=*/0, op_hash, rows, rows);
    ++merged_;
  }
}

std::optional<double> FeedbackStore::CorrectedRows(uint64_t op_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(op_hash);
  if (it == entries_.end()) return std::nullopt;
  return it->second.rows;
}

std::optional<double> FeedbackStore::WeightOf(uint64_t op_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(op_hash);
  if (it == entries_.end()) return std::nullopt;
  return DecayedWeight(it->second);
}

FeedbackStoreStats FeedbackStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FeedbackStoreStats out;
  out.size = entries_.size();
  out.capacity = options_.capacity;
  out.observations = observations_;
  out.evictions = evictions_;
  out.merged = merged_;
  out.max_q_error = max_q_error_;
  for (int b = 0; b < FeedbackStoreStats::kQErrorBuckets; ++b) {
    out.q_error_hist[b] = q_error_hist_[b];
  }
  return out;
}

std::string FeedbackStore::Describe(size_t top_n) const {
  const FeedbackStoreStats s = stats();
  std::string out = "feedback " + s.ToString() + "\n";
  out += "q-error histogram:";
  bool any = false;
  for (int b = 0; b < FeedbackStoreStats::kQErrorBuckets; ++b) {
    if (s.q_error_hist[b] == 0) continue;
    any = true;
    char buf[64];
    if (b == FeedbackStoreStats::kQErrorBuckets - 1) {
      std::snprintf(buf, sizeof(buf), "  [>=%d]=%llu", 1 << b,
                    static_cast<unsigned long long>(s.q_error_hist[b]));
    } else {
      std::snprintf(buf, sizeof(buf), "  [%d,%d)=%llu", b == 0 ? 1 : 1 << b,
                    1 << (b + 1),
                    static_cast<unsigned long long>(s.q_error_hist[b]));
    }
    out += buf;
  }
  if (!any) out += " (empty)";
  out += "\n";

  struct Row {
    uint64_t op_hash;
    double rows;
    double weight;
  };
  std::vector<Row> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(entries_.size());
    for (const auto& [op_hash, entry] : entries_) {
      rows.push_back({op_hash, entry.rows, DecayedWeight(entry)});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.weight > b.weight; });
  if (rows.size() > top_n) rows.resize(top_n);
  for (const Row& r : rows) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "  op=%016llx rows=%.6g weight=%.3f\n",
                  static_cast<unsigned long long>(r.op_hash), r.rows,
                  r.weight);
    out += buf;
  }
  return out;
}

void FeedbackStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

const double* OpEstimates::Find(uint64_t op_hash) const {
  for (const auto& [hash, rows] : entries) {
    if (hash == op_hash) return &rows;
  }
  return nullptr;
}

namespace {

void CollectOpEstimatesNode(const ExprPtr& node,
                            const CardinalityEstimator& estimator,
                            OpEstimates* out) {
  if (node == nullptr) return;
  const uint64_t h = node->hash();
  if (out->Find(h) == nullptr) {
    out->entries.emplace_back(h, estimator.Estimate(node));
  }
  CollectOpEstimatesNode(node->left(), estimator, out);
  CollectOpEstimatesNode(node->right(), estimator, out);
  for (const ExprPtr& child : node->mj_children()) {
    CollectOpEstimatesNode(child, estimator, out);
  }
}

}  // namespace

OpEstimates CollectOpEstimates(const ExprPtr& plan,
                               const CardinalityEstimator& estimator) {
  OpEstimates out;
  CollectOpEstimatesNode(plan, estimator, &out);
  return out;
}

double ObservePlanExecution(FeedbackStore* store, uint64_t plan_hash,
                            const PlanOpStats& snapshot,
                            const OpEstimates& estimates) {
  // Dedup by source-expr hash, keeping the larger count: a wrapper node
  // reporting the same expression (exchange over its merged spine) must
  // not double the entry's observation weight, and the larger count is
  // the full-plan one if any partial ever leaks into a snapshot.
  std::unordered_map<uint64_t, double> actuals;
  ForEachOp(snapshot, [&](const PlanOpStats& op, int) {
    if (op.passthrough || op.source_expr == nullptr) return;
    const uint64_t h = op.source_expr->hash();
    const double actual = static_cast<double>(op.stats.emitted);
    auto [it, inserted] = actuals.emplace(h, actual);
    if (!inserted) it->second = std::max(it->second, actual);
  });

  double worst = 1.0;
  for (const auto& [op_hash, actual] : actuals) {
    const double* est = estimates.Find(op_hash);
    // Un-estimated operators (hand-assembled pipelines) observe as exact.
    const double est_rows = est != nullptr ? *est : actual;
    worst = std::max(worst, QError(est_rows, actual));
    if (store != nullptr) {
      store->Observe(plan_hash, op_hash, est_rows, actual);
    }
  }
  return worst;
}

uint64_t DatabaseGenerationStamp(const Database& db) {
  uint64_t stamp = HashMix(0, db.num_relations());
  for (RelId rel = 0; rel < db.num_relations(); ++rel) {
    stamp = HashMix(stamp, db.generation(rel));
  }
  return stamp;
}

}  // namespace fro
