#include "algebra/expr.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <unordered_map>

#include "common/check.h"
#include "common/hash.h"

namespace fro {

namespace {

// --- Structural hashing ---------------------------------------------------

// Bottom-up: children are already sealed, so their hashes are O(1) reads.
// Leaf hashes include the scheme because the same RelId can carry
// different attributes under different databases, and the arena is
// process-global.
uint64_t ComputeNodeHash(const Expr& node) {
  uint64_t h = HashMix(0x51, static_cast<uint64_t>(node.kind()));
  switch (node.kind()) {
    case OpKind::kLeaf:
      h = HashMix(h, node.rel());
      for (AttrId attr : node.attrs()) h = HashMix(h, attr);
      return h;
    case OpKind::kRestrict:
      h = HashMix(h, node.pred()->Hash());
      return HashMix(h, node.left()->hash());
    case OpKind::kProject:
      h = HashMix(h, node.project_dedup() ? 1 : 2);
      for (AttrId attr : node.project_cols()) h = HashMix(h, attr);
      return HashMix(h, node.left()->hash());
    case OpKind::kMultiwayJoin:
      h = HashMix(h, node.pred() != nullptr ? node.pred()->Hash() : 0);
      for (const ExprPtr& child : node.mj_children()) {
        h = HashMix(h, child->hash());
      }
      for (AttrId attr : node.mj_var_order()) h = HashMix(h, attr);
      return h;
    default:
      h = HashMix(h, node.preserves_left() ? 1 : 2);
      h = HashMix(h, node.pred() != nullptr ? node.pred()->Hash() : 0);
      if (node.kind() == OpKind::kGoj) {
        for (AttrId attr : node.goj_subset()) h = HashMix(h, attr);
      }
      h = HashMix(h, node.left()->hash());
      return HashMix(h, node.right()->hash());
  }
}

// --- Hash-consing arena ---------------------------------------------------

// Structural equality between a candidate and an interned node with the
// same hash. Children of both nodes are interned, so structurally equal
// subtrees are pointer-equal and the check stays shallow; predicates are
// not interned, so they compare structurally (cheap: hash first).
bool SameNode(const Expr& a, const Expr& b) {
  if (a.kind() != b.kind()) return false;
  auto preds_equal = [&]() {
    if (a.pred() == b.pred()) return true;  // covers both-null and shared
    if (a.pred() == nullptr || b.pred() == nullptr) return false;
    return PredEquals(*a.pred(), *b.pred());
  };
  switch (a.kind()) {
    case OpKind::kLeaf:
      return a.rel() == b.rel() && a.attrs() == b.attrs();
    case OpKind::kRestrict:
      return a.left() == b.left() && preds_equal();
    case OpKind::kProject:
      return a.left() == b.left() &&
             a.project_dedup() == b.project_dedup() &&
             a.project_cols() == b.project_cols();
    case OpKind::kMultiwayJoin:
      return a.mj_children() == b.mj_children() &&
             a.mj_var_order() == b.mj_var_order() && preds_equal();
    default:
      return a.left() == b.left() && a.right() == b.right() &&
             a.preserves_left() == b.preserves_left() &&
             a.goj_subset() == b.goj_subset() && preds_equal();
  }
}

// The arena is sharded so parallel enumeration (closure workers) can
// intern concurrently without a global bottleneck. Entries are weak: the
// arena never keeps a tree alive. Expired entries are swept two ways:
// Seal drops every one it meets in the hash's range (so rebuilding a
// shape whose nodes died never piles up twins under one hash), and a
// whole-shard sweep runs when a shard grows past its high-water mark
// (for hashes that are never probed again).
struct InternShard {
  std::mutex mu;
  std::unordered_multimap<uint64_t, std::weak_ptr<const Expr>> nodes;
  size_t prune_at = 256;
};

constexpr size_t kInternShards = 64;

std::array<InternShard, kInternShards>& InternShards() {
  // Leaked intentionally: interning may run during static destruction of
  // test fixtures holding ExprPtrs.
  static auto* shards = new std::array<InternShard, kInternShards>();
  return *shards;
}

std::atomic<uint64_t> g_intern_hits{0};
std::atomic<uint64_t> g_intern_misses{0};

}  // namespace

ExprInternStats GetExprInternStats() {
  ExprInternStats stats;
  stats.hits = g_intern_hits.load(std::memory_order_relaxed);
  stats.misses = g_intern_misses.load(std::memory_order_relaxed);
  for (InternShard& shard : InternShards()) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.slots += shard.nodes.size();
    for (const auto& [hash, weak] : shard.nodes) {
      if (!weak.expired()) ++stats.live;
    }
  }
  return stats;
}

ExprPtr Expr::Seal(std::shared_ptr<Expr> node) {
  node->hash_ = ComputeNodeHash(*node);
  InternShard& shard = InternShards()[node->hash_ % kInternShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, hi] = shard.nodes.equal_range(node->hash_);
  // The first expired entry in the range is reused for the new node; any
  // later ones are erased. Erasing leaves `hi` valid.
  auto reuse = shard.nodes.end();
  while (it != hi) {
    ExprPtr existing = it->second.lock();
    if (existing == nullptr) {
      if (reuse == shard.nodes.end()) {
        reuse = it++;
      } else {
        it = shard.nodes.erase(it);
      }
      continue;
    }
    if (SameNode(*existing, *node)) {
      g_intern_hits.fetch_add(1, std::memory_order_relaxed);
      return existing;
    }
    ++it;
  }
  g_intern_misses.fetch_add(1, std::memory_order_relaxed);
  if (reuse != shard.nodes.end()) {
    reuse->second = node;
    return node;
  }
  if (shard.nodes.size() >= shard.prune_at) {
    for (auto it = shard.nodes.begin(); it != shard.nodes.end();) {
      it = it->second.expired() ? shard.nodes.erase(it) : std::next(it);
    }
    shard.prune_at = std::max<size_t>(256, shard.nodes.size() * 2);
  }
  shard.nodes.emplace(node->hash_, node);
  return node;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLeaf:
      return "Leaf";
    case OpKind::kJoin:
      return "Join";
    case OpKind::kOuterJoin:
      return "OuterJoin";
    case OpKind::kAntijoin:
      return "Antijoin";
    case OpKind::kSemijoin:
      return "Semijoin";
    case OpKind::kGoj:
      return "Goj";
    case OpKind::kUnion:
      return "Union";
    case OpKind::kRestrict:
      return "Restrict";
    case OpKind::kProject:
      return "Project";
    case OpKind::kMultiwayJoin:
      return "MultiwayJoin";
  }
  return "?";
}

ExprPtr Expr::Leaf(RelId rel, const Database& db) {
  FRO_CHECK_LT(rel, 64u) << "RelIds must fit the 64-bit relation mask";
  auto node = Make();
  node->kind_ = OpKind::kLeaf;
  node->rel_ = rel;
  node->attrs_ = db.scheme(rel).ToAttrSet();
  node->rel_mask_ = 1ULL << rel;
  node->num_leaves_ = 1;
  return Seal(std::move(node));
}

ExprPtr Expr::FinishBinary(std::shared_ptr<Expr> node) {
  FRO_CHECK(node->left_ != nullptr && node->right_ != nullptr);
  FRO_CHECK((node->left_->rel_mask_ & node->right_->rel_mask_) == 0)
      << "operands share ground relations";
  node->rel_mask_ = node->left_->rel_mask_ | node->right_->rel_mask_;
  node->num_leaves_ = node->left_->num_leaves_ + node->right_->num_leaves_;
  return Seal(std::move(node));
}

ExprPtr Expr::FinishFiltering(std::shared_ptr<Expr> node) {
  FRO_CHECK(node->left_ != nullptr && node->right_ != nullptr);
  // Semijoin/antijoin emit tuples of the kept side only, so rel_mask_
  // (output provenance) covers just that side. This lets a Yannakakis
  // program join a relation that already served as a probe side without
  // tripping the plain-join disjointness check.
  const ExprPtr& kept = node->preserves_left_ ? node->left_ : node->right_;
  node->rel_mask_ = kept->rel_mask_;
  node->num_leaves_ = node->left_->num_leaves_ + node->right_->num_leaves_;
  return Seal(std::move(node));
}

ExprPtr Expr::Join(ExprPtr left, ExprPtr right, PredicatePtr pred) {
  auto node = Make();
  node->kind_ = OpKind::kJoin;
  node->attrs_ = left->attrs().Union(right->attrs());
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  node->pred_ = std::move(pred);
  return FinishBinary(std::move(node));
}

ExprPtr Expr::OuterJoin(ExprPtr left, ExprPtr right, PredicatePtr pred,
                        bool preserves_left) {
  auto node = Make();
  node->kind_ = OpKind::kOuterJoin;
  node->attrs_ = left->attrs().Union(right->attrs());
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  node->pred_ = std::move(pred);
  node->preserves_left_ = preserves_left;
  return FinishBinary(std::move(node));
}

ExprPtr Expr::Antijoin(ExprPtr left, ExprPtr right, PredicatePtr pred,
                       bool keeps_left) {
  auto node = Make();
  node->kind_ = OpKind::kAntijoin;
  node->attrs_ = keeps_left ? left->attrs() : right->attrs();
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  node->pred_ = std::move(pred);
  node->preserves_left_ = keeps_left;
  return FinishFiltering(std::move(node));
}

ExprPtr Expr::Semijoin(ExprPtr left, ExprPtr right, PredicatePtr pred,
                       bool keeps_left) {
  auto node = Make();
  node->kind_ = OpKind::kSemijoin;
  node->attrs_ = keeps_left ? left->attrs() : right->attrs();
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  node->pred_ = std::move(pred);
  node->preserves_left_ = keeps_left;
  return FinishFiltering(std::move(node));
}

ExprPtr Expr::Goj(ExprPtr left, ExprPtr right, PredicatePtr pred,
                  AttrSet subset) {
  FRO_CHECK(left->attrs().ContainsAll(subset))
      << "GOJ subset must come from the left operand";
  auto node = Make();
  node->kind_ = OpKind::kGoj;
  node->attrs_ = left->attrs().Union(right->attrs());
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  node->pred_ = std::move(pred);
  node->goj_subset_ = std::move(subset);
  return FinishBinary(std::move(node));
}

ExprPtr Expr::Union(ExprPtr left, ExprPtr right) {
  auto node = Make();
  node->kind_ = OpKind::kUnion;
  node->attrs_ = left->attrs().Union(right->attrs());
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  // Union operands may (and in the paper's identities, do) mention the
  // same ground relations, so bypass the disjointness check.
  node->rel_mask_ = node->left_->rel_mask() | node->right_->rel_mask();
  node->num_leaves_ = node->left_->num_leaves() + node->right_->num_leaves();
  return Seal(std::move(node));
}

ExprPtr Expr::Restrict(ExprPtr child, PredicatePtr pred) {
  FRO_CHECK(pred != nullptr);
  auto node = Make();
  node->kind_ = OpKind::kRestrict;
  node->attrs_ = child->attrs();
  node->rel_mask_ = child->rel_mask();
  node->num_leaves_ = child->num_leaves();
  node->left_ = std::move(child);
  node->pred_ = std::move(pred);
  return Seal(std::move(node));
}

ExprPtr Expr::Project(ExprPtr child, std::vector<AttrId> cols, bool dedup) {
  auto node = Make();
  node->kind_ = OpKind::kProject;
  node->attrs_ = AttrSet(cols);
  node->rel_mask_ = child->rel_mask();
  node->num_leaves_ = child->num_leaves();
  node->left_ = std::move(child);
  node->project_cols_ = std::move(cols);
  node->project_dedup_ = dedup;
  return Seal(std::move(node));
}

ExprPtr Expr::MultiwayJoin(std::vector<ExprPtr> children, PredicatePtr pred,
                           std::vector<AttrId> var_order) {
  FRO_CHECK_GE(children.size(), 2u) << "MultiwayJoin needs >= 2 operands";
  auto node = Make();
  node->kind_ = OpKind::kMultiwayJoin;
  for (const ExprPtr& child : children) {
    FRO_CHECK(child != nullptr);
    FRO_CHECK((node->rel_mask_ & child->rel_mask()) == 0)
        << "multiway operands share ground relations";
    node->rel_mask_ |= child->rel_mask();
    node->num_leaves_ += child->num_leaves();
    node->attrs_ = node->attrs_.Union(child->attrs());
  }
  node->children_ = std::move(children);
  node->pred_ = std::move(pred);
  node->var_order_ = std::move(var_order);
  return Seal(std::move(node));
}

RelId Expr::rel() const {
  FRO_CHECK(kind_ == OpKind::kLeaf);
  return rel_;
}

std::string OpSymbol(const Expr& node) {
  switch (node.kind()) {
    case OpKind::kJoin:
      return "-";
    case OpKind::kOuterJoin:
      return node.preserves_left() ? "->" : "<-";
    case OpKind::kAntijoin:
      return node.preserves_left() ? "|>" : "<|";
    case OpKind::kSemijoin:
      return node.preserves_left() ? ">-" : "-<";
    case OpKind::kGoj:
      return "GOJ";
    case OpKind::kUnion:
      return "U";
    default:
      return OpKindName(node.kind());
  }
}

std::string Expr::ToString(const Catalog* catalog, bool with_preds) const {
  switch (kind_) {
    case OpKind::kLeaf:
      return catalog != nullptr ? catalog->RelationName(rel_)
                                : "R" + std::to_string(rel_);
    case OpKind::kRestrict:
      return "sigma[" + pred_->ToString(catalog) + "](" +
             left_->ToString(catalog, with_preds) + ")";
    case OpKind::kProject: {
      std::string cols;
      for (size_t i = 0; i < project_cols_.size(); ++i) {
        if (i > 0) cols += ",";
        cols += catalog != nullptr ? catalog->AttrName(project_cols_[i])
                                   : "#" + std::to_string(project_cols_[i]);
      }
      return std::string(project_dedup_ ? "pi" : "pi_bag") + "[" + cols +
             "](" + left_->ToString(catalog, with_preds) + ")";
    }
    case OpKind::kMultiwayJoin: {
      std::string out = "MJ(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ", ";
        out += children_[i]->ToString(catalog, with_preds);
      }
      out += ")";
      if (with_preds && pred_ != nullptr) {
        out += "[" + pred_->ToString(catalog) + "]";
      }
      return out;
    }
    default: {
      std::string op = OpSymbol(*this);
      if (kind_ == OpKind::kGoj) {
        op += "[";
        for (size_t i = 0; i < goj_subset_.size(); ++i) {
          if (i > 0) op += ",";
          AttrId attr = goj_subset_.ids()[i];
          op += catalog != nullptr ? catalog->AttrName(attr)
                                   : "#" + std::to_string(attr);
        }
        op += "]";
      }
      if (with_preds && pred_ != nullptr) {
        op += "[" + pred_->ToString(catalog) + "]";
      }
      return "(" + left_->ToString(catalog, with_preds) + " " + op + " " +
             right_->ToString(catalog, with_preds) + ")";
    }
  }
}

namespace {

// Deterministic predicate rendering that is insensitive to the order of
// AND/OR children: basic transforms migrate conjuncts between operators
// and rebuild conjunctions in different orders, and two trees differing
// only in conjunct order are the same implementing tree.
std::string CanonicalPredFingerprint(const Predicate& pred) {
  if (pred.kind() == Predicate::Kind::kAnd ||
      pred.kind() == Predicate::Kind::kOr) {
    std::vector<std::string> parts;
    parts.reserve(pred.children().size());
    for (const PredicatePtr& child : pred.children()) {
      parts.push_back(CanonicalPredFingerprint(*child));
    }
    std::sort(parts.begin(), parts.end());
    std::string sep = pred.kind() == Predicate::Kind::kAnd ? "&" : "|";
    std::string out = "(";
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out += sep;
      out += parts[i];
    }
    return out + ")";
  }
  if (pred.kind() == Predicate::Kind::kNot) {
    return "!(" + CanonicalPredFingerprint(*pred.children()[0]) + ")";
  }
  return pred.ToString(nullptr);
}

}  // namespace

std::string Expr::Fingerprint() const {
  switch (kind_) {
    case OpKind::kLeaf:
      return "L" + std::to_string(rel_);
    case OpKind::kRestrict:
      return "S{" + CanonicalPredFingerprint(*pred_) + "}(" +
             left_->Fingerprint() + ")";
    case OpKind::kProject: {
      std::string cols;
      for (AttrId attr : project_cols_) cols += std::to_string(attr) + ",";
      return std::string(project_dedup_ ? "P" : "Pb") + "{" + cols + "}(" +
             left_->Fingerprint() + ")";
    }
    case OpKind::kMultiwayJoin: {
      std::string out = "MJ{";
      out += pred_ != nullptr ? CanonicalPredFingerprint(*pred_) : "";
      out += "}[";
      for (AttrId attr : var_order_) out += std::to_string(attr) + ",";
      out += "](";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ",";
        out += children_[i]->Fingerprint();
      }
      return out + ")";
    }
    default: {
      std::string op = OpSymbol(*this);
      if (kind_ == OpKind::kGoj) {
        op += "{";
        for (AttrId attr : goj_subset_) op += std::to_string(attr) + ",";
        op += "}";
      }
      std::string pred_part =
          pred_ != nullptr ? "{" + CanonicalPredFingerprint(*pred_) + "}"
                           : "{}";
      return "(" + left_->Fingerprint() + op + pred_part +
             right_->Fingerprint() + ")";
    }
  }
}

bool ExprEquals(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  return a->hash() == b->hash();
}

}  // namespace fro
