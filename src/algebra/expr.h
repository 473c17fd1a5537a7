// Operator trees ("queries" / "implementing trees" in the paper).
//
// An Expr is an immutable algebraic expression over ground relations:
// leaves name relations, internal nodes are join-like operators (join,
// one-sided outerjoin, antijoin, semijoin, generalized outerjoin) or
// auxiliary operators (union-with-padding, restrict, project).
//
// The paper's *symmetric forms* (Section 2.1) are first-class: a
// join-like node records which operand is the preserved/kept one, so the
// reversal basic transform (Fig. 4) literally swaps children and flips the
// flag.

#ifndef FRO_ALGEBRA_EXPR_H_
#define FRO_ALGEBRA_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relational/database.h"
#include "relational/predicate.h"
#include "relational/schema.h"

namespace fro {

enum class OpKind : uint8_t {
  kLeaf,
  kJoin,       // regular join, paper's "-"
  kOuterJoin,  // one-sided outerjoin, paper's "->" / "<-"
  kAntijoin,   // paper's right-pointing / left-pointing triangle
  kSemijoin,   // future-work operator (Section 6.3)
  kGoj,        // generalized outerjoin (Section 6.2, eq. 14)
  kUnion,        // bag union with the padding convention (Section 2.1)
  kRestrict,
  kProject,
  kMultiwayJoin,  // n-ary worst-case-optimal join over a cyclic core
};

const char* OpKindName(OpKind kind);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression node. Construct through the static factories.
class Expr {
 public:
  /// A ground-relation leaf. The database supplies the leaf's scheme.
  static ExprPtr Leaf(RelId rel, const Database& db);

  /// Regular join `left - right` on `pred`.
  static ExprPtr Join(ExprPtr left, ExprPtr right, PredicatePtr pred);

  /// One-sided outerjoin. `preserves_left` selects the paper's `->`
  /// (left preserved, right null-supplied); false selects `<-`.
  static ExprPtr OuterJoin(ExprPtr left, ExprPtr right, PredicatePtr pred,
                           bool preserves_left = true);

  /// Antijoin. `keeps_left` selects which operand's unmatched tuples are
  /// returned (the output scheme is that operand's).
  static ExprPtr Antijoin(ExprPtr left, ExprPtr right, PredicatePtr pred,
                          bool keeps_left = true);

  /// Semijoin (kept operand selected like Antijoin).
  static ExprPtr Semijoin(ExprPtr left, ExprPtr right, PredicatePtr pred,
                          bool keeps_left = true);

  /// Generalized outerjoin GOJ[subset](left, right); `subset` must be a
  /// subset of the left operand's attributes. Always preserves (the
  /// S-projection of) the left operand.
  static ExprPtr Goj(ExprPtr left, ExprPtr right, PredicatePtr pred,
                     AttrSet subset);

  /// Bag union; operands are padded to the union scheme.
  static ExprPtr Union(ExprPtr left, ExprPtr right);

  static ExprPtr Restrict(ExprPtr child, PredicatePtr pred);

  static ExprPtr Project(ExprPtr child, std::vector<AttrId> cols, bool dedup);

  /// N-ary inner join over `children` (all pairwise relation-disjoint),
  /// executed worst-case-optimally by leapfrog triejoin over `var_order`
  /// (one representative attribute per join variable, in search order).
  /// `pred` is the full conjunction for the core — equality conjuncts
  /// define the variables, everything else runs as a residual filter.
  /// Output scheme is the concatenation of the children's schemes, i.e. it
  /// is result-equivalent to the left-deep chain of regular joins over
  /// `children` in order. Appears only in optimizer output plans; the
  /// query-side rewrites (closure, GOJ, simplification) never see it.
  static ExprPtr MultiwayJoin(std::vector<ExprPtr> children,
                              PredicatePtr pred,
                              std::vector<AttrId> var_order);

  OpKind kind() const { return kind_; }
  bool is_leaf() const { return kind_ == OpKind::kLeaf; }
  /// True for the binary operators that participate in implementing trees
  /// and basic transforms (join, outerjoin, antijoin, semijoin).
  bool is_join_like() const {
    return kind_ == OpKind::kJoin || kind_ == OpKind::kOuterJoin ||
           kind_ == OpKind::kAntijoin || kind_ == OpKind::kSemijoin;
  }
  bool is_binary() const { return right_ != nullptr; }
  bool is_multiway() const { return kind_ == OpKind::kMultiwayJoin; }

  RelId rel() const;  // leaf only
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  /// kMultiwayJoin only: the n-ary operands, in output-scheme order.
  const std::vector<ExprPtr>& mj_children() const { return children_; }
  /// kMultiwayJoin only: global leapfrog variable order (representative
  /// attribute per join variable).
  const std::vector<AttrId>& mj_var_order() const { return var_order_; }
  const PredicatePtr& pred() const { return pred_; }
  bool preserves_left() const { return preserves_left_; }
  const AttrSet& goj_subset() const { return goj_subset_; }
  const std::vector<AttrId>& project_cols() const { return project_cols_; }
  bool project_dedup() const { return project_dedup_; }

  /// Cached 64-bit structural hash, computed bottom-up at construction in
  /// O(1) per node. Structurally equal trees (same shapes, operators,
  /// orientation flags, and predicate structure modulo AND/OR conjunct
  /// order) have equal hashes; this is the key the closure engine, BT-path
  /// search, and interner use instead of `Fingerprint()`.
  uint64_t hash() const { return hash_; }

  /// Attributes visible in this expression's result.
  const AttrSet& attrs() const { return attrs_; }
  /// Bitmask over RelIds of the ground relations mentioned below this node
  /// (requires RelId < 64).
  uint64_t rel_mask() const { return rel_mask_; }
  /// Number of ground-relation leaves.
  int num_leaves() const { return num_leaves_; }

  /// Infix rendering, e.g. `(R1 - R2) -> R3`. With `with_preds`, each
  /// operator shows its predicate: `(R1 -[R1.k=R2.k] R2)`.
  std::string ToString(const Catalog* catalog = nullptr,
                       bool with_preds = false) const;

  /// Deterministic structural serialization: equal strings iff equal trees
  /// (same shapes, operators, orientation flags, and predicate structure).
  /// Kept as a debug / golden-test renderer; hot paths key on `hash()`.
  std::string Fingerprint() const;

 private:
  Expr() = default;
  static std::shared_ptr<Expr> Make() {
    return std::shared_ptr<Expr>(new Expr());
  }
  static ExprPtr FinishBinary(std::shared_ptr<Expr> node);
  static ExprPtr FinishFiltering(std::shared_ptr<Expr> node);
  /// Computes the node's hash and hands it to the interning arena;
  /// returns the canonical shared node. Every factory funnels through it.
  static ExprPtr Seal(std::shared_ptr<Expr> node);

  OpKind kind_ = OpKind::kLeaf;
  RelId rel_ = 0;
  ExprPtr left_;
  ExprPtr right_;
  PredicatePtr pred_;
  bool preserves_left_ = true;
  AttrSet goj_subset_;
  std::vector<AttrId> project_cols_;
  bool project_dedup_ = false;
  std::vector<ExprPtr> children_;    // kMultiwayJoin only
  std::vector<AttrId> var_order_;    // kMultiwayJoin only

  AttrSet attrs_;
  uint64_t rel_mask_ = 0;
  int num_leaves_ = 0;
  uint64_t hash_ = 0;
};

/// Counters of the hash-consing arena the Expr factories intern through.
/// `hits` counts constructions that returned an existing structurally
/// equal node; `live` is the number of interned nodes still referenced
/// somewhere; `slots` counts every arena entry, live or expired (expired
/// entries are swept lazily, so slots >= live).
struct ExprInternStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  size_t live = 0;
  size_t slots = 0;
};
ExprInternStats GetExprInternStats();

/// The operator symbol as it appears between this node's operands in the
/// paper's infix notation: "-", "->", "<-", "|>", "<|", ">-", "-<",
/// "GOJ". (">-"/"-<" denote semijoin keeping left/right.)
std::string OpSymbol(const Expr& node);

/// Structural equality via the cached hashes. With the interning arena,
/// structurally equal live trees are normally the same pointer already;
/// the hash comparison covers nodes whose twins were constructed after
/// the originals expired.
bool ExprEquals(const ExprPtr& a, const ExprPtr& b);

}  // namespace fro

#endif  // FRO_ALGEBRA_EXPR_H_
