// Batch-at-a-time execution containers (the X100/vectorized lineage).
//
// A ColumnBatch is a fixed-capacity chunk of rows plus an optional
// selection vector, with THREE content representations behind one API:
//
//  * row slots   — `capacity` owned Tuple slots, written via the
//                  peek/commit protocol (the original TupleBatch form);
//  * view        — `n` externally-owned contiguous rows presented
//                  zero-copy, optionally carrying a RelationSnapshot
//                  source so columnar reads are the *relation's* cached
//                  column arrays at an offset (zero transpose per batch);
//  * columns     — owned per-attribute ColumnVectors (typed contiguous
//                  values + null masks), the form columnar operators
//                  emit into.
//
// Readers pick whichever side they need: `row()`/`selected()` always
// work (a columnar batch lazily materializes its row mirror once), and
// `Column()` always works (a row batch lazily transposes once). Hot
// pipelines never hit the lazy paths: scans attach relation columns to
// their views, filters evaluate kernels over those and narrow the
// selection in place, and pure equi hash joins emit columns directly —
// rows are materialized only at pipeline boundaries (exchange staging,
// blocking operators, result drains).
//
// Selection-vector semantics are unchanged: when active, only
// rows at sel[i] are alive; `size()` counts live rows and `selected(i)`
// indexes them densely. Kernel masks are indexed by *raw* position
// (NarrowToMask), so dense kernels can evaluate a whole batch without
// gathering.

#ifndef FRO_EXEC_BATCH_H_
#define FRO_EXEC_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "relational/column.h"
#include "relational/snapshot.h"
#include "relational/tuple.h"

namespace fro {

/// A fixed-capacity chunk of rows with an optional selection vector and
/// interchangeable row/columnar content (see file comment).
class ColumnBatch {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit ColumnBatch(size_t capacity = kDefaultCapacity)
      : capacity_(capacity), rows_(capacity) {
    FRO_CHECK_GT(capacity, 0u) << "ColumnBatch capacity must be positive";
  }

  size_t capacity() const { return capacity_; }

  /// Raw rows appended, ignoring any selection.
  size_t NumRows() const { return count_; }

  /// Live rows (selection applied when active).
  size_t size() const { return sel_active_ ? sel_.size() : count_; }
  bool empty() const { return size() == 0; }
  bool full() const { return count_ >= capacity_; }

  /// Forgets all content and the selection; slot and column storage is
  /// retained so refilling the batch reuses existing capacity. Resets to
  /// row-slot mode.
  void Clear() {
    count_ = 0;
    mode_ = Mode::kRows;
    view_ = nullptr;
    src_cols_ = nullptr;
    src_offset_ = 0;
    cols_valid_ = false;
    rows_valid_ = false;
    sel_active_ = false;
    sel_.clear();
  }

  /// Presents `n` externally-owned contiguous rows as the batch's
  /// content without copying anything — the zero-copy scan path. The
  /// rows must outlive every read of the batch. When the rows are a
  /// window of a columnized relation, pass its RelationSnapshot as
  /// `source` with `source_offset` = the window's first row index:
  /// Column() then returns the relation's cached column arrays directly
  /// instead of transposing the window. Appending into a view batch is
  /// not allowed (Clear() first).
  void SetView(const Tuple* rows, size_t n,
               const RelationSnapshot* source = nullptr,
               size_t source_offset = 0) {
    FRO_DCHECK(n <= capacity_);
    mode_ = Mode::kView;
    view_ = rows;
    src_cols_ = source;
    src_offset_ = source_offset;
    count_ = n;
    cols_valid_ = false;
    rows_valid_ = false;
    sel_active_ = false;
    sel_.clear();
  }

  bool is_view() const { return mode_ == Mode::kView; }

  /// The RelationSnapshot backing a view batch, or nullptr for other
  /// modes / plain views; *offset receives the view's first row index in
  /// the source relation. Consumers draining a whole relation through
  /// contiguous views (DrainBuildInput) use this to reference the
  /// relation, and the structures its snapshot keeps, instead of copying
  /// its tuples.
  const RelationSnapshot* view_source(size_t* offset) const {
    if (mode_ != Mode::kView) return nullptr;
    *offset = src_offset_;
    return src_cols_;
  }

  /// The slot the next append would fill, without committing it. Producers
  /// use the peek slot as a scratch tuple: build the candidate in place,
  /// and only CommitSlot() if it survives (e.g. passes the join
  /// predicate). The batch must not be full and must be in row-slot mode.
  Tuple* PeekSlot() {
    FRO_DCHECK(!full());
    FRO_DCHECK(mode_ == Mode::kRows);
    return &rows_[count_];
  }
  void CommitSlot() {
    ++count_;
    cols_valid_ = false;
  }

  /// Appends and returns the slot to assign into.
  Tuple* AppendSlot() {
    Tuple* slot = PeekSlot();
    ++count_;
    cols_valid_ = false;
    return slot;
  }
  void Append(const Tuple& tuple) { AppendSlot()->AssignFrom(tuple); }

  /// Raw-index access (positions 0..NumRows(), ignoring selection). A
  /// columnar batch materializes its row mirror on first access.
  const Tuple& row(size_t raw) const {
    if (mode_ == Mode::kColumns) {
      if (!rows_valid_) MaterializeRows();
      return rows_[raw];
    }
    return mode_ == Mode::kView ? view_[raw] : rows_[raw];
  }
  Tuple& mutable_row(size_t raw) {
    FRO_DCHECK(mode_ == Mode::kRows);
    return rows_[raw];
  }

  bool sel_active() const { return sel_active_; }
  const std::vector<uint32_t>& sel() const { return sel_; }

  /// Raw index of the i-th live row.
  size_t sel_index(size_t i) const {
    return sel_active_ ? sel_[i] : i;
  }

  /// The i-th live row.
  const Tuple& selected(size_t i) const { return row(sel_index(i)); }

  /// Narrows the live rows to those for which `keep(row, raw_index)`
  /// returns true; activates the selection vector. Reuses scratch storage,
  /// so repeated narrowing does not allocate.
  template <typename Keep>
  void NarrowSelection(Keep&& keep) {
    sel_scratch_.clear();
    const size_t n = size();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t raw = static_cast<uint32_t>(sel_index(i));
      if (keep(row(raw), raw)) sel_scratch_.push_back(raw);
    }
    sel_.swap(sel_scratch_);
    sel_active_ = true;
  }

  /// Narrows the live rows to those whose *raw* index has a nonzero byte
  /// in `keep` (length >= NumRows()): the kernel-mask form of
  /// NarrowSelection, fed by VectorPredicate output.
  void NarrowToMask(const uint8_t* keep) {
    sel_scratch_.clear();
    const size_t n = size();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t raw = static_cast<uint32_t>(sel_index(i));
      if (keep[raw] != 0) sel_scratch_.push_back(raw);
    }
    sel_.swap(sel_scratch_);
    sel_active_ = true;
  }

  // --- Columnar content --------------------------------------------------

  /// Columnar read of attribute position `pos` for this batch's raw rows:
  /// returns the column and sets *offset so raw row r lives at
  /// column[*offset + r]. Relation-backed views return the relation's
  /// cached columns (offset = window start, zero copies); row content is
  /// transposed once per fill and cached. Requires NumRows() > 0 unless
  /// the batch is columnar or relation-backed (a rows-mode transpose
  /// infers arity from the first row).
  const ColumnVector* Column(size_t pos, size_t* offset) const;

  /// Switches an empty (Clear()ed) batch to owned-columnar mode with
  /// `arity` columns. Producers then append one value per column via
  /// mutable_column()->Append/AppendFrom/AppendNull and CommitColumnRow()
  /// once per row; full() gates appends exactly as in row mode.
  void BeginColumns(size_t arity);
  bool columnar() const { return mode_ == Mode::kColumns; }
  ColumnVector* mutable_column(size_t pos) {
    FRO_DCHECK(mode_ == Mode::kColumns);
    return &cols_[pos];
  }
  void CommitColumnRow() {
    FRO_DCHECK(mode_ == Mode::kColumns);
    ++count_;
    rows_valid_ = false;
  }
  /// Commits `n` rows appended in bulk (AppendGather flushes).
  void CommitColumnRows(size_t n) {
    FRO_DCHECK(mode_ == Mode::kColumns);
    count_ += n;
    rows_valid_ = false;
  }

 private:
  enum class Mode : uint8_t { kRows, kView, kColumns };

  /// rows -> cols_ (all raw rows, arity from the first row); caches.
  void TransposeRows() const;
  /// cols_ -> rows_[0..count_) row mirror for a columnar batch; caches.
  void MaterializeRows() const;

  size_t capacity_;
  size_t count_ = 0;
  Mode mode_ = Mode::kRows;
  bool sel_active_ = false;
  /// When in view mode, rows live in the viewed array instead of rows_.
  const Tuple* view_ = nullptr;
  /// Optional columnar source backing a view (see SetView).
  const RelationSnapshot* src_cols_ = nullptr;
  size_t src_offset_ = 0;
  /// Row storage: `capacity_` slots in rows mode (reused across Clear());
  /// the lazily-materialized mirror in columnar mode.
  mutable std::vector<Tuple> rows_;
  mutable bool rows_valid_ = false;
  /// Owned columns: the content in columnar mode; the lazily-transposed
  /// cache in rows/view mode.
  mutable std::vector<ColumnVector> cols_;
  mutable bool cols_valid_ = false;
  std::vector<uint32_t> sel_;
  std::vector<uint32_t> sel_scratch_;
};

/// The historical name: operators and tests predating the columnar
/// refactor use the two interchangeably.
using TupleBatch = ColumnBatch;

}  // namespace fro

#endif  // FRO_EXEC_BATCH_H_
