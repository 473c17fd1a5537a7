#include "exec/batch.h"

namespace fro {

const ColumnVector* ColumnBatch::Column(size_t pos, size_t* offset) const {
  if (mode_ == Mode::kView && src_cols_ != nullptr) {
    *offset = src_offset_;
    return &src_cols_->Column(pos);
  }
  if (mode_ != Mode::kColumns && !cols_valid_) TransposeRows();
  FRO_DCHECK(pos < cols_.size());
  *offset = 0;
  return &cols_[pos];
}

void ColumnBatch::TransposeRows() const {
  const size_t arity = count_ > 0 ? row(0).arity() : 0;
  cols_.resize(arity);
  for (size_t c = 0; c < arity; ++c) {
    cols_[c].Clear();
    cols_[c].Reserve(count_);
  }
  for (size_t raw = 0; raw < count_; ++raw) {
    const Tuple& r = row(raw);
    for (size_t c = 0; c < arity; ++c) cols_[c].Append(r.value(c));
  }
  cols_valid_ = true;
}

void ColumnBatch::BeginColumns(size_t arity) {
  FRO_DCHECK(count_ == 0 && mode_ != Mode::kView);
  mode_ = Mode::kColumns;
  cols_.resize(arity);
  for (size_t c = 0; c < arity; ++c) cols_[c].Clear();
  rows_valid_ = false;
}

void ColumnBatch::MaterializeRows() const {
  const size_t arity = cols_.size();
  for (size_t raw = 0; raw < count_; ++raw) {
    Tuple& r = rows_[raw];
    r.ResizeForWrite(arity);
    for (size_t c = 0; c < arity; ++c) {
      *r.mutable_value(c) = cols_[c].ValueAt(raw);
    }
  }
  rows_valid_ = true;
}

}  // namespace fro
