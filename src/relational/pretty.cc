#include "relational/pretty.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.h"
#include "relational/schema.h"

namespace fro {

namespace {

using Tag = ColumnVector::Tag;

// Three-way order of two doubles: operator<, except that 0.0 and -0.0,
// which tie there but print differently, order negative first.
int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return static_cast<int>(std::signbit(b)) - static_cast<int>(std::signbit(a));
}

// Three-way canonical cell order: Value::operator<, with CompareDoubles'
// tie rule. Ints and strings are compared inline.
int CompareCells(const Value& a, const Value& b) {
  const int64_t* x = a.IfInt();
  const int64_t* y = b.IfInt();
  if (x != nullptr && y != nullptr) return (*x > *y) - (*x < *y);
  const std::string* s = a.IfString();
  const std::string* t = b.IfString();
  if (s != nullptr && t != nullptr) return s->compare(*t);
  const double* p = a.IfDouble();
  const double* q = b.IfDouble();
  if (p != nullptr && q != nullptr) return CompareDoubles(*p, *q);
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

// A run [begin, end) of positions in the row order.
using Run = std::pair<size_t, size_t>;

// Scans run [begin, end) of `order` with the three-way row comparison
// `compare` and appends its sub-runs of two or more tied rows to `tied`.
// Returns false, leaving `tied` partially extended, when the run is not
// in order.
template <typename Compare>
bool AppendTiedRuns(const uint32_t* order, size_t begin, size_t end,
                    const Compare& compare, std::vector<Run>* tied) {
  size_t start = begin;
  for (size_t i = begin + 1; i < end; ++i) {
    const int cmp = compare(order[i - 1], order[i]);
    if (cmp > 0) return false;
    if (cmp < 0) {
      if (i - start > 1) tied->emplace_back(start, i);
      start = i;
    }
  }
  if (end - start > 1) tied->emplace_back(start, end);
  return true;
}

// Orders each of `runs` by `compare` and appends the sub-runs still tied
// to `tied`. A run already in order costs one scan and no sort.
template <typename Compare>
void RefineRuns(const Compare& compare, const std::vector<Run>& runs,
                std::vector<uint32_t>* order, std::vector<Run>* tied) {
  for (const auto& [begin, end] : runs) {
    const size_t mark = tied->size();
    if (AppendTiedRuns(order->data(), begin, end, compare, tied)) continue;
    tied->resize(mark);
    std::sort(order->begin() + static_cast<std::ptrdiff_t>(begin),
              order->begin() + static_cast<std::ptrdiff_t>(end),
              [&compare](uint32_t a, uint32_t b) {
                return compare(a, b) < 0;
              });
    AppendTiedRuns(order->data(), begin, end, compare, tied);
  }
}

// Sorts the row indices in `order` lexicographically over `columns`, one
// column at a time: the whole range by the first column, then each run
// still tied by the next one. Nulls order first, as under
// Value::operator<. Rows left tied on every column print identically, so
// the unstable sort's tie order never shows.
void SortRowOrder(const std::vector<const ColumnVector*>& columns,
                  std::vector<uint32_t>* order) {
  std::vector<Run> runs;
  std::vector<Run> tied;
  if (order->size() > 1) runs.emplace_back(0, order->size());
  for (const ColumnVector* displayed : columns) {
    if (runs.empty()) break;
    const ColumnVector& column = *displayed;
    const uint8_t* nulls = column.null_mask();
    tied.clear();
    switch (column.tag()) {
      case Tag::kEmpty:
        continue;  // all null: every run stays tied
      case Tag::kInt: {
        const int64_t* v = column.ints();
        RefineRuns(
            [v, nulls](uint32_t a, uint32_t b) {
              if ((nulls[a] | nulls[b]) != 0) return nulls[b] - nulls[a];
              return (v[a] > v[b]) - (v[a] < v[b]);
            },
            runs, order, &tied);
        break;
      }
      case Tag::kDouble: {
        const double* v = column.doubles();
        RefineRuns(
            [v, nulls](uint32_t a, uint32_t b) {
              if ((nulls[a] | nulls[b]) != 0) return nulls[b] - nulls[a];
              return CompareDoubles(v[a], v[b]);
            },
            runs, order, &tied);
        break;
      }
      case Tag::kGeneric: {
        const Value* v = column.generic();
        RefineRuns(
            [v](uint32_t a, uint32_t b) { return CompareCells(v[a], v[b]); },
            runs, order, &tied);
        break;
      }
    }
    runs.swap(tied);
  }
}

// Room for any int64 and any "%g" double.
constexpr size_t kNumberBytes = 32;

size_t DecimalWidth(int64_t value) {
  char buf[kNumberBytes];
  const char* end = std::to_chars(buf, buf + kNumberBytes, value).ptr;
  return static_cast<size_t>(end - buf);
}

// Value::ToString's spelling of a double, formatted into `buf`.
std::string_view DoubleText(double value, char (&buf)[kNumberBytes]) {
  return {buf, static_cast<size_t>(
                   std::snprintf(buf, kNumberBytes, "%g", value))};
}

// The printed text of a non-null generic cell that is not an int (ints
// are written straight into the table): doubles are formatted into
// `buf`, strings are viewed in place.
std::string_view NonIntCellText(const Value& value,
                                char (&buf)[kNumberBytes]) {
  if (const std::string* s = value.IfString()) return *s;
  return DoubleText(value.AsDouble(), buf);
}

// Display width in characters: one per byte over an ASCII prefix, then
// one per UTF-8 leading byte (the default null marker is multi-byte but
// single-column).
size_t DisplayWidth(std::string_view text) {
  size_t i = 0;
  while (i < text.size() && static_cast<unsigned char>(text[i]) < 0x80) ++i;
  size_t width = i;
  while (i < text.size()) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    i += c < 0x80 ? 1 : c < 0xE0 ? 2 : c < 0xF0 ? 3 : 4;
    ++width;
  }
  return width;
}

}  // namespace

PrettyLayout::PrettyLayout(const ColumnTable& table, const Catalog* catalog,
                           const PrettyOptions& options)
    : null_text_(options.null_text) {
  // Column order & headers.
  std::vector<AttrId> cols = table.scheme().cols();
  if (options.canonical) std::sort(cols.begin(), cols.end());
  const size_t ncols = cols.size();
  headers_.reserve(ncols);
  columns_.reserve(ncols);
  for (AttrId attr : cols) {
    headers_.push_back(catalog != nullptr ? catalog->AttrName(attr)
                                          : "#" + std::to_string(attr));
    columns_.push_back(
        &table.column(static_cast<size_t>(table.scheme().IndexOf(attr))));
  }

  // Row order: a permutation, sorted by the displayed column order.
  const size_t nrows = table.NumRows();
  FRO_CHECK(nrows <= std::numeric_limits<uint32_t>::max())
      << "PrettyTable: too many rows";
  order_.resize(nrows);
  std::iota(order_.begin(), order_.end(), 0u);
  if (options.canonical) SortRowOrder(columns_, &order_);
  shown_ = std::min(nrows, options.max_rows);

  // Pass 1: column widths over the header and the shown rows, plus the
  // bytes that multi-byte characters add beyond one per column. An int
  // column is as wide as its widest extreme, so ints are only compared.
  char buf[kNumberBytes];
  const size_t null_width = DisplayWidth(null_text_);
  size_t multibyte_bytes = 0;
  widths_.resize(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    const ColumnVector& column = *columns_[c];
    const uint8_t* nulls = column.null_mask();
    size_t width = DisplayWidth(headers_[c]);
    multibyte_bytes += headers_[c].size() - width;
    int64_t int_min = std::numeric_limits<int64_t>::max();
    int64_t int_max = std::numeric_limits<int64_t>::min();
    size_t null_count = 0;
    for (size_t r = 0; r < shown_; ++r) {
      const uint32_t row = order_[r];
      if (nulls[row] != 0) {
        ++null_count;
        continue;
      }
      switch (column.tag()) {
        case Tag::kInt:
          int_min = std::min(int_min, column.ints()[row]);
          int_max = std::max(int_max, column.ints()[row]);
          break;
        case Tag::kDouble:
          width =
              std::max(width, DoubleText(column.doubles()[row], buf).size());
          break;
        case Tag::kGeneric: {
          const Value& value = column.generic()[row];
          if (const int64_t* i = value.IfInt()) {
            int_min = std::min(int_min, *i);
            int_max = std::max(int_max, *i);
            break;
          }
          const std::string_view text = NonIntCellText(value, buf);
          const size_t text_width = DisplayWidth(text);
          width = std::max(width, text_width);
          multibyte_bytes += text.size() - text_width;
          break;
        }
        case Tag::kEmpty:
          break;  // unreachable: a kEmpty column is all null
      }
    }
    if (null_count > 0) {
      width = std::max(width, null_width);
      multibyte_bytes += null_count * (null_text_.size() - null_width);
    }
    if (int_min <= int_max) {
      width = std::max({width, DecimalWidth(int_min), DecimalWidth(int_max)});
    }
    widths_[c] = width;
  }
  if (nrows > shown_) {
    more_ = "... (" + std::to_string(nrows - shown_) + " more)\n";
  }
  size_t line_bytes = ncols > 0 ? 3 * (ncols - 1) + 1 : 1;
  for (size_t width : widths_) line_bytes += width;
  bytes_ = line_bytes * (2 + shown_) + multibyte_bytes + more_.size();
}

std::string PrettyLayout::Write(std::string_view trailer) const {
  // Pass 2: write into the buffer sized by pass 1.
  std::string out(bytes_ + trailer.size(), ' ');
  char* p = out.data();
  auto put = [&p](std::string_view text) {
    if (text.empty()) return;
    std::memcpy(p, text.data(), text.size());
    p += text.size();
  };
  // Spaces are the buffer's fill, so padding only advances.
  auto pad = [&p](size_t n) { p += n; };
  // The column is at least as wide as the digits.
  auto put_int = [&p, &pad](int64_t value, size_t width) {
    std::to_chars(p, p + width, value);
    pad(width);
  };
  const size_t ncols = headers_.size();
  for (size_t c = 0; c < ncols; ++c) {
    if (c > 0) put(" | ");
    put(headers_[c]);
    pad(widths_[c] - DisplayWidth(headers_[c]));
  }
  *p++ = '\n';
  for (size_t c = 0; c < ncols; ++c) {
    if (c > 0) put("-+-");
    std::memset(p, '-', widths_[c]);
    p += widths_[c];
  }
  *p++ = '\n';
  char buf[kNumberBytes];
  const size_t null_width = DisplayWidth(null_text_);
  for (size_t r = 0; r < shown_; ++r) {
    const uint32_t row = order_[r];
    for (size_t c = 0; c < ncols; ++c) {
      if (c > 0) put(" | ");
      const ColumnVector& column = *columns_[c];
      const size_t width = widths_[c];
      if (column.is_null(row)) {
        put(null_text_);
        pad(width - null_width);
        continue;
      }
      switch (column.tag()) {
        case Tag::kInt:
          put_int(column.ints()[row], width);
          break;
        case Tag::kDouble: {
          const std::string_view text = DoubleText(column.doubles()[row], buf);
          put(text);
          pad(width - text.size());
          break;
        }
        case Tag::kGeneric: {
          const Value& value = column.generic()[row];
          if (const int64_t* i = value.IfInt()) {
            put_int(*i, width);
            break;
          }
          const std::string_view text = NonIntCellText(value, buf);
          put(text);
          pad(width - DisplayWidth(text));
          break;
        }
        case Tag::kEmpty:
          break;  // unreachable: a kEmpty column is all null
      }
    }
    *p++ = '\n';
  }
  put(more_);
  put(trailer);
  FRO_CHECK(p == out.data() + out.size()) << "PrettyTable: size mismatch";
  return out;
}

std::string PrettyTable(const Relation& rel, const Catalog* catalog,
                        const PrettyOptions& options,
                        std::string_view trailer) {
  const ColumnTable table = ColumnTable::FromRelation(rel);
  return PrettyLayout(table, catalog, options).Write(trailer);
}

}  // namespace fro
