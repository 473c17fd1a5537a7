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

// Three-way canonical cell order: Value::operator<, except that 0.0 and
// -0.0, which tie there but print differently, order negative first.
// Ints and strings are compared inline.
int CompareCells(const Value& a, const Value& b) {
  const int64_t* x = a.IfInt();
  const int64_t* y = b.IfInt();
  if (x != nullptr && y != nullptr) return (*x > *y) - (*x < *y);
  const std::string* s = a.IfString();
  const std::string* t = b.IfString();
  if (s != nullptr && t != nullptr) return s->compare(*t);
  if (a < b) return -1;
  if (b < a) return 1;
  const double* p = a.IfDouble();
  const double* q = b.IfDouble();
  if (p != nullptr && q != nullptr) {
    return static_cast<int>(std::signbit(*q)) -
           static_cast<int>(std::signbit(*p));
  }
  return 0;
}

// A run [begin, end) of positions in the row order.
using Run = std::pair<size_t, size_t>;

// Scans run [begin, end) of `order` on one column and appends its
// sub-runs of two or more tied rows to `tied`. Returns false, leaving
// `tied` partially extended, when the run is not in order on the column.
template <typename Cell>
bool AppendTiedRuns(const uint32_t* order, size_t begin, size_t end,
                    const Cell& cell, std::vector<Run>* tied) {
  size_t start = begin;
  for (size_t i = begin + 1; i < end; ++i) {
    const int cmp = CompareCells(cell(order[i - 1]), cell(order[i]));
    if (cmp > 0) return false;
    if (cmp < 0) {
      if (i - start > 1) tied->emplace_back(start, i);
      start = i;
    }
  }
  if (end - start > 1) tied->emplace_back(start, end);
  return true;
}

// Sorts the row indices in `order` lexicographically over the cells at
// `positions`, one column at a time: the whole range by the first
// column, then each run still tied by the next one. A run already in
// order on a column costs one scan and no sort. Rows left tied on every
// column print identically, so the unstable sort's tie order never shows.
void SortRowOrder(const std::vector<Tuple>& rows,
                  const std::vector<size_t>& positions,
                  std::vector<uint32_t>* order) {
  std::vector<Run> runs;
  std::vector<Run> tied;
  if (order->size() > 1) runs.emplace_back(0, order->size());
  for (size_t pos : positions) {
    if (runs.empty()) break;
    auto cell = [&rows, pos](uint32_t row) -> const Value& {
      return rows[row].value(pos);
    };
    tied.clear();
    for (const auto& [begin, end] : runs) {
      const size_t mark = tied.size();
      if (AppendTiedRuns(order->data(), begin, end, cell, &tied)) continue;
      tied.resize(mark);
      std::sort(order->begin() + static_cast<std::ptrdiff_t>(begin),
                order->begin() + static_cast<std::ptrdiff_t>(end),
                [&cell](uint32_t a, uint32_t b) {
                  return CompareCells(cell(a), cell(b)) < 0;
                });
      AppendTiedRuns(order->data(), begin, end, cell, &tied);
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

// The printed text of a cell that is not an int (ints are written
// straight into the table): doubles are formatted into `buf`, strings and
// nulls are viewed in place.
std::string_view NonIntCellText(const Value& value,
                                std::string_view null_text,
                                char (&buf)[kNumberBytes]) {
  if (const std::string* s = value.IfString()) return *s;
  if (const double* d = value.IfDouble()) {
    // Value::ToString's spelling.
    return {buf, static_cast<size_t>(
                     std::snprintf(buf, kNumberBytes, "%g", *d))};
  }
  return null_text;
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

std::string PrettyTable(const Relation& rel, const Catalog* catalog,
                        const PrettyOptions& options) {
  return PrettyTable(rel, catalog, options, {});
}

std::string PrettyTable(const Relation& rel, const Catalog* catalog,
                        const PrettyOptions& options,
                        std::string_view trailer) {
  // Column order & headers.
  std::vector<AttrId> cols = rel.scheme().cols();
  if (options.canonical) std::sort(cols.begin(), cols.end());
  const size_t ncols = cols.size();
  std::vector<std::string> headers;
  std::vector<size_t> positions;
  headers.reserve(ncols);
  positions.reserve(ncols);
  for (AttrId attr : cols) {
    headers.push_back(catalog != nullptr ? catalog->AttrName(attr)
                                         : "#" + std::to_string(attr));
    positions.push_back(static_cast<size_t>(rel.scheme().IndexOf(attr)));
  }

  // Row order: a permutation, sorted by the displayed column order.
  const std::vector<Tuple>& rows = rel.rows();
  FRO_CHECK(rows.size() <= std::numeric_limits<uint32_t>::max())
      << "PrettyTable: too many rows";
  std::vector<uint32_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0u);
  if (options.canonical) SortRowOrder(rows, positions, &order);
  const size_t shown = std::min(rows.size(), options.max_rows);

  // Pass 1: column widths over the header and the shown rows, plus the
  // bytes that multi-byte characters add beyond one per column. An int
  // column is as wide as its widest extreme, so ints are only compared.
  char buf[kNumberBytes];
  std::vector<size_t> widths(ncols);
  std::vector<int64_t> int_min(ncols, std::numeric_limits<int64_t>::max());
  std::vector<int64_t> int_max(ncols, std::numeric_limits<int64_t>::min());
  size_t multibyte_bytes = 0;
  for (size_t c = 0; c < ncols; ++c) {
    widths[c] = DisplayWidth(headers[c]);
    multibyte_bytes += headers[c].size() - widths[c];
  }
  for (size_t r = 0; r < shown; ++r) {
    const Tuple& row = rows[order[r]];
    for (size_t c = 0; c < ncols; ++c) {
      const Value& value = row.value(positions[c]);
      if (const int64_t* i = value.IfInt()) {
        int_min[c] = std::min(int_min[c], *i);
        int_max[c] = std::max(int_max[c], *i);
        continue;
      }
      const std::string_view text =
          NonIntCellText(value, options.null_text, buf);
      const size_t width = DisplayWidth(text);
      widths[c] = std::max(widths[c], width);
      multibyte_bytes += text.size() - width;
    }
  }
  for (size_t c = 0; c < ncols; ++c) {
    if (int_min[c] > int_max[c]) continue;  // no int shown
    widths[c] = std::max({widths[c], DecimalWidth(int_min[c]),
                          DecimalWidth(int_max[c])});
  }
  const std::string more =
      rows.size() > shown
          ? "... (" + std::to_string(rows.size() - shown) + " more)\n"
          : std::string();
  size_t line_bytes = ncols > 0 ? 3 * (ncols - 1) + 1 : 1;
  for (size_t width : widths) line_bytes += width;
  const size_t total = line_bytes * (2 + shown) + multibyte_bytes +
                       more.size() + trailer.size();

  // Pass 2: write into the buffer sized once above.
  std::string out(total, ' ');
  char* p = out.data();
  auto put = [&p](std::string_view text) {
    if (text.empty()) return;
    std::memcpy(p, text.data(), text.size());
    p += text.size();
  };
  // Spaces are the buffer's fill, so padding only advances.
  auto pad = [&p](size_t n) { p += n; };
  for (size_t c = 0; c < ncols; ++c) {
    if (c > 0) put(" | ");
    put(headers[c]);
    pad(widths[c] - DisplayWidth(headers[c]));
  }
  *p++ = '\n';
  for (size_t c = 0; c < ncols; ++c) {
    if (c > 0) put("-+-");
    std::memset(p, '-', widths[c]);
    p += widths[c];
  }
  *p++ = '\n';
  for (size_t r = 0; r < shown; ++r) {
    const Tuple& row = rows[order[r]];
    for (size_t c = 0; c < ncols; ++c) {
      if (c > 0) put(" | ");
      const Value& value = row.value(positions[c]);
      if (const int64_t* i = value.IfInt()) {
        // The column is at least as wide as the digits.
        std::to_chars(p, p + widths[c], *i);
        pad(widths[c]);
        continue;
      }
      const std::string_view text =
          NonIntCellText(value, options.null_text, buf);
      put(text);
      pad(widths[c] - DisplayWidth(text));
    }
    *p++ = '\n';
  }
  put(more);
  put(trailer);
  FRO_CHECK(p == out.data() + out.size()) << "PrettyTable: size mismatch";
  return out;
}

}  // namespace fro
