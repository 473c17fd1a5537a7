// PrettyTable's unit cases, plus a differential test against
// ReferencePrettyTable — the straightforward renderer (stringify every
// cell, sort per-row key vectors, pad each cell) that the one-pass
// renderer replaced — byte for byte on seeded random relations.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relational/pretty.h"
#include "relational/schema.h"
#include "testing/datagen.h"

namespace fro {
namespace {

// --- the reference renderer -----------------------------------------------

std::string ReferenceCellText(const Value& value,
                              const PrettyOptions& options) {
  if (value.is_null()) return options.null_text;
  if (value.kind() == Value::Kind::kString) return value.AsString();
  return value.ToString();
}

size_t ReferenceDisplayWidth(const std::string& text) {
  size_t width = 0;
  for (size_t i = 0; i < text.size();) {
    unsigned char c = static_cast<unsigned char>(text[i]);
    i += c < 0x80 ? 1 : c < 0xE0 ? 2 : c < 0xF0 ? 3 : 4;
    ++width;
  }
  return width;
}

std::string ReferencePadded(const std::string& text, size_t width) {
  std::string out = text;
  size_t current = ReferenceDisplayWidth(text);
  if (current < width) out.append(width - current, ' ');
  return out;
}

// Value::operator<, except -0.0 before 0.0: the renderer's tie rule.
bool ReferenceLess(const Value& a, const Value& b) {
  if (a < b) return true;
  if (b < a) return false;
  return a.kind() == Value::Kind::kDouble &&
         b.kind() == Value::Kind::kDouble && std::signbit(a.AsDouble()) &&
         !std::signbit(b.AsDouble());
}

std::string ReferencePrettyTable(const Relation& rel, const Catalog* catalog,
                                 const PrettyOptions& options) {
  std::vector<AttrId> cols = rel.scheme().cols();
  if (options.canonical) std::sort(cols.begin(), cols.end());
  std::vector<std::string> headers;
  std::vector<int> positions;
  for (AttrId attr : cols) {
    headers.push_back(catalog != nullptr ? catalog->AttrName(attr)
                                         : "#" + std::to_string(attr));
    positions.push_back(rel.scheme().IndexOf(attr));
  }

  std::vector<std::vector<std::string>> rows;
  std::vector<std::vector<Value>> sort_keys;
  for (const Tuple& row : rel.rows()) {
    std::vector<std::string> cells;
    std::vector<Value> key;
    for (int pos : positions) {
      const Value& v = row.value(static_cast<size_t>(pos));
      cells.push_back(ReferenceCellText(v, options));
      key.push_back(v);
    }
    rows.push_back(std::move(cells));
    sort_keys.push_back(std::move(key));
  }
  if (options.canonical) {
    std::vector<size_t> order(rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return std::lexicographical_compare(
          sort_keys[a].begin(), sort_keys[a].end(), sort_keys[b].begin(),
          sort_keys[b].end(), ReferenceLess);
    });
    std::vector<std::vector<std::string>> sorted;
    sorted.reserve(rows.size());
    for (size_t i : order) sorted.push_back(std::move(rows[i]));
    rows = std::move(sorted);
  }

  std::vector<size_t> widths;
  for (const std::string& h : headers) {
    widths.push_back(ReferenceDisplayWidth(h));
  }
  const size_t shown = std::min(rows.size(), options.max_rows);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      widths[c] = std::max(widths[c], ReferenceDisplayWidth(rows[r][c]));
    }
  }

  std::string out;
  for (size_t c = 0; c < headers.size(); ++c) {
    if (c > 0) out += " | ";
    out += ReferencePadded(headers[c], widths[c]);
  }
  out += "\n";
  for (size_t c = 0; c < headers.size(); ++c) {
    if (c > 0) out += "-+-";
    out.append(widths[c], '-');
  }
  out += "\n";
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += " | ";
      out += ReferencePadded(rows[r][c], widths[c]);
    }
    out += "\n";
  }
  if (rows.size() > shown) {
    out += "... (" + std::to_string(rows.size() - shown) + " more)\n";
  }
  return out;
}

// --- unit cases -------------------------------------------------------------

TEST(PrettyTest, AlignedTableWithNulls) {
  auto db = MakeDeptEmpDatabase();
  PrettyOptions options;
  options.null_text = "-";
  std::string table =
      PrettyTable(db->relation(db->Rel("DEPT")), &db->catalog(), options);
  // Header, separator, three rows.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 5);
  EXPECT_NE(table.find("DEPT.dname"), std::string::npos);
  EXPECT_NE(table.find("Research"), std::string::npos);
  // Separator line uses -+- junctions.
  EXPECT_NE(table.find("-+-"), std::string::npos);
}

TEST(PrettyTest, CanonicalSortsRows) {
  Database db;
  RelId r = *db.AddRelation("R", {"a"});
  db.AddRow(r, {Value::Int(3)});
  db.AddRow(r, {Value::Int(1)});
  db.AddRow(r, {Value::Int(2)});
  std::string table = PrettyTable(db.relation(r), &db.catalog());
  size_t p1 = table.find("1");
  size_t p2 = table.find("2", p1 + 1);
  size_t p3 = table.find("3", p2 + 1);
  EXPECT_NE(p1, std::string::npos);
  EXPECT_NE(p2, std::string::npos);
  EXPECT_NE(p3, std::string::npos);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
}

TEST(PrettyTest, RowCapSummarizesRemainder) {
  Database db;
  RelId r = *db.AddRelation("R", {"a"});
  for (int i = 0; i < 10; ++i) db.AddRow(r, {Value::Int(i)});
  PrettyOptions options;
  options.max_rows = 3;
  std::string table = PrettyTable(db.relation(r), &db.catalog(), options);
  EXPECT_NE(table.find("... (7 more)"), std::string::npos);
}

TEST(PrettyTest, NullMarkerDefaultIsSingleWidth) {
  Database db;
  RelId r = *db.AddRelation("R", {"ab"});
  db.AddRow(r, {Value::Null()});
  db.AddRow(r, {Value::Int(12)});
  std::string table = PrettyTable(db.relation(r), &db.catalog());
  // All data lines have the same display width as the header line.
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < table.size()) {
    size_t end = table.find('\n', start);
    lines.push_back(table.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_GE(lines.size(), 4u);
  // Compare display widths (the null marker is multi-byte UTF-8).
  auto width = [](const std::string& s) {
    size_t w = 0;
    for (size_t i = 0; i < s.size();) {
      unsigned char c = static_cast<unsigned char>(s[i]);
      i += c < 0x80 ? 1 : c < 0xE0 ? 2 : c < 0xF0 ? 3 : 4;
      ++w;
    }
    return w;
  };
  EXPECT_EQ(width(lines[0]), width(lines[2]));
  EXPECT_EQ(width(lines[0]), width(lines[3]));
}

TEST(PrettyTest, EmptyRelation) {
  Database db;
  RelId r = *db.AddRelation("R", {"a", "b"});
  std::string table = PrettyTable(db.relation(r), &db.catalog());
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 2);  // header+sep
}

// One table pinned literally: ints, doubles (both zeros), ASCII and
// multi-byte strings, nulls; rows tied on every column but a zero's sign.
TEST(PrettyTest, PinnedTable) {
  Database db;
  RelId r = *db.AddRelation("R", {"id", "name", "score"});
  db.AddRow(r, {Value::Int(2), Value::String("Zürich"), Value::Double(1.5)});
  db.AddRow(r, {Value::Int(3), Value::String("x"), Value::Double(0.0)});
  db.AddRow(r, {Value::Int(1), Value::Null(), Value::Double(-0.0)});
  db.AddRow(r, {Value::Int(3), Value::String("x"), Value::Double(-0.0)});
  db.AddRow(r, {Value::Int(10), Value::String("日本"), Value::Null()});
  db.AddRow(r, {Value::Int(1), Value::String("ab"), Value::Double(2e10)});
  const std::string expected =
      "R.id | R.name | R.score\n"
      "-----+--------+--------\n"
      "1    | ∅      | -0     \n"
      "1    | ab     | 2e+10  \n"
      "2    | Zürich | 1.5    \n"
      "3    | x      | -0     \n"
      "3    | x      | 0      \n"
      "10   | 日本     | ∅      \n";
  EXPECT_EQ(PrettyTable(db.relation(r), &db.catalog()), expected);
  EXPECT_EQ(ReferencePrettyTable(db.relation(r), &db.catalog(),
                                 PrettyOptions()),
            expected);
}

// --- differential test against the reference -------------------------------

enum class ColumnKind { kInt, kDouble, kAscii, kUtf8, kMixed };

Value RandomValue(ColumnKind kind, Rng* rng) {
  static const char* const kAscii[] = {"", "a", "ab", "x y", "Research",
                                       "zz"};
  static const char* const kUtf8[] = {"Zürich", "naïve", "日本", "ÄÖÜ",
                                      "a", "∅"};
  static const double kDoubles[] = {0.0,  -0.0,       1.5,  -2.25,
                                    1e10, 3.14159265, 1e-7, -123456789.0};
  if (rng->Bernoulli(0.15)) return Value::Null();
  if (kind == ColumnKind::kMixed) {
    kind = static_cast<ColumnKind>(rng->Uniform(4));
  }
  switch (kind) {
    case ColumnKind::kInt:
      if (rng->Bernoulli(0.05)) {
        return Value::Int(rng->Bernoulli(0.5)
                              ? std::numeric_limits<int64_t>::min()
                              : std::numeric_limits<int64_t>::max());
      }
      return Value::Int(rng->UniformInt(-3, 12));
    case ColumnKind::kDouble:
      return Value::Double(kDoubles[rng->Uniform(std::size(kDoubles))]);
    case ColumnKind::kAscii:
      return Value::String(kAscii[rng->Uniform(std::size(kAscii))]);
    case ColumnKind::kUtf8:
    case ColumnKind::kMixed:
      return Value::String(kUtf8[rng->Uniform(std::size(kUtf8))]);
  }
  return Value::Null();
}

// A relation of 0-5 random-kind columns, laid out in a shuffled column
// order, with 0, 1 or up to 80 rows, a fifth of them duplicates.
Relation RandomRelation(Database* db, int index, Rng* rng) {
  static const char* const kNames[] = {"a", "id", "longer_name", "ü", "b"};
  const size_t ncols = rng->Uniform(6);
  std::vector<std::string> names(kNames, kNames + ncols);
  const RelId rel = *db->AddRelation("T" + std::to_string(index), names);
  std::vector<AttrId> cols = db->scheme(rel).cols();
  for (size_t i = cols.size(); i > 1; --i) {
    std::swap(cols[i - 1], cols[rng->Uniform(i)]);
  }
  std::vector<ColumnKind> kinds;
  for (size_t c = 0; c < ncols; ++c) {
    kinds.push_back(static_cast<ColumnKind>(rng->Uniform(5)));
  }
  const uint64_t shape = rng->Uniform(4);
  const size_t nrows = shape == 0 ? 0 : shape == 1 ? 1 : rng->Uniform(81);
  std::vector<Tuple> rows;
  for (size_t r = 0; r < nrows; ++r) {
    if (!rows.empty() && rng->Bernoulli(0.2)) {
      rows.push_back(rows[rng->Uniform(rows.size())]);
      continue;
    }
    std::vector<Value> values;
    for (ColumnKind kind : kinds) values.push_back(RandomValue(kind, rng));
    rows.emplace_back(std::move(values));
  }
  return Relation(Scheme(cols), std::move(rows));
}

TEST(PrettyDifferentialTest, MatchesReferenceByteForByte) {
  Rng rng(20261017);
  Database db;
  const size_t kMaxRows[] = {0, 1, 3, 50, static_cast<size_t>(-1)};
  for (int i = 0; i < 300; ++i) {
    const Relation rel = RandomRelation(&db, i, &rng);
    const Catalog* catalog = i % 7 == 0 ? nullptr : &db.catalog();
    for (bool canonical : {true, false}) {
      for (size_t max_rows : kMaxRows) {
        for (const char* null_text : {"∅", "-"}) {
          PrettyOptions options;
          options.canonical = canonical;
          options.max_rows = max_rows;
          options.null_text = null_text;
          const std::string expected =
              ReferencePrettyTable(rel, catalog, options);
          ASSERT_EQ(PrettyTable(rel, catalog, options), expected)
              << "relation " << i << " canonical=" << canonical
              << " max_rows=" << max_rows << " null_text=" << null_text;
          ASSERT_EQ(PrettyTable(rel, catalog, options, "(footer)\n"),
                    expected + "(footer)\n");
        }
      }
    }
  }
}

}  // namespace
}  // namespace fro
