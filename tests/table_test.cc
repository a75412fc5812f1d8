#include "engine/table.h"

#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "engine/row_index.h"

namespace rdfref {
namespace engine {
namespace {

using Rows = std::vector<std::vector<rdf::TermId>>;

// Seeded rows with heavy duplication: most rows are drawn from a small pool
// of prototypes, the rest are fresh random rows over a small domain.
Rows RandomRows(Rng* rng, size_t arity, size_t n, size_t pool_size,
                uint64_t domain) {
  Rows pool(pool_size, std::vector<rdf::TermId>(arity));
  for (auto& row : pool) {
    for (rdf::TermId& v : row) v = static_cast<rdf::TermId>(rng->Uniform(domain));
  }
  Rows rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Chance(0.9)) {
      rows.push_back(pool[rng->Uniform(pool_size)]);
    } else {
      std::vector<rdf::TermId> row(arity);
      for (rdf::TermId& v : row) {
        v = static_cast<rdf::TermId>(rng->Uniform(domain));
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

Table TableOf(size_t arity, const Rows& rows) {
  std::vector<query::VarId> cols(arity);
  for (size_t c = 0; c < arity; ++c) cols[c] = static_cast<query::VarId>(c);
  Table t = Table::FromRows(std::move(cols), rows);
  t.SetArity(arity);
  return t;
}

// The reference Dedup: first occurrences in order, through an ordered set.
Rows ReferenceDedup(const Rows& rows) {
  std::set<std::vector<rdf::TermId>> seen;
  Rows kept;
  for (const auto& row : rows) {
    if (seen.insert(row).second) kept.push_back(row);
  }
  return kept;
}

TEST(TableTest, DedupMatchesOrderedSetReference) {
  Rng rng(20260114);
  for (size_t arity = 1; arity <= 8; ++arity) {
    const size_t n = (size_t{1} << 17) + 17 * arity;
    const Rows rows = RandomRows(&rng, arity, n, 3000, arity == 1 ? 50000 : 16);
    Table t = TableOf(arity, rows);
    t.Dedup();
    EXPECT_EQ(t.RowVectors(), ReferenceDedup(rows)) << "arity " << arity;
  }
}

TEST(TableTest, DedupOfEmptyAndSingleRowTables) {
  Table empty;
  empty.Dedup();
  EXPECT_EQ(empty.NumRows(), 0u);
  EXPECT_FALSE(empty.has_arity());
  Table typed;
  typed.SetArity(3);
  typed.Dedup();
  EXPECT_EQ(typed.NumRows(), 0u);
  Table zero;
  zero.SetArity(0);
  zero.Dedup();
  EXPECT_EQ(zero.NumRows(), 0u);  // no rows stays no rows
  Table one = Table::FromRows({0}, {{4}});
  one.Dedup();
  EXPECT_EQ(one.RowVectors(), (Rows{{4}}));
}

TEST(TableTest, DedupRemovesDuplicatesKeepingFirstOccurrenceOrder) {
  Table t = Table::FromRows({0, 1}, {{1, 2}, {1, 2}, {3, 4}, {1, 2}, {5, 6}});
  t.Dedup();
  EXPECT_EQ(t.RowVectors(), (std::vector<std::vector<rdf::TermId>>{
                                {1, 2}, {3, 4}, {5, 6}}));
}

TEST(TableTest, SortIsLexicographic) {
  Table t = Table::FromRows({0, 1}, {{2, 1}, {1, 9}, {1, 2}});
  t.Sort();
  EXPECT_EQ(t.RowVectors(), (std::vector<std::vector<rdf::TermId>>{
                                {1, 2}, {1, 9}, {2, 1}}));
}

TEST(TableTest, ColumnOf) {
  Table t;
  t.columns = {4, 7, 9};
  EXPECT_EQ(t.ColumnOf(7), 1);
  EXPECT_EQ(t.ColumnOf(5), -1);
}

TEST(TableTest, ArenaLayoutIsContiguousRowMajor) {
  Table t;
  t.SetArity(3);
  t.AppendRow({1, 2, 3});
  rdf::TermId* slots = t.AppendUninitialized();
  slots[0] = 4;
  slots[1] = 5;
  slots[2] = 6;
  EXPECT_EQ(t.data(), (std::vector<rdf::TermId>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.row(1)[1], 5u);
  t.RemoveLastRow();
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.data(), (std::vector<rdf::TermId>{1, 2, 3}));
}

TEST(TableTest, AppendRowInfersArity) {
  Table t;
  EXPECT_FALSE(t.has_arity());
  t.AppendRow({7, 8});
  EXPECT_TRUE(t.has_arity());
  EXPECT_EQ(t.arity(), 2u);
  EXPECT_EQ(t.NumRows(), 1u);
}

// Zero-arity rows (boolean queries): no values, but the row count — and
// dedup down to a single witness — must still work.
TEST(TableTest, ZeroArityRowsCountAndDedup) {
  Table t;
  t.SetArity(0);
  EXPECT_TRUE(t.has_arity());
  EXPECT_EQ(t.NumRows(), 0u);
  EXPECT_EQ(t.AppendUninitialized(), nullptr);
  t.AppendRow(std::span<const rdf::TermId>{});
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.row(0).size(), 0u);
  t.Dedup();
  EXPECT_EQ(t.NumRows(), 1u);  // all zero-arity rows are the same row
  t.RemoveLastRow();
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST(TableTest, AppendConcatenatesArenas) {
  Table a = Table::FromRows({0}, {{1}, {2}});
  Table b = Table::FromRows({0}, {{3}});
  a.Append(b);
  EXPECT_EQ(a.RowVectors(),
            (std::vector<std::vector<rdf::TermId>>{{1}, {2}, {3}}));
  // Appending an empty, arity-less table is a no-op.
  Table fresh;
  a.Append(fresh);
  EXPECT_EQ(a.NumRows(), 3u);
}

// Dedup of a moved-from arena: moving a table out must leave the source
// valid-but-empty, and Dedup on it must be a safe no-op.
TEST(TableTest, DedupOfMovedFromArenaIsSafe) {
  Table t = Table::FromRows({0, 1}, {{1, 2}, {1, 2}});
  Table stolen = std::move(t);
  EXPECT_EQ(stolen.NumRows(), 2u);
  t.Dedup();  // NOLINT(bugprone-use-after-move): deliberate
  EXPECT_EQ(t.NumRows(), 0u);
  stolen.Dedup();
  EXPECT_EQ(stolen.NumRows(), 1u);
}

// The kConstColumn sentinel marks constant head slots. It is the maximum
// VarId, so it can never collide with a real variable, and two constant
// columns must NOT be treated as a shared join column in the usual way —
// they simply behave as a (degenerate) equality column.
TEST(TableTest, ConstColumnSentinelNeverAliasesRealVariables) {
  EXPECT_EQ(kConstColumn, std::numeric_limits<query::VarId>::max());
  Table t = Table::FromRows({0, kConstColumn}, {{1, 42}, {2, 42}});
  EXPECT_EQ(t.ColumnOf(kConstColumn), 1);
  EXPECT_EQ(t.ColumnOf(3), -1);
  // A fragment with variable 5 shares nothing with a constant column.
  Table other = Table::FromRows({5}, {{9}});
  Table joined = HashJoin(t, other);  // cross product: no shared VarId
  EXPECT_EQ(joined.NumRows(), 2u);
  EXPECT_EQ(joined.columns,
            (std::vector<query::VarId>{0, kConstColumn, 5}));
}

TEST(HashJoinTest, JoinsOnSharedColumn) {
  Table left = Table::FromRows({0, 1}, {{1, 10}, {2, 20}, {3, 30}});
  Table right = Table::FromRows({1, 2}, {{10, 100}, {10, 101}, {30, 300}});
  Table joined = HashJoin(left, right);
  EXPECT_EQ(joined.columns, (std::vector<query::VarId>{0, 1, 2}));
  joined.Sort();
  EXPECT_EQ(joined.RowVectors(),
            (std::vector<std::vector<rdf::TermId>>{
                {1, 10, 100}, {1, 10, 101}, {3, 30, 300}}));
}

TEST(HashJoinTest, MultiColumnKeys) {
  Table left = Table::FromRows({0, 1}, {{1, 2}, {1, 3}});
  Table right = Table::FromRows({0, 1, 2}, {{1, 2, 9}, {1, 3, 8}, {1, 4, 7}});
  Table joined = HashJoin(left, right);
  joined.Sort();
  EXPECT_EQ(joined.RowVectors(), (std::vector<std::vector<rdf::TermId>>{
                                     {1, 2, 9}, {1, 3, 8}}));
}

// Duplicate join columns: the left table carries the same VarId twice
// (e.g. after joining fragments that both exported it). Every occurrence
// participates in the key via ColumnOf's first match, and the join must
// still line up values correctly rather than crash or mis-stride.
TEST(HashJoinTest, DuplicateJoinColumnsOnOneSide) {
  Table left = Table::FromRows({0, 0}, {{1, 1}, {2, 2}, {3, 9}});
  Table right = Table::FromRows({0, 1}, {{1, 100}, {2, 200}, {9, 900}});
  Table joined = HashJoin(left, right);
  EXPECT_EQ(joined.columns, (std::vector<query::VarId>{0, 0, 1}));
  joined.Sort();
  // Key is the first occurrence of column 0 on each side: rows {1,1} and
  // {2,2} match; {3,9} keys as 3, which has no build-side partner.
  EXPECT_EQ(joined.RowVectors(), (std::vector<std::vector<rdf::TermId>>{
                                     {1, 1, 100}, {2, 2, 200}}));
}

TEST(HashJoinTest, NoSharedColumnIsCrossProduct) {
  Table left = Table::FromRows({0}, {{1}, {2}});
  Table right = Table::FromRows({1}, {{7}, {8}});
  Table joined = HashJoin(left, right);
  EXPECT_EQ(joined.columns, (std::vector<query::VarId>{0, 1}));
  joined.Sort();
  EXPECT_EQ(joined.RowVectors(), (std::vector<std::vector<rdf::TermId>>{
                                     {1, 7}, {1, 8}, {2, 7}, {2, 8}}));
}

TEST(HashJoinTest, EmptySideYieldsEmpty) {
  Table left, right;
  left.columns = {0};
  right = Table::FromRows({0}, {{1}});
  EXPECT_EQ(HashJoin(left, right).NumRows(), 0u);
  EXPECT_EQ(HashJoin(right, left).NumRows(), 0u);
}

TEST(HashJoinTest, EmptySideOfCrossProductYieldsEmpty) {
  // Zero shared columns *and* an empty build side: the cross product of
  // anything with the empty table is empty, whichever side is empty.
  Table empty, nonempty;
  empty.columns = {0};
  nonempty = Table::FromRows({1}, {{7}, {8}});
  EXPECT_EQ(HashJoin(empty, nonempty).NumRows(), 0u);
  EXPECT_EQ(HashJoin(nonempty, empty).NumRows(), 0u);
  EXPECT_EQ(HashJoin(empty, nonempty).columns.size(), 2u);
}

// The nested-loop reference of HashJoin's row order: left-major, and for
// each left row the matching right rows in their original order.
Rows ReferenceJoin(const Table& left, const Table& right) {
  std::vector<std::pair<int, int>> key;
  std::vector<int> carry;
  for (size_t j = 0; j < right.columns.size(); ++j) {
    int li = left.ColumnOf(right.columns[j]);
    if (li >= 0) {
      key.emplace_back(li, static_cast<int>(j));
    } else {
      carry.push_back(static_cast<int>(j));
    }
  }
  Rows out;
  for (size_t l = 0; l < left.NumRows(); ++l) {
    for (size_t r = 0; r < right.NumRows(); ++r) {
      bool match = true;
      for (auto [lc, rc] : key) match = match && left.row(l)[lc] == right.row(r)[rc];
      if (!match) continue;
      std::vector<rdf::TermId> row(left.row(l).begin(), left.row(l).end());
      for (int c : carry) row.push_back(right.row(r)[c]);
      out.push_back(std::move(row));
    }
  }
  return out;
}

TEST(HashJoinTest, MatchesNestedLoopRowOrder) {
  Rng rng(77);
  // (left columns, right columns): one, two and three key columns, keys
  // in different column positions on each side.
  const std::vector<std::pair<std::vector<query::VarId>,
                              std::vector<query::VarId>>>
      shapes = {{{0, 1}, {1, 2}},
                {{0, 1, 2}, {2, 3, 0}},
                {{0, 1, 2, 3}, {3, 1, 4, 2}}};
  for (const auto& [lcols, rcols] : shapes) {
    // A domain of 3 makes long per-key chains (hundreds of build rows
    // per key) alongside keys with no partner.
    const Rows lrows = RandomRows(&rng, lcols.size(), 400, 60, 3);
    const Rows rrows = RandomRows(&rng, rcols.size(), 900, 200, 3);
    const Table left = Table::FromRows(lcols, lrows);
    const Table right = Table::FromRows(rcols, rrows);
    const Table joined = HashJoin(left, right);
    const Rows expected = ReferenceJoin(left, right);
    ASSERT_GT(expected.size(), 1000u);
    EXPECT_EQ(joined.RowVectors(), expected);
  }
}

TEST(HashJoinTest, ZeroArityLeftIsCrossProduct) {
  Table unit;
  unit.SetArity(0);
  unit.AppendRow(std::span<const rdf::TermId>{});
  unit.AppendRow(std::span<const rdf::TermId>{});
  Table right = Table::FromRows({1}, {{7}, {8}});
  Table joined = HashJoin(unit, right);
  EXPECT_EQ(joined.columns, (std::vector<query::VarId>{1}));
  EXPECT_EQ(joined.RowVectors(), (Rows{{7}, {8}, {7}, {8}}));
}

// Direct kernel checks: growth from an empty index (no Reserve), set
// semantics and chains against std::map references.
TEST(RowIndexTest, SetAndChainsMatchMapReferenceAcrossGrowth) {
  Rng rng(5);
  const size_t arity = 3;
  const Rows rows = RandomRows(&rng, arity, 50000, 4000, 40);
  std::vector<rdf::TermId> arena;
  RowIndex set(arity, 0, arity);
  RowIndex by_middle(arity, 1, 1);
  std::map<std::vector<rdf::TermId>, uint32_t> first;
  std::map<rdf::TermId, std::vector<uint32_t>> chains;
  for (uint32_t r = 0; r < rows.size(); ++r) {
    arena.insert(arena.end(), rows[r].begin(), rows[r].end());
    const uint32_t kept = first.emplace(rows[r], r).first->second;
    ASSERT_EQ(set.FindOrInsert(arena.data(), r), kept);
    by_middle.Append(arena.data(), r);
    chains[rows[r][1]].push_back(r);
  }
  for (const auto& [value, expected] : chains) {
    RowIndex::Chain chain = by_middle.Find(arena.data(), &value);
    ASSERT_EQ(chain.size(), expected.size());
    std::vector<uint32_t> got;
    for (uint32_t row : chain) got.push_back(row);
    EXPECT_EQ(got, expected);
  }
  const rdf::TermId absent = 1000;
  EXPECT_TRUE(by_middle.Find(arena.data(), &absent).empty());
  EXPECT_TRUE(RowIndex(1, 0, 1).Find(nullptr, &absent).empty());
}

// Row 2^32 - 1 is the empty-slot sentinel: indexing it (a table of 2^32
// rows) must abort, not wrap. The check precedes any arena read.
TEST(RowIndexDeathTest, RowsBeyondThirtyTwoBitIdsAbort) {
  const rdf::TermId arena[1] = {0};
  EXPECT_DEATH(RowIndex(1, 0, 1).FindOrInsert(arena, RowIndex::kNoRow),
               "2\\^32");
  EXPECT_DEATH(RowIndex(1, 0, 1).Append(arena, size_t{1} << 32), "2\\^32");
  EXPECT_DEATH(RowIndex(1, 0, 1).Reserve(size_t{1} << 32), "2\\^32");
}

TEST(TableTest, ToStringTruncates) {
  rdf::Dictionary dict;
  rdf::TermId a = dict.InternUri("http://a");
  Table t;
  t.columns = {0};
  t.SetArity(1);
  for (int i = 0; i < 30; ++i) t.AppendRow({a});
  std::string s = t.ToString(dict, 5);
  EXPECT_NE(s.find("30 row(s)"), std::string::npos);
  EXPECT_NE(s.find("25 more"), std::string::npos);
}

}  // namespace
}  // namespace engine
}  // namespace rdfref
