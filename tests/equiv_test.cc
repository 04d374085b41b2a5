#include "rewrite/equiv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "tests/equiv_oracle.h"

namespace mvopt {
namespace {

ColumnRefId C(int t, int c) { return ColumnRefId{t, c}; }

TEST(EquivTest, TrivialClassesAfterRegistration) {
  EquivalenceClasses ec(std::vector<int32_t>{3});
  EXPECT_EQ(ec.NumClasses(), 3);
  EXPECT_TRUE(ec.IsTrivial(C(0, 0)));
  EXPECT_FALSE(ec.AreEquivalent(C(0, 0), C(0, 1)));
}

TEST(EquivTest, MergeAndTransitivity) {
  EquivalenceClasses ec(std::vector<int32_t>{2, 2, 2});
  // A=B and B=C implies A=C (the §3.1.2 transitivity example).
  ec.AddEquality(C(0, 0), C(1, 0));
  ec.AddEquality(C(1, 0), C(2, 0));
  EXPECT_TRUE(ec.AreEquivalent(C(0, 0), C(2, 0)));
  EXPECT_FALSE(ec.IsTrivial(C(0, 0)));
  EXPECT_EQ(ec.NontrivialClasses().size(), 1u);
  EXPECT_EQ(ec.ClassMembers(ec.ClassOf(C(0, 0))).size(), 3u);
}

TEST(EquivTest, EquivalentPredicatesSameClasses) {
  // (A=B, B=C) and (A=C, C=B) produce the same classes.
  EquivalenceClasses ec1(std::vector<int32_t>{3});
  ec1.AddEquality(C(0, 0), C(0, 1));
  ec1.AddEquality(C(0, 1), C(0, 2));
  EquivalenceClasses ec2(std::vector<int32_t>{3});
  ec2.AddEquality(C(0, 0), C(0, 2));
  ec2.AddEquality(C(0, 2), C(0, 1));
  for (int c = 0; c < 3; ++c) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(ec1.AreEquivalent(C(0, c), C(0, d)),
                ec2.AreEquivalent(C(0, c), C(0, d)));
    }
  }
}

TEST(EquivTest, RedundantEqualityIsNoop) {
  EquivalenceClasses ec(std::vector<int32_t>{2});
  ec.AddEquality(C(0, 0), C(0, 1));
  int before = ec.NumClasses();
  ec.AddEquality(C(0, 1), C(0, 0));
  EXPECT_EQ(ec.NumClasses(), before);
}

TEST(EquivTest, UnregisteredColumnHasNoClass) {
  EquivalenceClasses ec(std::vector<int32_t>{1});
  EXPECT_EQ(ec.ClassOf(C(5, 5)), -1);
  EXPECT_EQ(ec.ClassOf(C(0, 1)), -1);
  EXPECT_EQ(ec.ClassOf(C(-1, 0)), -1);
  EXPECT_FALSE(ec.AreEquivalent(C(5, 5), C(0, 0)));
  EXPECT_THROW(ec.AddEquality(C(0, 0), C(0, 1)), std::out_of_range);
}

TEST(EquivTest, ManyDisjointMerges) {
  EquivalenceClasses ec(std::vector<int32_t>(10, 4));
  // Chain column 0 across all tables; column 1 pairwise (0,1),(2,3)...
  for (int t = 0; t + 1 < 10; ++t) ec.AddEquality(C(t, 0), C(t + 1, 0));
  for (int t = 0; t + 1 < 10; t += 2) ec.AddEquality(C(t, 1), C(t + 1, 1));
  EXPECT_EQ(ec.ClassMembers(ec.ClassOf(C(0, 0))).size(), 10u);
  EXPECT_EQ(ec.ClassMembers(ec.ClassOf(C(0, 1))).size(), 2u);
  EXPECT_TRUE(ec.AreEquivalent(C(0, 0), C(9, 0)));
  EXPECT_FALSE(ec.AreEquivalent(C(1, 1), C(2, 1)));
  // 1 class of 10 + 5 classes of 2 + 20 trivial (cols 2,3) + 0 col1 left.
  EXPECT_EQ(ec.NumClasses(), 1 + 5 + 20);
}

// The ordering contract every description, estimate shape, range map,
// match program and substitute depends on: class ids are numbered by
// each class's first column in slot-major order, members are listed in
// that order, and neither depends on the order or direction of the
// equalities.
TEST(EquivTest, ClassIdsFollowFirstColumnAndMembersAreSlotMajor) {
  // Dense index: (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3 (1,2)=4 (2,0)=5 (2,1)=6.
  const std::vector<std::pair<ColumnRefId, ColumnRefId>> equalities = {
      {C(2, 1), C(0, 1)}, {C(1, 2), C(2, 0)}, {C(1, 0), C(0, 0)}};
  for (bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "reversed" : "forward");
    EquivalenceClasses ec(std::vector<int32_t>{2, 3, 2});
    for (size_t i = 0; i < equalities.size(); ++i) {
      const auto& [a, b] =
          equalities[reversed ? equalities.size() - 1 - i : i];
      if (reversed) {
        ec.AddEquality(b, a);
      } else {
        ec.AddEquality(a, b);
      }
    }
    ASSERT_EQ(ec.NumClasses(), 4);
    const std::vector<std::vector<ColumnRefId>> want = {
        {C(0, 0), C(1, 0)}, {C(0, 1), C(2, 1)}, {C(1, 1)}, {C(1, 2), C(2, 0)}};
    for (int cls = 0; cls < 4; ++cls) {
      const std::span<const ColumnRefId> got = ec.ClassMembers(cls);
      EXPECT_EQ(std::vector<ColumnRefId>(got.begin(), got.end()),
                want[static_cast<size_t>(cls)])
          << "class " << cls;
    }
    const std::span<const int32_t> nontrivial = ec.NontrivialClasses();
    EXPECT_EQ(std::vector<int32_t>(nontrivial.begin(), nontrivial.end()),
              (std::vector<int32_t>{0, 1, 3}));
    const std::span<const int32_t> base = ec.col_base();
    EXPECT_EQ(std::vector<int32_t>(base.begin(), base.end()),
              (std::vector<int32_t>{0, 2, 5, 7}));
    const std::span<const int32_t> class_of = ec.class_of();
    EXPECT_EQ(std::vector<int32_t>(class_of.begin(), class_of.end()),
              (std::vector<int32_t>{0, 1, 0, 2, 3, 3, 1}));
  }
}

// Every answer of `flat` equals the frozen hash-map classes' answer, class
// members in the same order.
void ExpectSameClasses(const EquivalenceClasses& flat,
                       const oracle::HashMapEquivalenceClasses& frozen,
                       std::span<const int32_t> num_columns,
                       const std::string& what, int64_t* mismatches) {
  auto fail = [&](const std::string& detail) {
    if (++*mismatches <= 5) ADD_FAILURE() << what << ": " << detail;
  };
  if (flat.NumClasses() != frozen.NumClasses()) {
    fail("NumClasses " + std::to_string(flat.NumClasses()) + " != " +
         std::to_string(frozen.NumClasses()));
    return;
  }
  const int32_t num_slots = static_cast<int32_t>(num_columns.size());
  for (int32_t t = 0; t <= num_slots; ++t) {
    const int32_t ncols = t < num_slots ? num_columns[static_cast<size_t>(t)]
                                        : 1;
    // One column past each slot's last, and a slot past the last.
    for (int32_t c = 0; c <= ncols; ++c) {
      const ColumnRefId col{t, c};
      const int got = flat.ClassOf(col);
      if (got != frozen.ClassOf(col)) {
        fail("ClassOf(" + std::to_string(t) + "," + std::to_string(c) + ")");
        continue;
      }
      if (got >= 0 && flat.IsTrivial(col) != frozen.IsTrivial(col)) {
        fail("IsTrivial(" + std::to_string(t) + "," + std::to_string(c) +
             ")");
      }
    }
  }
  for (int cls = 0; cls < flat.NumClasses(); ++cls) {
    const std::span<const ColumnRefId> got = flat.ClassMembers(cls);
    if (std::vector<ColumnRefId>(got.begin(), got.end()) !=
        frozen.ClassMembers(cls)) {
      fail("ClassMembers(" + std::to_string(cls) + ")");
    }
  }
  const std::span<const int32_t> got = flat.NontrivialClasses();
  const std::vector<int> want = frozen.NontrivialClasses();
  if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
    fail("NontrivialClasses");
  }
}

oracle::HashMapEquivalenceClasses FrozenOver(
    std::span<const int32_t> num_columns) {
  oracle::HashMapEquivalenceClasses frozen;
  for (size_t t = 0; t < num_columns.size(); ++t) {
    frozen.AddTableColumns(static_cast<int32_t>(t), num_columns[t]);
  }
  return frozen;
}

// Seeded random equality sequences: self-equalities, repeats, long
// chains across slots, and equalities added after a class query (which
// must rebuild the classes), compared with the frozen classes at random
// steps and after the last.
TEST(EquivOracleTest, RandomEqualitySequencesMatchTheFrozenClasses) {
  int64_t mismatches = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    std::vector<int32_t> num_columns(
        static_cast<size_t>(rng.Uniform(1, 6)));
    for (int32_t& n : num_columns) n = static_cast<int32_t>(rng.Uniform(1, 9));
    EquivalenceClasses flat(num_columns);
    oracle::HashMapEquivalenceClasses frozen = FrozenOver(num_columns);
    auto random_column = [&] {
      const int32_t t = static_cast<int32_t>(
          rng.Uniform(0, static_cast<int64_t>(num_columns.size()) - 1));
      return ColumnRefId{
          t, static_cast<int32_t>(rng.Uniform(
                 0, num_columns[static_cast<size_t>(t)] - 1))};
    };
    std::vector<std::pair<ColumnRefId, ColumnRefId>> added;
    const int steps = static_cast<int>(rng.Uniform(1, 24));
    for (int step = 0; step < steps; ++step) {
      std::vector<std::pair<ColumnRefId, ColumnRefId>> batch;
      switch (rng.Uniform(0, 3)) {
        case 0: {  // self-equality
          const ColumnRefId c = random_column();
          batch.emplace_back(c, c);
          break;
        }
        case 1:  // repeat an earlier equality, either direction
          if (!added.empty()) {
            auto [a, b] = added[static_cast<size_t>(rng.Uniform(
                0, static_cast<int64_t>(added.size()) - 1))];
            if (rng.Uniform(0, 1) == 1) std::swap(a, b);
            batch.emplace_back(a, b);
            break;
          }
          [[fallthrough]];
        case 2: {  // a long chain
          ColumnRefId prev = random_column();
          const int64_t length = rng.Uniform(2, 12);
          for (int64_t i = 0; i < length; ++i) {
            const ColumnRefId next = random_column();
            batch.emplace_back(prev, next);
            prev = next;
          }
          break;
        }
        default:
          batch.emplace_back(random_column(), random_column());
          break;
      }
      for (const auto& [a, b] : batch) {
        flat.AddEquality(a, b);
        frozen.AddEquality(a, b);
        added.emplace_back(a, b);
      }
      // Query the classes at some steps only, so both sides also merge
      // after a query and across several batches without one.
      if (rng.Uniform(0, 2) == 0 || step + 1 == steps) {
        ExpectSameClasses(flat, frozen, num_columns,
                          "seed " + std::to_string(seed) + " step " +
                              std::to_string(step),
                          &mismatches);
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

class EquivOracleSweepTest : public ::testing::TestWithParam<uint64_t> {};

// Every view and every memo-group signature the view-matching rule
// probes over the §5 query set, with its column equalities applied and
// again with its tables' CHECK equalities added (as the probe analysis
// and the match program add them): the flat classes equal the frozen
// ones.
TEST_P(EquivOracleSweepTest, ViewsAndSignaturesMatchTheFrozenClasses) {
  bench::Workload workload(/*num_views=*/1000, /*num_queries=*/150,
                           GetParam());
  auto service = workload.MakeService(1000, /*use_filter_tree=*/true);
  const ViewCatalog& views = service->views();
  ASSERT_EQ(views.num_views(), 1000);
  bench::RecordingSource recorder(service.get());
  Optimizer optimizer(&workload.catalog(), &recorder);
  for (const SpjgQuery& q : workload.queries()) {
    QueryContext ctx;
    (void)optimizer.Optimize(q, ctx);
  }
  ASSERT_FALSE(recorder.signatures().empty());

  const Catalog& catalog = workload.catalog();
  int64_t mismatches = 0;
  int64_t compared = 0;
  auto compare = [&](const SpjgQuery& q, const std::string& what) {
    std::vector<int32_t> num_columns;
    for (const TableRef& t : q.tables) {
      num_columns.push_back(catalog.table(t.table).num_columns());
    }
    EquivalenceClasses flat(catalog, q.tables);
    oracle::HashMapEquivalenceClasses frozen = FrozenOver(num_columns);
    const ClassifiedPredicates preds = ClassifyConjuncts(q.conjuncts);
    flat.AddEqualities(preds.equalities);
    frozen.AddEqualities(preds.equalities);
    ExpectSameClasses(flat, frozen, num_columns, what, &mismatches);
    std::vector<ExprPtr> checks;
    for (int32_t t = 0; t < q.num_tables(); ++t) {
      for (const ExprPtr& c :
           catalog.table(q.tables[static_cast<size_t>(t)].table)
               .check_constraints()) {
        checks.push_back(Expr::RemapTableRefs(c, {t}));
      }
    }
    const ClassifiedPredicates check_preds = ClassifyConjuncts(checks);
    flat.AddEqualities(check_preds.equalities);
    frozen.AddEqualities(check_preds.equalities);
    ExpectSameClasses(flat, frozen, num_columns, what + " with checks",
                      &mismatches);
    ++compared;
  };
  for (ViewId id = 0; id < views.num_views(); ++id) {
    compare(views.view(id).query(), views.view(id).name());
  }
  for (const SpjgQuery& sig : recorder.signatures()) {
    compare(sig, "signature " + sig.ToSql(catalog));
  }
  EXPECT_EQ(compared,
            1000 + static_cast<int64_t>(recorder.signatures().size()));
  EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivOracleSweepTest,
                         ::testing::Values(uint64_t{1}, uint64_t{17}));

}  // namespace
}  // namespace mvopt
