//===- tests/FormulaTest.cpp - Formula builder tests -----------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/Arena.h"
#include "smt/Formula.h"
#include "support/MemStats.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace rvp;

TEST(Formula, ConstantsAreFixedRefs) {
  FormulaBuilder FB;
  EXPECT_EQ(FB.node(FB.mkTrue()).Kind, FormulaKind::True);
  EXPECT_EQ(FB.node(FB.mkFalse()).Kind, FormulaKind::False);
}

TEST(Formula, AtomsHashConsed) {
  FormulaBuilder FB;
  NodeRef A = FB.mkAtom(1, 2);
  NodeRef B = FB.mkAtom(1, 2);
  NodeRef C = FB.mkAtom(2, 1);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
}

TEST(Formula, AndSimplifications) {
  FormulaBuilder FB;
  NodeRef A = FB.mkAtom(1, 2);
  NodeRef B = FB.mkAtom(3, 4);
  EXPECT_EQ(FB.mkAnd({}), FB.mkTrue());
  EXPECT_EQ(FB.mkAnd({A}), A);
  EXPECT_EQ(FB.mkAnd({A, FB.mkTrue()}), A);
  EXPECT_EQ(FB.mkAnd({A, FB.mkFalse()}), FB.mkFalse());
  EXPECT_EQ(FB.mkAnd({A, A}), A);
  EXPECT_EQ(FB.mkAnd({A, B}), FB.mkAnd({B, A})) << "children canonicalized";
}

TEST(Formula, OrSimplifications) {
  FormulaBuilder FB;
  NodeRef A = FB.mkAtom(1, 2);
  EXPECT_EQ(FB.mkOr({}), FB.mkFalse());
  EXPECT_EQ(FB.mkOr({A}), A);
  EXPECT_EQ(FB.mkOr({A, FB.mkFalse()}), A);
  EXPECT_EQ(FB.mkOr({A, FB.mkTrue()}), FB.mkTrue());
}

TEST(Formula, ComplementDetection) {
  FormulaBuilder FB;
  NodeRef A = FB.mkAtom(1, 2);
  NodeRef NotA = FB.mkAtom(2, 1);
  EXPECT_EQ(FB.mkAnd({A, NotA}), FB.mkFalse())
      << "a<b and b<a cannot both hold";
  EXPECT_EQ(FB.mkOr({A, NotA}), FB.mkTrue())
      << "distinct positions are totally ordered";
}

TEST(Formula, NestedFlattening) {
  FormulaBuilder FB;
  NodeRef A = FB.mkAtom(1, 2);
  NodeRef B = FB.mkAtom(3, 4);
  NodeRef C = FB.mkAtom(5, 6);
  NodeRef Nested = FB.mkAnd({A, FB.mkAnd({B, C})});
  NodeRef Flat = FB.mkAnd({A, B, C});
  EXPECT_EQ(Nested, Flat);
}

TEST(Formula, MixedAndOrNotFlattened) {
  FormulaBuilder FB;
  NodeRef A = FB.mkAtom(1, 2);
  NodeRef B = FB.mkAtom(3, 4);
  NodeRef Or = FB.mkOr({A, B});
  NodeRef And = FB.mkAnd({A, Or});
  EXPECT_EQ(FB.node(And).Kind, FormulaKind::And);
  EXPECT_EQ(FB.node(And).numChildren(), 2u);
}

TEST(Formula, CollectVars) {
  FormulaBuilder FB;
  NodeRef F = FB.mkOr(
      {FB.mkAnd({FB.mkAtom(5, 2), FB.mkAtom(2, 9)}), FB.mkAtom(7, 5)});
  std::vector<OrderVar> Vars = FB.collectVars(F);
  EXPECT_EQ(Vars, (std::vector<OrderVar>{2, 5, 7, 9}));
}

TEST(Formula, ToStringRendering) {
  FormulaBuilder FB;
  NodeRef F = FB.mkAnd({FB.mkAtom(1, 2), FB.mkAtom(3, 4)});
  std::string S = FB.toString(F);
  EXPECT_NE(S.find("O1 < O2"), std::string::npos);
  EXPECT_NE(S.find(" & "), std::string::npos);
  EXPECT_EQ(FB.toString(FB.mkTrue()), "true");
}

TEST(Formula, HashConsingSharesNaryNodes) {
  FormulaBuilder FB;
  NodeRef A = FB.mkAtom(1, 2);
  NodeRef B = FB.mkAtom(3, 4);
  size_t Before = FB.numNodes();
  NodeRef First = FB.mkAnd({A, B});
  NodeRef Second = FB.mkAnd({A, B});
  EXPECT_EQ(First, Second);
  EXPECT_EQ(FB.numNodes(), Before + 1);
}

TEST(Formula, ArenaChargesFormulaDagAndBulkFreesAtBarrier) {
  // The builder's node storage lives in a bump arena charged to
  // MemPool::FormulaDag; the charge must appear while the builder is
  // alive and vanish entirely when it dies (the window barrier).
  Telemetry::setEnabled(true);
  uint64_t Baseline = MemStats::current(MemPool::FormulaDag);
  {
    FormulaBuilder FB;
    std::vector<NodeRef> Conj;
    for (uint32_t I = 0; I < 20000; ++I)
      Conj.push_back(FB.mkAtom(I, I + 1));
    FB.mkAnd(std::move(Conj));
    EXPECT_GT(MemStats::current(MemPool::FormulaDag), Baseline)
        << "arena chunks are charged while the builder lives";
  }
  EXPECT_EQ(MemStats::current(MemPool::FormulaDag), Baseline)
      << "the builder's death releases every chunk at once";
  Telemetry::setEnabled(false);
}

TEST(Formula, ArenaRelocationPreservesNodes) {
  // ArenaVector growth relocates node and child storage with memcpy;
  // NodeRefs are indices, so formulas built early must survive heavy
  // later allocation verbatim.
  FormulaBuilder FB;
  NodeRef Early = FB.mkAnd({FB.mkAtom(1, 2), FB.mkAtom(3, 4)});
  std::string Rendered = FB.toString(Early);
  std::vector<OrderVar> Vars = FB.collectVars(Early);
  for (uint32_t I = 10; I < 30000; ++I)
    FB.mkAtom(I, I + 1);
  EXPECT_EQ(FB.toString(Early), Rendered);
  EXPECT_EQ(FB.collectVars(Early), Vars);
  EXPECT_EQ(FB.node(Early).Kind, FormulaKind::And);
  EXPECT_EQ(FB.node(Early).numChildren(), 2u);
}

TEST(Formula, ArenaAppendsEmptyRangeToEmptyVector) {
  // A childless node interned into a fresh builder appends the empty range
  // of an empty std::vector, whose data() may be null, to an arena vector
  // that has no storage yet.
  BumpArena Arena;
  ArenaVector<uint32_t> V(Arena);
  V.append(nullptr, nullptr);
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(V.data(), nullptr);
  FormulaBuilder FB;
  NodeRef Atom = FB.mkAtom(1, 2);
  EXPECT_EQ(FB.node(Atom).numChildren(), 0u);
}
