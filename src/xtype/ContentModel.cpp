//===- ContentModel.cpp - DTD content models -------------------------------===//

#include "xtype/ContentModel.h"

#include <cassert>
#include <set>
#include <sstream>

using namespace xsa;

static ContentRef make(ContentModel::Kind K, Symbol S, ContentRef A,
                       ContentRef B) {
  auto C = std::make_shared<ContentModel>();
  C->K = K;
  C->S = S;
  C->A = std::move(A);
  C->B = std::move(B);
  return C;
}

ContentRef ContentModel::eps() { return make(Eps, 0, nullptr, nullptr); }
ContentRef ContentModel::sym(Symbol S) { return make(Sym, S, nullptr, nullptr); }
ContentRef ContentModel::seq(ContentRef A, ContentRef B) {
  return make(Seq, 0, std::move(A), std::move(B));
}
ContentRef ContentModel::choice(ContentRef A, ContentRef B) {
  return make(Choice, 0, std::move(A), std::move(B));
}
ContentRef ContentModel::star(ContentRef A) {
  return make(Star, 0, std::move(A), nullptr);
}
ContentRef ContentModel::plus(ContentRef A) {
  return make(Plus, 0, std::move(A), nullptr);
}
ContentRef ContentModel::opt(ContentRef A) {
  return make(Opt, 0, std::move(A), nullptr);
}

std::vector<Symbol> xsa::contentSymbols(const ContentRef &C) {
  std::set<Symbol> Set;
  auto Rec = [&](auto &&Self, const ContentRef &R) -> void {
    switch (R->K) {
    case ContentModel::Sym:
      Set.insert(R->S);
      return;
    case ContentModel::Seq:
    case ContentModel::Choice:
      Self(Self, R->A);
      Self(Self, R->B);
      return;
    case ContentModel::Star:
    case ContentModel::Plus:
    case ContentModel::Opt:
      Self(Self, R->A);
      return;
    case ContentModel::Eps:
      return;
    }
  };
  Rec(Rec, C);
  return std::vector<Symbol>(Set.begin(), Set.end());
}

namespace {

/// Classic first/last/follow computation with positions numbered in
/// left-to-right order.
struct GlushkovBuilder {
  Glushkov G;

  struct Info {
    std::vector<int> First, Last;
    bool Nullable;
  };

  Info build(const ContentRef &C) {
    switch (C->K) {
    case ContentModel::Eps:
      return {{}, {}, true};
    case ContentModel::Sym: {
      G.PosSym.push_back(C->S);
      G.Follow.emplace_back();
      int P = static_cast<int>(G.PosSym.size());
      return {{P}, {P}, false};
    }
    case ContentModel::Seq: {
      Info A = build(C->A);
      Info B = build(C->B);
      for (int L : A.Last)
        for (int F : B.First)
          G.Follow[L - 1].push_back(F);
      Info R;
      R.First = A.First;
      if (A.Nullable)
        R.First.insert(R.First.end(), B.First.begin(), B.First.end());
      R.Last = B.Last;
      if (B.Nullable)
        R.Last.insert(R.Last.end(), A.Last.begin(), A.Last.end());
      R.Nullable = A.Nullable && B.Nullable;
      return R;
    }
    case ContentModel::Choice: {
      Info A = build(C->A);
      Info B = build(C->B);
      Info R;
      R.First = A.First;
      R.First.insert(R.First.end(), B.First.begin(), B.First.end());
      R.Last = A.Last;
      R.Last.insert(R.Last.end(), B.Last.begin(), B.Last.end());
      R.Nullable = A.Nullable || B.Nullable;
      return R;
    }
    case ContentModel::Star:
    case ContentModel::Plus: {
      Info A = build(C->A);
      for (int L : A.Last)
        for (int F : A.First)
          G.Follow[L - 1].push_back(F);
      A.Nullable = A.Nullable || C->K == ContentModel::Star;
      return A;
    }
    case ContentModel::Opt: {
      Info A = build(C->A);
      A.Nullable = true;
      return A;
    }
    }
    return {{}, {}, true};
  }
};

void dedupSort(std::vector<int> &V) {
  std::set<int> S(V.begin(), V.end());
  V.assign(S.begin(), S.end());
}

} // namespace

Glushkov xsa::buildGlushkov(const ContentRef &C) {
  GlushkovBuilder B;
  GlushkovBuilder::Info Top = B.build(C);
  B.G.First = Top.First;
  dedupSort(B.G.First);
  B.G.NullableRoot = Top.Nullable;
  B.G.Last.assign(B.G.PosSym.size(), false);
  for (int L : Top.Last)
    B.G.Last[L - 1] = true;
  for (auto &F : B.G.Follow)
    dedupSort(F);
  return B.G;
}

bool xsa::glushkovMatches(const Glushkov &G, const std::vector<Symbol> &Word) {
  std::set<int> States{0};
  for (Symbol S : Word) {
    std::set<int> Next;
    for (int Q : States)
      for (int P : G.transitions(Q))
        if (G.symbolOf(P) == S)
          Next.insert(P);
    if (Next.empty())
      return false;
    States = std::move(Next);
  }
  for (int Q : States)
    if (G.accepting(Q))
      return true;
  return false;
}

namespace {

void printContent(const ContentRef &C, std::ostringstream &OS) {
  switch (C->K) {
  case ContentModel::Eps:
    OS << "EMPTY";
    return;
  case ContentModel::Sym:
    OS << symbolName(C->S);
    return;
  case ContentModel::Seq:
    OS << "(";
    printContent(C->A, OS);
    OS << ", ";
    printContent(C->B, OS);
    OS << ")";
    return;
  case ContentModel::Choice:
    OS << "(";
    printContent(C->A, OS);
    OS << " | ";
    printContent(C->B, OS);
    OS << ")";
    return;
  case ContentModel::Star:
    printContent(C->A, OS);
    OS << "*";
    return;
  case ContentModel::Plus:
    printContent(C->A, OS);
    OS << "+";
    return;
  case ContentModel::Opt:
    printContent(C->A, OS);
    OS << "?";
    return;
  }
}

} // namespace

std::string xsa::toString(const ContentRef &C) {
  std::ostringstream OS;
  printContent(C, OS);
  return OS.str();
}
