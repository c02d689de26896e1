// The benchmark's own tests: the percentile selector, the oracle and the
// open-loop lateness accounting.
#include <gtest/gtest.h>

#include <numeric>

#include "corpus.h"
#include "loadgen.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PercentileSelector, KeepsTenSamplesBeyondTheTail) {
  EXPECT_EQ(SelectTailPercentile(1000), 99.0);
  EXPECT_EQ(SelectTailPercentile(100000), 99.0);
  EXPECT_EQ(SelectTailPercentile(500), 98.0);
  EXPECT_EQ(SelectTailPercentile(200), 95.0);
  EXPECT_EQ(SelectTailPercentile(20), 50.0);
  EXPECT_EQ(SelectTailPercentile(19), 0.0);  // no tail above the median
  for (size_t n : {20u, 37u, 200u, 999u, 1000u, 4321u}) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    const double p = SelectTailPercentile(n);
    const double tail = NearestRank(v, p);
    size_t beyond = 0;
    for (const double x : v) beyond += x > tail ? 1 : 0;
    EXPECT_GE(beyond, kTailBeyond) << "n=" << n << " p=" << p;
  }
}

TEST(PercentileSelector, SummaryReportsSampleCountAndPercentile) {
  std::vector<double> v(500);
  std::iota(v.begin(), v.end(), 1.0);
  const Summary s = Summarize(v);
  EXPECT_TRUE(s.valid);
  EXPECT_EQ(s.samples, 500u);
  EXPECT_EQ(s.median, 250.0);
  EXPECT_EQ(s.tail_pct, 98.0);
  EXPECT_EQ(s.tail, 490.0);
  EXPECT_FALSE(Summarize({1, 2, 3}).valid);
}

TEST(PercentileSelector, OneStalledGroupDoesNotMoveTheTail) {
  std::vector<double> v;
  for (int g = 0; g < 5; ++g) {
    for (int i = 1; i <= 1000; ++i) v.push_back(i);
  }
  const Summary steady = Summarize(v);
  EXPECT_EQ(steady.groups, 5u);
  EXPECT_EQ(steady.tail_pct, 99.0);
  EXPECT_EQ(steady.tail, 990.0);
  // A stall inflates the tail of one group only.
  for (int i = 0; i < 100; ++i) v[2000 + i * 10] = 1e6;
  const Summary stalled = Summarize(v);
  EXPECT_EQ(stalled.tail, 990.0);
  EXPECT_EQ(stalled.whole_tail, 1e6);
}

class OracleTest : public ::testing::Test {
 protected:
  OracleTest() : corpus_(3, 40) {
    corpus_.AddDay(0);
    corpus_.AddDay(1);
    corpus_.BuildOracle();
    ranked_ = corpus_.RankWords(corpus_.size());
  }

  // Frequent enough to match several documents, rare enough to miss some.
  Query OrQuery() {
    Query q;
    q.kind = QueryKind::kOr;
    q.keys = {ranked_[4], ranked_[9]};
    return q;
  }

  std::vector<DocId> Expected(const Query& q) {
    std::vector<DocId> out;
    for (DocId d = 0; d < corpus_.size(); ++d) {
      if (corpus_.Contains(d, q.keys[0]) || corpus_.Contains(d, q.keys[1])) {
        out.push_back(d);
      }
    }
    return out;
  }

  Corpus corpus_;
  std::vector<uint64_t> ranked_;
};

TEST_F(OracleTest, AcceptsTheRightAnswerAndCatchesWrongOnes) {
  const Query q = OrQuery();
  const std::vector<DocId> right = Expected(q);
  ASSERT_GT(right.size(), 2u);
  const Horizon all{corpus_.size(), corpus_.size()};
  EXPECT_EQ(CheckBoolean(corpus_, q, right, all), "");

  std::vector<DocId> missing = right;
  missing.pop_back();
  EXPECT_NE(CheckBoolean(corpus_, q, missing, all), "");

  std::vector<DocId> extra = right;
  for (DocId d = 0; d < corpus_.size(); ++d) {
    if (!std::binary_search(right.begin(), right.end(), d)) {
      extra.insert(std::upper_bound(extra.begin(), extra.end(), d), d);
      break;
    }
  }
  ASSERT_GT(extra.size(), right.size());
  EXPECT_NE(CheckBoolean(corpus_, q, extra, all), "");

  std::vector<DocId> unsorted = right;
  std::swap(unsorted[0], unsorted[1]);
  EXPECT_NE(CheckBoolean(corpus_, q, unsorted, all), "");
}

TEST_F(OracleTest, InFlightDocumentsMayBeMissingButNeverWrong) {
  const Query q = OrQuery();
  const std::vector<DocId> right = Expected(q);
  const DocId floor = right[right.size() / 2];
  const Horizon in_flight{floor, corpus_.size()};
  std::vector<DocId> acked_only;
  for (const DocId d : right) {
    if (d < floor) acked_only.push_back(d);
  }
  EXPECT_EQ(CheckBoolean(corpus_, q, acked_only, in_flight), "");
  EXPECT_EQ(CheckBoolean(corpus_, q, right, in_flight), "");
  // Dropping an acked match is wrong even while others are in flight.
  std::vector<DocId> lost(acked_only.begin() + 1, acked_only.end());
  EXPECT_NE(CheckBoolean(corpus_, q, lost, in_flight), "");
  // A document that was never submitted must not appear.
  const Horizon before_last{floor, right.back()};
  EXPECT_NE(CheckBoolean(corpus_, q, right, before_last), "");
}

TEST_F(OracleTest, ExpectedBooleanAgreesWithADocumentScan) {
  for (const QueryKind kind : {QueryKind::kAnd, QueryKind::kOr}) {
    Query q = OrQuery();
    q.kind = kind;
    q.keys = {ranked_[0], ranked_[2]};
    const DocId end = corpus_.size() - 7;
    std::vector<DocId> scanned;
    for (DocId d = 0; d < end; ++d) {
      const bool a = corpus_.Contains(d, q.keys[0]);
      const bool b = corpus_.Contains(d, q.keys[1]);
      if (kind == QueryKind::kAnd ? a && b : a || b) scanned.push_back(d);
    }
    ASSERT_FALSE(scanned.empty());
    EXPECT_EQ(ExpectedBoolean(corpus_, q, end), scanned);
  }
}

TEST_F(OracleTest, VectorTopKIsExactWhenQuiescent) {
  Query q;
  q.kind = QueryKind::kVector;
  q.keys = {ranked_[0], ranked_[3], ranked_[10]};
  q.weights = {1.0, 2.0, 1.5};
  const Horizon all{corpus_.size(), corpus_.size()};
  // Score by hand: weight * log(1 + N/df) per matching term.
  std::vector<duplex::ir::ScoredDoc> scored;
  for (DocId d = 0; d < corpus_.size(); ++d) {
    double score = 0;
    for (size_t t = 0; t < q.keys.size(); ++t) {
      const double df = static_cast<double>(corpus_.Postings(q.keys[t]).size());
      if (corpus_.Contains(d, q.keys[t])) {
        score += q.weights[t] * std::log(1.0 + corpus_.size() / df);
      }
    }
    if (score > 0) scored.push_back({d, score});
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    return a.score != b.score ? a.score > b.score : a.doc < b.doc;
  });
  scored.resize(std::min(scored.size(), kTopK));
  EXPECT_EQ(CheckVector(corpus_, q, scored, all), "");
  auto wrong = scored;
  std::swap(wrong[0].doc, wrong.back().doc);
  EXPECT_NE(CheckVector(corpus_, q, wrong, all), "");
}

TEST(Lateness, LatencyCountsFromTheDueTime) {
  // A request due at 1 ms, sent late at 1.3 ms, answered at 2 ms waited
  // 1 ms, not the 0.7 ms a send-time clock would report.
  const RequestTiming t{1'000'000, 1'300'000, 2'000'000};
  EXPECT_DOUBLE_EQ(LatencyUs(t), 1000.0);
  EXPECT_DOUBLE_EQ(LatenessUs(t), 300.0);
}

TEST(Lateness, LateGeneratorMakesThePhaseInvalid) {
  std::vector<RequestTiming> on_time(2000);
  for (size_t i = 0; i < on_time.size(); ++i) {
    on_time[i] = {i * 1000, i * 1000 + 20, i * 1000 + 500};
  }
  EXPECT_TRUE(JudgeLateness(on_time).valid);
  std::vector<RequestTiming> late = on_time;
  for (size_t i = 0; i < 100; ++i) late[i * 20].send_ns += 5'000'000;
  const LatenessVerdict verdict = JudgeLateness(late);
  EXPECT_FALSE(verdict.valid);
  EXPECT_GT(verdict.lateness_us.tail, verdict.bound_us);
  EXPECT_FALSE(JudgeLateness({}).valid);
}

TEST(Lateness, BoundScalesWithTheLatencyItMeasures) {
  // 3 ms late at the tail is fine against a 20 ms latency tail, not
  // against a 3.2 ms one, where the generator would set the tail.
  std::vector<RequestTiming> slow_server(2000);
  std::vector<RequestTiming> fast_server(2000);
  for (size_t i = 0; i < slow_server.size(); ++i) {
    const uint64_t due = i * 1'000'000;
    const uint64_t late = i % 20 == 0 ? 3'000'000 : 10'000;
    slow_server[i] = {due, due + late, due + late + 17'000'000};
    fast_server[i] = {due, due + late, due + late + 200'000};
  }
  EXPECT_TRUE(JudgeLateness(slow_server).valid);
  EXPECT_FALSE(JudgeLateness(fast_server).valid);
}

TEST(Lateness, PoissonScheduleIsSeededAndPaced) {
  const auto a = PoissonSchedule(1000, 2.0, 5);
  EXPECT_EQ(a, PoissonSchedule(1000, 2.0, 5));
  EXPECT_NE(a, PoissonSchedule(1000, 2.0, 6));
  EXPECT_NEAR(static_cast<double>(a.size()), 2000, 200);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 2'000'000'000u);
}

}  // namespace
}  // namespace perfbench
