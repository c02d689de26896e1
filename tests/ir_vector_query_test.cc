#include "ir/vector_query.h"

#include <gtest/gtest.h>

#include "core/sharded_index.h"
#include "ir/query_executor.h"

namespace duplex::ir {
namespace {

class VectorQueryTest : public ::testing::Test {
 protected:
  VectorQueryTest()
      : index_(core::ShardedIndexOptions::Partition(Options(), 1)) {
    index_.AddDocument("apple banana cherry");  // 0
    index_.AddDocument("apple banana");         // 1
    index_.AddDocument("apple");                // 2
    index_.AddDocument("durian");               // 3
    EXPECT_TRUE(index_.FlushDocuments().ok());
  }

  static core::IndexOptions Options() {
    core::IndexOptions o;
    o.buckets.num_buckets = 8;
    o.buckets.bucket_capacity = 64;
    o.policy = core::Policy::NewZ();
    o.block_postings = 8;
    o.disks.num_disks = 2;
    o.disks.blocks_per_disk = 1 << 16;
    o.disks.block_size_bytes = 64;
    o.materialize = true;
    return o;
  }

  core::ShardedIndex index_;
};

TEST_F(VectorQueryTest, RanksByAccumulatedWeightTimesIdf) {
  VectorQuery q;
  q.terms = {{"apple", 1.0}, {"banana", 1.0}, {"cherry", 1.0}};
  Result<VectorQueryResult> r = QueryExecutor(index_).EvaluateVector(q, 10, 4);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->top.size(), 3u);
  // Doc 0 matches all three terms, doc 1 two, doc 2 one.
  EXPECT_EQ(r->top[0].doc, 0u);
  EXPECT_EQ(r->top[1].doc, 1u);
  EXPECT_EQ(r->top[2].doc, 2u);
  EXPECT_GT(r->top[0].score, r->top[1].score);
  EXPECT_GT(r->top[1].score, r->top[2].score);
}

TEST_F(VectorQueryTest, RareTermsScoreHigherThanCommonOnes) {
  // cherry (df=1) must outweigh apple (df=3) for equal weights.
  VectorQuery q;
  q.terms = {{"apple", 1.0}, {"cherry", 1.0}};
  Result<VectorQueryResult> r = QueryExecutor(index_).EvaluateVector(q, 10, 4);
  ASSERT_TRUE(r.ok());
  double apple_only_score = 0;
  double cherry_plus_apple = 0;
  for (const ScoredDoc& d : r->top) {
    if (d.doc == 2) apple_only_score = d.score;
    if (d.doc == 0) cherry_plus_apple = d.score;
  }
  EXPECT_GT(cherry_plus_apple, 2 * apple_only_score);
}

TEST_F(VectorQueryTest, WeightsScaleContributions) {
  VectorQuery q;
  q.terms = {{"banana", 5.0}, {"durian", 0.1}};
  Result<VectorQueryResult> r = QueryExecutor(index_).EvaluateVector(q, 10, 4);
  ASSERT_TRUE(r.ok());
  // Banana docs (0, 1) must beat the durian doc (3) despite durian's idf.
  EXPECT_TRUE(r->top[0].doc == 0 || r->top[0].doc == 1);
}

TEST_F(VectorQueryTest, TopKTruncates) {
  VectorQuery q;
  q.terms = {{"apple", 1.0}};
  Result<VectorQueryResult> r = QueryExecutor(index_).EvaluateVector(q, 2, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->top.size(), 2u);
}

TEST_F(VectorQueryTest, MissingTermsCountedNotFatal) {
  VectorQuery q;
  q.terms = {{"apple", 1.0}, {"zzz", 1.0}};
  Result<VectorQueryResult> r = QueryExecutor(index_).EvaluateVector(q, 10, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->missing_terms, 1u);
  EXPECT_FALSE(r->top.empty());
}

TEST_F(VectorQueryTest, EmptyQueryYieldsNothing) {
  VectorQuery q;
  Result<VectorQueryResult> r = QueryExecutor(index_).EvaluateVector(q, 10, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->top.empty());
  EXPECT_EQ(r->read_ops, 0u);
}

TEST_F(VectorQueryTest, TieBreaksOnDocId) {
  VectorQuery q;
  q.terms = {{"banana", 1.0}};
  Result<VectorQueryResult> r = QueryExecutor(index_).EvaluateVector(q, 10, 4);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->top.size(), 2u);
  EXPECT_EQ(r->top[0].doc, 0u);  // equal scores: ascending doc id
  EXPECT_EQ(r->top[1].doc, 1u);
}

TEST_F(VectorQueryTest, DeletedDocsExcluded) {
  index_.DeleteDocument(0);
  VectorQuery q;
  q.terms = {{"apple", 1.0}};
  Result<VectorQueryResult> r = QueryExecutor(index_).EvaluateVector(q, 10, 4);
  ASSERT_TRUE(r.ok());
  for (const ScoredDoc& d : r->top) EXPECT_NE(d.doc, 0u);
}

}  // namespace
}  // namespace duplex::ir
