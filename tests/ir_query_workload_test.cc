#include "ir/query_workload.h"

#include <gtest/gtest.h>

#include <set>

#include "core/sharded_index.h"
#include "text/batch.h"

namespace duplex::ir {
namespace {

// Builds a count-only index with one very frequent word (0) that gets a
// long list and many rare words that stay in buckets.
class QueryWorkloadTest : public ::testing::Test {
 protected:
  QueryWorkloadTest()
      : index_(core::ShardedIndexOptions::Partition(Options(), 1)) {
    text::BatchUpdate batch;
    batch.pairs.push_back({0, 500});  // frequent word -> long list
    for (WordId w = 1; w <= 60; ++w) batch.pairs.push_back({w, 2});
    EXPECT_TRUE(index_.ApplyBatchUpdate(batch).ok());
  }

  static core::IndexOptions Options() {
    core::IndexOptions o;
    o.buckets.num_buckets = 16;
    o.buckets.bucket_capacity = 64;
    o.policy = core::Policy::New0();
    o.block_postings = 8;
    o.disks.num_disks = 2;
    o.disks.blocks_per_disk = 1 << 16;
    return o;
  }

  core::ShardedIndex index_;
};

TEST_F(QueryWorkloadTest, SnapshotsWholeVocabulary) {
  QueryWorkloadGenerator gen(index_, 1);
  EXPECT_EQ(gen.vocabulary_size(), 61u);
}

TEST_F(QueryWorkloadTest, BooleanTermsAreValidWords) {
  QueryWorkloadGenerator gen(index_, 2);
  const std::vector<WordId> terms = gen.SampleBooleanTerms(5);
  EXPECT_LE(terms.size(), 5u);
  EXPECT_FALSE(terms.empty());
  for (const WordId w : terms) {
    EXPECT_TRUE(index_.Locate(w).exists);
  }
}

TEST_F(QueryWorkloadTest, BooleanSamplingIsMostlyRareWords) {
  // Uniform sampling over a vocabulary dominated by rare words: the
  // frequent word 0 should almost never dominate the sample.
  QueryWorkloadGenerator gen(index_, 3);
  int frequent_hits = 0;
  int total = 0;
  for (int i = 0; i < 200; ++i) {
    for (const WordId w : gen.SampleBooleanTerms(4)) {
      ++total;
      if (w == 0) ++frequent_hits;
    }
  }
  EXPECT_LT(static_cast<double>(frequent_hits) / total, 0.10);
}

TEST_F(QueryWorkloadTest, VectorSamplingIsMostlyFrequentWords) {
  // Frequency-proportional sampling: word 0 holds 500 of 620 postings and
  // must dominate vector-query terms (paper: vector queries contain the
  // frequently appearing words).
  QueryWorkloadGenerator gen(index_, 4);
  int frequent_hits = 0;
  int total = 0;
  for (int i = 0; i < 200; ++i) {
    const std::vector<WordId> terms = gen.SampleVectorTerms(8);
    // Dedup means word 0 appears at most once per query.
    for (const WordId w : terms) {
      ++total;
      if (w == 0) ++frequent_hits;
    }
    EXPECT_FALSE(terms.empty());
  }
  EXPECT_GT(frequent_hits, 150);  // word 0 present in ~every query
}

TEST_F(QueryWorkloadTest, SamplesAreSortedUnique) {
  QueryWorkloadGenerator gen(index_, 5);
  for (int i = 0; i < 20; ++i) {
    const std::vector<WordId> terms = gen.SampleVectorTerms(10);
    std::set<WordId> unique(terms.begin(), terms.end());
    EXPECT_EQ(unique.size(), terms.size());
    EXPECT_TRUE(std::is_sorted(terms.begin(), terms.end()));
  }
}

TEST_F(QueryWorkloadTest, CostCountsChunksAndLongLists) {
  QueryWorkloadGenerator gen(index_, 6);
  const auto cost = gen.EstimateCost({0, 1});
  EXPECT_GE(cost.read_ops, 2u);
  EXPECT_EQ(cost.long_lists, 1u);
  EXPECT_EQ(cost.postings, 502u);
}

TEST_F(QueryWorkloadTest, CostIgnoresUnknownWords) {
  QueryWorkloadGenerator gen(index_, 7);
  const auto cost = gen.EstimateCost({9999});
  EXPECT_EQ(cost.read_ops, 0u);
  EXPECT_EQ(cost.postings, 0u);
}

TEST_F(QueryWorkloadTest, DeterministicForSeed) {
  QueryWorkloadGenerator a(index_, 42);
  QueryWorkloadGenerator b(index_, 42);
  EXPECT_EQ(a.SampleVectorTerms(6), b.SampleVectorTerms(6));
  EXPECT_EQ(a.SampleBooleanTerms(3), b.SampleBooleanTerms(3));
}

}  // namespace
}  // namespace duplex::ir
