#include "core/inverted_index.h"

#include <gtest/gtest.h>

#include "core/sharded_index.h"

namespace duplex::core {
namespace {

IndexOptions SmallOptions(const Policy& policy, bool materialize = false) {
  IndexOptions o;
  o.buckets.num_buckets = 8;
  o.buckets.bucket_capacity = 32;
  o.policy = policy;
  o.block_postings = 10;
  o.bucket_unit_bytes = 16;
  o.disks.num_disks = 2;
  o.disks.blocks_per_disk = 1 << 16;
  o.disks.block_size_bytes = 80;
  o.materialize = materialize;
  return o;
}

// The document path (buffer, vocabulary, deletion set) is index-wide
// state: it runs through a one-shard ShardedIndex over the same store.
ShardedIndexOptions OneShard(const IndexOptions& store) {
  return ShardedIndexOptions::Partition(store, 1);
}

text::BatchUpdate Batch(std::vector<text::WordCount> pairs) {
  text::BatchUpdate b;
  b.pairs = std::move(pairs);
  return b;
}

TEST(InvertedIndexTest, SmallListsStayInBuckets) {
  InvertedIndex index(SmallOptions(Policy::NewZ()));
  ASSERT_TRUE(index.ApplyBatchUpdate(Batch({{1, 3}, {2, 5}})).ok());
  EXPECT_EQ(index.Stats().bucket_words, 2u);
  EXPECT_EQ(index.Stats().long_words, 0u);
  EXPECT_EQ(index.Stats().total_postings, 8u);
  const auto loc = index.Locate(WordId{1});
  EXPECT_TRUE(loc.exists);
  EXPECT_FALSE(loc.is_long);
  EXPECT_EQ(loc.chunks, 1u);
  EXPECT_EQ(loc.postings, 3u);
}

TEST(InvertedIndexTest, OverflowPromotesToLongList) {
  InvertedIndex index(SmallOptions(Policy::NewZ()));
  // Word 1 exceeds its bucket capacity (32 units) on its own.
  ASSERT_TRUE(index.ApplyBatchUpdate(Batch({{1, 40}})).ok());
  const IndexStats stats = index.Stats();
  EXPECT_EQ(stats.long_words, 1u);
  EXPECT_EQ(stats.bucket_words, 0u);
  const auto loc = index.Locate(WordId{1});
  EXPECT_TRUE(loc.is_long);
  EXPECT_EQ(loc.postings, 40u);
}

TEST(InvertedIndexTest, LongWordBypassesBucketsAfterPromotion) {
  InvertedIndex index(SmallOptions(Policy::NewZ()));
  ASSERT_TRUE(index.ApplyBatchUpdate(Batch({{1, 40}})).ok());
  const uint64_t evictions_before = index.bucket_store().evictions();
  ASSERT_TRUE(index.ApplyBatchUpdate(Batch({{1, 5}})).ok());
  // The second update appends directly to the long list: no bucket
  // traffic, no new evictions.
  EXPECT_EQ(index.bucket_store().evictions(), evictions_before);
  EXPECT_EQ(index.Locate(WordId{1}).postings, 45u);
  EXPECT_EQ(index.long_list_store().counters().appends_to_existing, 1u);
}

TEST(InvertedIndexTest, CategoriesTrackNewBucketLong) {
  InvertedIndex index(SmallOptions(Policy::NewZ()));
  ASSERT_TRUE(index.ApplyBatchUpdate(Batch({{1, 40}, {2, 3}})).ok());
  ASSERT_TRUE(index.ApplyBatchUpdate(Batch({{1, 5}, {2, 2}, {3, 1}})).ok());
  const auto& cats = index.update_categories();
  ASSERT_EQ(cats.size(), 2u);
  EXPECT_EQ(cats[0].new_words, 2u);
  EXPECT_EQ(cats[0].bucket_words, 0u);
  EXPECT_EQ(cats[0].long_words, 0u);
  EXPECT_EQ(cats[1].new_words, 1u);     // word 3
  EXPECT_EQ(cats[1].bucket_words, 1u);  // word 2
  EXPECT_EQ(cats[1].long_words, 1u);    // word 1
  EXPECT_EQ(cats[1].total(), 3u);
}

TEST(InvertedIndexTest, ZeroCountPairsIgnored) {
  InvertedIndex index(SmallOptions(Policy::NewZ()));
  ASSERT_TRUE(index.ApplyBatchUpdate(Batch({{1, 0}, {2, 1}})).ok());
  EXPECT_FALSE(index.Locate(WordId{1}).exists);
  EXPECT_EQ(index.update_categories()[0].total(), 1u);
}

TEST(InvertedIndexTest, TraceHasOneUpdatePerBatch) {
  InvertedIndex index(SmallOptions(Policy::NewZ()));
  ASSERT_TRUE(index.ApplyBatchUpdate(Batch({{1, 2}})).ok());
  ASSERT_TRUE(index.ApplyBatchUpdate(Batch({{1, 2}})).ok());
  EXPECT_EQ(index.trace().update_count(), 2u);
  // Each batch flush writes the bucket region on every disk.
  uint64_t bucket_writes = 0;
  for (const auto& e : index.trace().events()) {
    if (e.tag == storage::IoTag::kBucket) ++bucket_writes;
  }
  EXPECT_EQ(bucket_writes, 2u * 2u);  // 2 updates x 2 disks
}

TEST(InvertedIndexTest, MetaFlushReusesSpaceSteadyState) {
  InvertedIndex index(SmallOptions(Policy::NewZ()));
  ASSERT_TRUE(index.ApplyBatchUpdate(Batch({{1, 2}})).ok());
  const uint64_t used_after_first = index.disks().total_used_blocks();
  // Without long-list growth, shadow-paged bucket/directory flushes must
  // not leak disk space across batches.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(index.ApplyBatchUpdate(Batch({{1, 2}})).ok());
  }
  EXPECT_LE(index.disks().total_used_blocks(), used_after_first + 4);
}

TEST(InvertedIndexTest, CountOnlyIndexRejectsMaterializedBatch) {
  InvertedIndex index(SmallOptions(Policy::NewZ()));
  text::InvertedBatch batch;
  batch.entries = {{1, {0, 1}}};
  EXPECT_EQ(index.ApplyInvertedBatch(batch).code(),
            StatusCode::kFailedPrecondition);
}

TEST(InvertedIndexTest, MaterializedIndexRejectsCountBatch) {
  InvertedIndex index(SmallOptions(Policy::NewZ(), true));
  EXPECT_EQ(index.ApplyBatchUpdate(Batch({{1, 2}})).code(),
            StatusCode::kFailedPrecondition);
}

TEST(InvertedIndexTest, MaterializedPostingsFromBucketAndLongList) {
  InvertedIndex index(SmallOptions(Policy::NewZ(), true));
  text::InvertedBatch batch;
  std::vector<DocId> big;
  for (DocId d = 0; d < 40; ++d) big.push_back(d);
  batch.entries = {{1, big}, {2, {7, 9}}};
  ASSERT_TRUE(index.ApplyInvertedBatch(batch).ok());
  // Word 1 promoted to a long list; word 2 still in a bucket.
  Result<std::vector<DocId>> long_docs = index.GetPostings(WordId{1});
  ASSERT_TRUE(long_docs.ok());
  EXPECT_EQ(*long_docs, big);
  Result<std::vector<DocId>> short_docs = index.GetPostings(WordId{2});
  ASSERT_TRUE(short_docs.ok());
  EXPECT_EQ(*short_docs, (std::vector<DocId>{7, 9}));
  EXPECT_EQ(index.GetPostings(WordId{3}).status().code(),
            StatusCode::kNotFound);
}

TEST(InvertedIndexTest, AddDocumentFlow) {
  ShardedIndex index(OneShard(SmallOptions(Policy::NewZ(), true)));
  EXPECT_EQ(index.AddDocument("the cat sat"), 0u);
  EXPECT_EQ(index.AddDocument("the dog"), 1u);
  EXPECT_EQ(index.buffered_documents(), 2u);
  ASSERT_TRUE(index.FlushDocuments().ok());
  EXPECT_EQ(index.buffered_documents(), 0u);
  EXPECT_EQ(index.next_doc_id(), 2u);
  Result<std::vector<DocId>> the_docs = index.GetPostings("the");
  ASSERT_TRUE(the_docs.ok());
  EXPECT_EQ(*the_docs, (std::vector<DocId>{0, 1}));
  Result<std::vector<DocId>> cat_docs = index.GetPostings("cat");
  ASSERT_TRUE(cat_docs.ok());
  EXPECT_EQ(*cat_docs, (std::vector<DocId>{0}));
  EXPECT_EQ(index.GetPostings("bird").status().code(),
            StatusCode::kNotFound);
}

TEST(InvertedIndexTest, FlushWithNoDocumentsIsNoop) {
  ShardedIndex index(OneShard(SmallOptions(Policy::NewZ(), true)));
  ASSERT_TRUE(index.FlushDocuments().ok());
  EXPECT_EQ(index.Stats().updates_applied, 0u);
}

TEST(InvertedIndexTest, DeleteDocumentFiltersQueries) {
  ShardedIndex index(OneShard(SmallOptions(Policy::NewZ(), true)));
  index.AddDocument("apple banana");
  index.AddDocument("apple cherry");
  ASSERT_TRUE(index.FlushDocuments().ok());
  index.DeleteDocument(0);
  EXPECT_TRUE(index.IsDeleted(0));
  Result<std::vector<DocId>> docs = index.GetPostings("apple");
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(*docs, (std::vector<DocId>{1}));
}

TEST(InvertedIndexTest, SweepDeletionsRewritesLists) {
  ShardedIndex index(OneShard(SmallOptions(Policy::NewZ(), true)));
  // Build a long list for "hot" by repeating it across many documents.
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 15; ++i) index.AddDocument("hot word" +
                                                   std::to_string(i));
    ASSERT_TRUE(index.FlushDocuments().ok());
  }
  ASSERT_TRUE(index.Locate("hot").is_long);
  const uint64_t before = index.Locate("hot").postings;
  index.DeleteDocument(0);
  index.DeleteDocument(1);
  ASSERT_TRUE(index.SweepDeletions().ok());
  EXPECT_EQ(index.deleted_count(), 0u);
  EXPECT_EQ(index.Locate("hot").postings, before - 2);
  Result<std::vector<DocId>> docs = index.GetPostings("hot");
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(docs->front(), 2u);
}

TEST(InvertedIndexTest, SweepOnCountOnlyIndexFails) {
  ShardedIndex index(OneShard(SmallOptions(Policy::NewZ())));
  index.DeleteDocument(1);
  EXPECT_EQ(index.SweepDeletions().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InvertedIndexTest, GrowBucketsKeepsEveryWordQueryable) {
  InvertedIndex index(SmallOptions(Policy::NewZ()));
  ASSERT_TRUE(
      index.ApplyBatchUpdate(Batch({{1, 40}, {2, 3}, {3, 7}, {9, 2}})).ok());
  const uint64_t total_before = index.Stats().total_postings;
  ASSERT_TRUE(index.GrowBuckets(32, 64).ok());
  EXPECT_EQ(index.Stats().total_postings, total_before);
  EXPECT_EQ(index.Locate(WordId{2}).postings, 3u);
  EXPECT_EQ(index.Locate(WordId{1}).postings, 40u);
  // Growth composes with further updates.
  ASSERT_TRUE(index.ApplyBatchUpdate(Batch({{2, 4}})).ok());
  EXPECT_EQ(index.Locate(WordId{2}).postings, 7u);
}

TEST(InvertedIndexTest, AutoGrowTriggersOnOccupancy) {
  IndexOptions options = SmallOptions(Policy::NewZ());
  options.bucket_grow_threshold = 0.5;
  InvertedIndex index(options);
  // Fill the buckets beyond 50% occupancy: the next flush doubles them.
  text::BatchUpdate batch;
  for (WordId w = 0; w < 16; ++w) batch.pairs.push_back({w, 9});
  ASSERT_TRUE(index.ApplyBatchUpdate(batch).ok());
  EXPECT_GT(index.bucket_store().resizes(), 0u);
  EXPECT_GT(index.bucket_store().options().num_buckets,
            options.buckets.num_buckets);
  // Occupancy relieved below the threshold (or long lists absorbed it).
  EXPECT_LT(index.bucket_store().Occupancy(),
            options.bucket_grow_threshold + 0.01);
}

TEST(InvertedIndexTest, AutoGrowDisabledByDefault) {
  InvertedIndex index(SmallOptions(Policy::NewZ()));
  text::BatchUpdate batch;
  for (WordId w = 0; w < 16; ++w) batch.pairs.push_back({w, 9});
  ASSERT_TRUE(index.ApplyBatchUpdate(batch).ok());
  EXPECT_EQ(index.bucket_store().resizes(), 0u);
}

TEST(InvertedIndexTest, StatsInvariants) {
  InvertedIndex index(SmallOptions(Policy::NewZ()));
  ASSERT_TRUE(
      index.ApplyBatchUpdate(Batch({{1, 40}, {2, 3}, {3, 7}})).ok());
  const IndexStats s = index.Stats();
  EXPECT_EQ(s.total_postings, 50u);
  EXPECT_EQ(s.total_postings, s.bucket_postings + s.long_postings);
  EXPECT_LE(s.long_utilization, 1.0);
  EXPECT_GT(s.long_utilization, 0.0);
  EXPECT_EQ(s.updates_applied, 1u);
  EXPECT_GT(s.io_ops, 0u);
}

}  // namespace
}  // namespace duplex::core
