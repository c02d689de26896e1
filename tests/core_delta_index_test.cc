// The one in-memory tier: DeltaIndex's own surface, and the paper's
// "searched simultaneously with the larger index" through LiveIndex —
// undrained documents answer queries, merged with the on-disk lists.
#include "core/delta_index.h"

#include <gtest/gtest.h>

#include "core/live_index.h"
#include "core/sharded_index.h"
#include "ir/query_executor.h"

namespace duplex::core {
namespace {

// Inverts `texts` from doc `first` against `vocabulary` and inserts them
// into `delta` as one unlogged live batch.
void InsertTexts(DeltaIndex& delta, text::Vocabulary& vocabulary,
                 DocId first, const std::vector<std::string>& texts) {
  DocId next = first;
  const text::InvertedBatch batch =
      text::BatchInverter(text::Tokenizer(), &vocabulary).Invert(texts,
                                                                 &next);
  std::vector<std::string> words;
  for (const text::InvertedBatch::Entry& entry : batch.entries) {
    words.push_back(vocabulary.WordFor(entry.word));
  }
  delta.Insert(batch, words, first, static_cast<uint32_t>(texts.size()),
               /*logged=*/false, 0);
}

TEST(DeltaIndexTest, AddAndFind) {
  text::Vocabulary vocabulary;
  DeltaIndex index(1);
  EXPECT_TRUE(index.empty());
  InsertTexts(index, vocabulary, 0, {"cat dog", "cat"});
  EXPECT_EQ(index.document_count(), 2u);
  EXPECT_EQ(index.total_postings(), 3u);
  EXPECT_EQ(index.next_doc_id(), 2u);
  const WordId cat = vocabulary.Lookup("cat");
  EXPECT_EQ(index.Locate(cat).postings, 2u);
  EXPECT_EQ(index.Locate(cat).chunks, 0u);  // in memory: no chunk reads
  EXPECT_EQ(*index.GetPostings(cat), (std::vector<DocId>{0, 1}));
  EXPECT_EQ(*index.GetPostings("dog"), (std::vector<DocId>{0}));
  EXPECT_FALSE(index.Locate(WordId{9999}).exists);
  EXPECT_TRUE(index.GetPostings("bird").status().IsNotFound());
  size_t words = 0;
  index.ForEachWord([&](WordId) { ++words; });
  EXPECT_EQ(words, 2u);
}

TEST(DeltaIndexTest, WordlessDocumentStillCounts) {
  text::Vocabulary vocabulary;
  DeltaIndex index(1);
  InsertTexts(index, vocabulary, 0, {"... !!!"});
  EXPECT_FALSE(index.empty());
  EXPECT_EQ(index.document_count(), 1u);
  EXPECT_EQ(index.total_postings(), 0u);
  EXPECT_EQ(index.next_doc_id(), 1u);
}

TEST(DeltaIndexDeathTest, OutOfOrderDocsCheck) {
  text::Vocabulary vocabulary;
  DeltaIndex index(1);
  InsertTexts(index, vocabulary, 5, {"cat"});
  EXPECT_DEATH(InsertTexts(index, vocabulary, 5, {"cat"}), "CHECK failed");
}

// --- Undrained documents through the full index ----------------------------
// (one shard is the paper's single index)

ShardedIndexOptions Options() {
  IndexOptions o;
  o.buckets.num_buckets = 8;
  o.buckets.bucket_capacity = 32;
  o.policy = Policy::NewZ();
  o.block_postings = 10;
  o.disks.num_disks = 2;
  o.disks.blocks_per_disk = 1 << 16;
  o.disks.block_size_bytes = 80;
  o.materialize = true;
  return ShardedIndexOptions::Partition(o, 1);
}

Result<std::vector<DocId>> Postings(const LiveIndex& live,
                                    std::string_view word) {
  return live.AcquireView().reader().GetPostings(word);
}

TEST(BufferedSearchTest, UnflushedDocumentsAreSearchable) {
  ShardedIndex index(Options());
  LiveIndex live(&index, nullptr);
  ASSERT_TRUE(live.SubmitLive({"fresh news article"}).ok());
  // No drain yet: the in-memory batch is searched with the (empty) index.
  Result<std::vector<DocId>> docs = Postings(live, "fresh");
  ASSERT_TRUE(docs.ok()) << docs.status();
  EXPECT_EQ(*docs, (std::vector<DocId>{0}));
}

TEST(BufferedSearchTest, MergesDiskAndMemoryPostings) {
  ShardedIndex index(Options());
  LiveIndex live(&index, nullptr);
  ASSERT_TRUE(live.SubmitBatch({"shared alpha", "shared beta"}).ok());
  ASSERT_TRUE(live.SubmitLive({"shared gamma"}).ok());  // delta only
  Result<std::vector<DocId>> docs = Postings(live, "shared");
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(*docs, (std::vector<DocId>{0, 1, 2}));
  // Boolean queries see the merged view too.
  LiveIndex::ReadView view = live.AcquireView();
  Result<ir::QueryResult> r =
      ir::QueryExecutor(view.reader()).EvaluateBoolean("shared AND gamma");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->docs, (std::vector<DocId>{2}));
}

TEST(BufferedSearchTest, FlushPreservesResults) {
  ShardedIndex index(Options());
  LiveIndex live(&index, nullptr);
  ASSERT_TRUE(live.SubmitLive({"stable words here"}).ok());
  Result<std::vector<DocId>> before = Postings(live, "stable");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(live.DrainAll().ok());
  Result<std::vector<DocId>> after = Postings(live, "stable");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
  EXPECT_EQ(live.GetDeltaStatus().active_docs, 0u);
  // With the delta empty the view is the on-disk index itself.
  EXPECT_EQ(&live.AcquireView().reader(), &index);
}

TEST(BufferedSearchTest, DeletionFiltersBufferedDocs) {
  ShardedIndex index(Options());
  LiveIndex live(&index, nullptr);
  Result<LiveIndex::SubmitReceipt> receipt = live.SubmitLive({"ephemeral"});
  ASSERT_TRUE(receipt.ok());
  live.DeleteDocument(receipt->first_doc);
  Result<std::vector<DocId>> docs = Postings(live, "ephemeral");
  ASSERT_TRUE(docs.ok());
  EXPECT_TRUE(docs->empty());
}

TEST(BufferedSearchTest, WordlessDocsKeepIdsSequential) {
  ShardedIndex index(Options());
  EXPECT_EQ(index.AddDocument("first real"), 0u);
  EXPECT_EQ(index.AddDocument("..."), 1u);  // tokenless
  EXPECT_EQ(index.AddDocument("third"), 2u);
  ASSERT_TRUE(index.FlushDocuments().ok());
  EXPECT_EQ(index.next_doc_id(), 3u);
  EXPECT_EQ(index.AddDocument("fourth"), 3u);
}

}  // namespace
}  // namespace duplex::core
