#include "core/memory_index.h"

#include <gtest/gtest.h>

#include "core/sharded_index.h"
#include "ir/query_executor.h"

namespace duplex::core {
namespace {

TEST(MemoryIndexTest, AddAndFind) {
  text::Tokenizer tokenizer;
  text::Vocabulary vocabulary;
  MemoryIndex index(&tokenizer, &vocabulary);
  EXPECT_TRUE(index.empty());
  index.AddDocument(0, "cat dog");
  index.AddDocument(1, "cat");
  EXPECT_EQ(index.document_count(), 2u);
  EXPECT_EQ(index.distinct_words(), 2u);
  EXPECT_EQ(index.total_postings(), 3u);
  const WordId cat = vocabulary.Lookup("cat");
  ASSERT_NE(index.Find(cat), nullptr);
  EXPECT_EQ(*index.Find(cat), (std::vector<DocId>{0, 1}));
  EXPECT_EQ(index.Find(9999), nullptr);
}

TEST(MemoryIndexTest, ClearResets) {
  text::Tokenizer tokenizer;
  text::Vocabulary vocabulary;
  MemoryIndex index(&tokenizer, &vocabulary);
  index.AddDocument(0, "cat");
  index.Clear();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.total_postings(), 0u);
  // Vocabulary survives the clear (ids are stable across batches).
  EXPECT_TRUE(vocabulary.Contains("cat"));
}

TEST(MemoryIndexTest, WordlessDocumentStillCounts) {
  text::Tokenizer tokenizer;
  text::Vocabulary vocabulary;
  MemoryIndex index(&tokenizer, &vocabulary);
  index.AddDocument(0, "... !!!");
  EXPECT_EQ(index.document_count(), 1u);
  EXPECT_EQ(index.total_postings(), 0u);
}

TEST(MemoryIndexDeathTest, OutOfOrderDocsCheck) {
  text::Tokenizer tokenizer;
  text::Vocabulary vocabulary;
  MemoryIndex index(&tokenizer, &vocabulary);
  index.AddDocument(5, "cat");
  EXPECT_DEATH(index.AddDocument(5, "cat"), "CHECK failed");
}

// --- Buffered-batch visibility through the full index --------------------
// (the index-wide document buffer lives in ShardedIndex; one shard is the
// paper's single index)

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

TEST(BufferedSearchTest, UnflushedDocumentsAreSearchable) {
  ShardedIndex index(Options());
  index.AddDocument("fresh news article");
  // No flush yet: the in-memory batch is searched with the (empty) index.
  Result<std::vector<DocId>> docs = index.GetPostings("fresh");
  ASSERT_TRUE(docs.ok()) << docs.status();
  EXPECT_EQ(*docs, (std::vector<DocId>{0}));
}

TEST(BufferedSearchTest, MergesDiskAndMemoryPostings) {
  ShardedIndex index(Options());
  index.AddDocument("shared alpha");
  index.AddDocument("shared beta");
  ASSERT_TRUE(index.FlushDocuments().ok());
  index.AddDocument("shared gamma");  // buffered only
  Result<std::vector<DocId>> docs = index.GetPostings("shared");
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(*docs, (std::vector<DocId>{0, 1, 2}));
  // Boolean queries see the merged view too.
  Result<ir::QueryResult> r =
      ir::QueryExecutor(index).EvaluateBoolean("shared AND gamma");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->docs, (std::vector<DocId>{2}));
}

TEST(BufferedSearchTest, FlushPreservesResults) {
  ShardedIndex index(Options());
  index.AddDocument("stable words here");
  Result<std::vector<DocId>> before = index.GetPostings("stable");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(index.FlushDocuments().ok());
  Result<std::vector<DocId>> after = index.GetPostings("stable");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
  EXPECT_EQ(index.buffered_documents(), 0u);
}

TEST(BufferedSearchTest, DeletionFiltersBufferedDocs) {
  ShardedIndex index(Options());
  const DocId doc = index.AddDocument("ephemeral");
  index.DeleteDocument(doc);
  Result<std::vector<DocId>> docs = index.GetPostings("ephemeral");
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
