#include "core/sharded_index.h"

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/inverted_index.h"
#include "storage/buffer_pool.h"
#include "ir/query_executor.h"
#include "text/shard_partition.h"
#include "util/random.h"

namespace duplex::core {
namespace {

IndexOptions SmallOptions(bool materialize) {
  IndexOptions o;
  o.buckets.num_buckets = 16;
  o.buckets.bucket_capacity = 64;
  o.policy = Policy::NewZ();
  o.block_postings = 16;
  o.disks.num_disks = 2;
  o.disks.blocks_per_disk = 1 << 18;
  o.disks.block_size_bytes = 128;
  o.materialize = materialize;
  return o;
}

ShardedIndexOptions ShardedOptions(uint32_t shards, bool materialize) {
  ShardedIndexOptions o;
  o.shard = SmallOptions(materialize);
  o.num_shards = shards;
  return o;
}

// Ten deterministic materialized batches over a fixed word space; doc ids
// ascend across batches as in the real document pipeline.
std::vector<text::InvertedBatch> MakeBatches(int num_batches,
                                             int words,
                                             int docs_per_batch) {
  std::vector<text::InvertedBatch> batches;
  Rng rng(42);
  DocId next_doc = 0;
  for (int b = 0; b < num_batches; ++b) {
    std::vector<std::vector<DocId>> lists(words);
    for (int d = 0; d < docs_per_batch; ++d) {
      const DocId doc = next_doc++;
      // Each document mentions a handful of words, skewed toward low ids
      // so some words grow long lists and promote.
      for (int w = 0; w < words; ++w) {
        const uint64_t odds = 1 + static_cast<uint64_t>(w) / 4;
        if (rng.Uniform(odds) == 0) lists[w].push_back(doc);
      }
    }
    text::InvertedBatch batch;
    for (int w = 0; w < words; ++w) {
      if (!lists[w].empty()) {
        batch.entries.push_back({static_cast<WordId>(w), lists[w]});
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

// --- Equivalence: sharded vs unsharded ------------------------------------

TEST(ShardedIndexTest, BitIdenticalPostingsVsUnshardedOverTenBatches) {
  constexpr int kWords = 120;
  const std::vector<text::InvertedBatch> batches = MakeBatches(10, kWords, 40);

  InvertedIndex unsharded(SmallOptions(true));
  ShardedIndex sharded(ShardedOptions(4, true));
  for (const auto& batch : batches) {
    ASSERT_TRUE(unsharded.ApplyInvertedBatch(batch).ok());
    ASSERT_TRUE(sharded.ApplyInvertedBatch(batch).ok());
  }

  for (WordId w = 0; w < kWords; ++w) {
    Result<std::vector<DocId>> expect = unsharded.GetPostings(w);
    Result<std::vector<DocId>> got = sharded.GetPostings(w);
    ASSERT_EQ(expect.ok(), got.ok()) << "word " << w;
    if (!expect.ok()) {
      EXPECT_EQ(expect.status().code(), got.status().code());
      continue;
    }
    EXPECT_EQ(*expect, *got) << "word " << w;
  }
}

TEST(ShardedIndexTest, MergedStatsConsistentWithUnsharded) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(10, 100, 30);
  InvertedIndex unsharded(SmallOptions(true));
  ShardedIndex sharded(ShardedOptions(4, true));
  for (const auto& batch : batches) {
    ASSERT_TRUE(unsharded.ApplyInvertedBatch(batch).ok());
    ASSERT_TRUE(sharded.ApplyInvertedBatch(batch).ok());
  }
  const IndexStats expect = unsharded.Stats();
  const IndexStats got = sharded.Stats();
  // Posting accounting is layout-independent: it must match exactly.
  EXPECT_EQ(got.total_postings, expect.total_postings);
  EXPECT_EQ(got.bucket_postings + got.long_postings, got.total_postings);
  EXPECT_EQ(got.updates_applied, expect.updates_applied);
  // Word splits differ (4x the bucket space shifts promotions) but totals
  // cover the same word set.
  EXPECT_EQ(got.bucket_words + got.long_words,
            expect.bucket_words + expect.long_words);
}

TEST(ShardedIndexTest, EveryShardPassesVerifyIntegrity) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(10, 100, 30);
  ShardedIndex sharded(ShardedOptions(4, true));
  for (const auto& batch : batches) {
    ASSERT_TRUE(sharded.ApplyInvertedBatch(batch).ok());
  }
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_TRUE(sharded.shard(s)
                    .WithRead([](const InvertedIndex& index) {
                      return index.VerifyIntegrity();
                    })
                    .ok())
        << "shard " << s;
  }
  EXPECT_TRUE(sharded.VerifyIntegrity().ok());
}

TEST(ShardedIndexTest, SingleShardMatchesUnshardedTraceAndSeries) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(6, 80, 25);
  InvertedIndex unsharded(SmallOptions(true));
  ShardedIndex sharded(ShardedOptions(1, true));
  for (const auto& batch : batches) {
    ASSERT_TRUE(unsharded.ApplyInvertedBatch(batch).ok());
    ASSERT_TRUE(sharded.ApplyInvertedBatch(batch).ok());
  }
  EXPECT_EQ(sharded.MergedTrace().events(), unsharded.trace().events());
}

TEST(ShardedIndexTest, MergedTraceIsDeterministicAcrossRuns) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(8, 100, 30);
  auto run = [&] {
    ShardedIndex sharded(ShardedOptions(4, true));
    for (const auto& batch : batches) {
      EXPECT_TRUE(sharded.ApplyInvertedBatch(batch).ok());
    }
    return sharded.MergedTrace();
  };
  const storage::IoTrace a = run();
  const storage::IoTrace b = run();
  ASSERT_EQ(a.event_count(), b.event_count());
  EXPECT_EQ(a.events(), b.events());
  EXPECT_EQ(a.update_count(), b.update_count());
}

TEST(ShardedIndexTest, WordsLandOnHashShardOnly) {
  const std::vector<text::InvertedBatch> batches = MakeBatches(5, 100, 30);
  ShardedIndex sharded(ShardedOptions(4, true));
  for (const auto& batch : batches) {
    ASSERT_TRUE(sharded.ApplyInvertedBatch(batch).ok());
  }
  for (WordId w = 0; w < 100; ++w) {
    const uint32_t owner = sharded.ShardFor(w);
    for (uint32_t s = 0; s < 4; ++s) {
      const bool present =
          sharded.shard(s).WithRead([&](const InvertedIndex& index) {
            return index.Locate(w).exists;
          });
      if (s != owner) {
        EXPECT_FALSE(present) << "word " << w << " on shard " << s;
      }
    }
  }
}

// --- Document path and queries --------------------------------------------

TEST(ShardedIndexTest, DocumentPathBuffersAndFlushes) {
  ShardedIndex index(ShardedOptions(4, true));
  const DocId d0 = index.AddDocument("alpha beta gamma");
  const DocId d1 = index.AddDocument("alpha delta");
  EXPECT_EQ(d0, 0u);
  EXPECT_EQ(d1, 1u);
  EXPECT_EQ(index.buffered_documents(), 2u);
  // Staged documents are not searchable before the flush (immediate
  // visibility is LiveIndex::SubmitLive's), and take no doc id yet.
  EXPECT_TRUE(index.GetPostings("alpha").status().IsNotFound());
  EXPECT_FALSE(index.Locate("delta").exists);
  EXPECT_EQ(index.next_doc_id(), 0u);
  ASSERT_TRUE(index.FlushDocuments().ok());
  EXPECT_EQ(index.buffered_documents(), 0u);
  Result<std::vector<DocId>> post = index.GetPostings("alpha");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(*post, (std::vector<DocId>{0, 1}));
  EXPECT_TRUE(index.Locate("delta").exists);
  EXPECT_FALSE(index.Locate("unknown").exists);
  EXPECT_EQ(index.next_doc_id(), 2u);
}

TEST(ShardedIndexTest, BooleanAndVectorQueriesFanOut) {
  ShardedIndex index(ShardedOptions(4, true));
  index.AddDocument("cat dog fish");
  index.AddDocument("cat dog");
  index.AddDocument("cat");
  ASSERT_TRUE(index.FlushDocuments().ok());
  const Result<ir::QueryResult> boolean =
      ir::QueryExecutor(index).EvaluateBoolean("cat AND NOT dog");
  ASSERT_TRUE(boolean.ok());
  EXPECT_EQ(boolean->docs, (std::vector<DocId>{2}));

  ir::VectorQuery vq;
  vq.terms = {{"fish", 1.0}, {"dog", 1.0}};
  const Result<ir::VectorQueryResult> vector =
      ir::QueryExecutor(index).EvaluateVector(vq, 2, index.next_doc_id());
  ASSERT_TRUE(vector.ok());
  ASSERT_EQ(vector->top.size(), 2u);
  EXPECT_EQ(vector->top[0].doc, 0u);  // fish + dog outranks dog alone
}

TEST(ShardedIndexTest, QueriesMatchUnshardedEvaluator) {
  ShardedIndex sharded(ShardedOptions(4, true));
  ShardedIndex unsharded(ShardedOptions(1, true));
  const std::vector<std::string> docs = {
      "the quick brown fox", "the lazy dog",  "quick dog",
      "brown dog fox",       "the quick dog", "lazy fox"};
  for (const std::string& d : docs) {
    sharded.AddDocument(d);
    unsharded.AddDocument(d);
  }
  ASSERT_TRUE(sharded.FlushDocuments().ok());
  ASSERT_TRUE(unsharded.FlushDocuments().ok());
  for (const char* q :
       {"quick AND dog", "the OR fox", "(quick OR lazy) AND NOT dog",
        "fox AND NOT (the OR quick)"}) {
    const Result<ir::QueryResult> a =
        ir::QueryExecutor(unsharded).EvaluateBoolean(q);
    const Result<ir::QueryResult> b =
        ir::QueryExecutor(sharded).EvaluateBoolean(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->docs, b->docs) << q;
  }
}

TEST(ShardedIndexTest, DeletionFiltersAndSweeps) {
  ShardedIndex index(ShardedOptions(4, true));
  index.AddDocument("x y");
  index.AddDocument("x z");
  ASSERT_TRUE(index.FlushDocuments().ok());
  index.DeleteDocument(0);
  EXPECT_TRUE(index.IsDeleted(0));
  EXPECT_EQ(index.deleted_count(), 1u);
  Result<std::vector<DocId>> docs = index.GetPostings("x");
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(*docs, (std::vector<DocId>{1}));
  ASSERT_TRUE(index.SweepDeletions().ok());
  EXPECT_EQ(index.deleted_count(), 0u);
  EXPECT_EQ(index.GetPostings("y").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(index.VerifyIntegrity().ok());
}

// A document deleted while still buffered reaches its shards only at the
// flush, after a sweep already ran over them: its deletion must outlive
// that sweep, or the flush would bring it back.
TEST(ShardedIndexTest, BufferedDeletionOutlivesASweep) {
  ShardedIndex index(ShardedOptions(4, true));
  index.AddDocument("x y");
  ASSERT_TRUE(index.FlushDocuments().ok());
  const DocId buffered = index.AddDocument("x z");
  index.DeleteDocument(0);
  index.DeleteDocument(buffered);
  ASSERT_TRUE(index.SweepDeletions().ok());
  EXPECT_FALSE(index.IsDeleted(0));
  EXPECT_TRUE(index.IsDeleted(buffered));
  ASSERT_TRUE(index.FlushDocuments().ok());
  for (const char* word : {"x", "z"}) {
    Result<std::vector<DocId>> docs = index.GetPostings(word);
    ASSERT_TRUE(docs.ok()) << word;
    EXPECT_TRUE(docs->empty()) << word;
  }
  ASSERT_TRUE(index.SweepDeletions().ok());
  EXPECT_EQ(index.deleted_count(), 0u);
  EXPECT_EQ(index.GetPostings("x").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(index.GetPostings("z").status().code(), StatusCode::kNotFound);
}

TEST(ShardedIndexTest, CountOnlyBatchPathAndMergedCategories) {
  ShardedIndex index(ShardedOptions(4, false));
  text::BatchUpdate first;
  for (WordId w = 0; w < 50; ++w) first.pairs.push_back({w, 3});
  ASSERT_TRUE(index.ApplyBatchUpdate(first).ok());
  ASSERT_TRUE(index.ApplyBatchUpdate(first).ok());
  const std::vector<UpdateCategories> cats = index.MergedCategories();
  ASSERT_EQ(cats.size(), 2u);
  EXPECT_EQ(cats[0].new_words, 50u);
  EXPECT_EQ(cats[1].new_words, 0u);
  EXPECT_EQ(cats[1].total(), 50u);
  EXPECT_EQ(index.Stats().total_postings, 300u);
}

TEST(ShardedIndexTest, MergedCacheStatsEqualPerShardSums) {
  ShardedIndexOptions options = ShardedOptions(4, true);
  options.shard.cache.capacity_blocks = 64;
  options.shard.cache.mode = storage::CacheMode::kWriteBack;
  ShardedIndex index(options);
  for (const auto& batch : MakeBatches(10, 100, 30)) {
    ASSERT_TRUE(index.ApplyInvertedBatch(batch).ok());
  }
  // Touch the read path too so hits accumulate outside batch apply.
  for (WordId w = 0; w < 100; ++w) {
    (void)index.GetPostings(w);
  }

  const std::vector<IndexStats> per_shard = index.ShardStats();
  ASSERT_EQ(per_shard.size(), 4u);
  IndexStats sum;
  for (const IndexStats& s : per_shard) {
    sum.cache_hits += s.cache_hits;
    sum.cache_misses += s.cache_misses;
    sum.cache_evictions += s.cache_evictions;
    sum.cache_dirty_writebacks += s.cache_dirty_writebacks;
    sum.cache_pinned_peak += s.cache_pinned_peak;
    sum.cache_physical_reads += s.cache_physical_reads;
    sum.cache_physical_writes += s.cache_physical_writes;
  }
  const IndexStats merged = index.Stats();
  EXPECT_EQ(merged.cache_hits, sum.cache_hits);
  EXPECT_EQ(merged.cache_misses, sum.cache_misses);
  EXPECT_EQ(merged.cache_evictions, sum.cache_evictions);
  EXPECT_EQ(merged.cache_dirty_writebacks, sum.cache_dirty_writebacks);
  EXPECT_EQ(merged.cache_pinned_peak, sum.cache_pinned_peak);
  EXPECT_EQ(merged.cache_physical_reads, sum.cache_physical_reads);
  EXPECT_EQ(merged.cache_physical_writes, sum.cache_physical_writes);
  // The pools actually ran: the undersized per-shard capacity forces
  // misses and write-back traffic during the ten batches.
  EXPECT_GT(merged.cache_hits + merged.cache_misses, 0u);
  EXPECT_GT(merged.cache_physical_writes, 0u);
}

// --- Concurrency stress ----------------------------------------------------

// Readers keep querying a handful of hot words while batches apply in
// parallel across shards. Every observed list must be strictly ascending
// and never shrink; merged stats must stay internally consistent. Run
// under -DDUPLEX_SANITIZE=thread in CI (tools/ci.sh) to race-check.
TEST(ShardedIndexStressTest, ConcurrentReadersDuringParallelBatchApply) {
  ShardedIndex index(ShardedOptions(4, true));
  constexpr int kBatches = 30;
  constexpr int kDocsPerBatch = 15;
  constexpr int kHotWords = 8;  // hashes spread these across shards
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    DocId next_doc = 0;
    for (int b = 0; b < kBatches && !failed; ++b) {
      text::InvertedBatch batch;
      std::vector<DocId> docs;
      for (int d = 0; d < kDocsPerBatch; ++d) docs.push_back(next_doc++);
      for (WordId w = 0; w < kHotWords; ++w) {
        batch.entries.push_back({w, docs});
      }
      if (!index.ApplyInvertedBatch(batch).ok()) failed = true;
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::vector<size_t> last_size(kHotWords, 0);
      Rng rng(static_cast<uint64_t>(r));
      while (!done && !failed) {
        const WordId w = static_cast<WordId>(rng.Uniform(kHotWords));
        Result<std::vector<DocId>> docs = index.GetPostings(w);
        if (!docs.ok()) {
          if (docs.status().IsNotFound() && last_size[w] == 0) continue;
          failed = true;
          break;
        }
        if (docs->size() < last_size[w]) {
          failed = true;  // postings must never shrink
          break;
        }
        for (size_t i = 1; i < docs->size(); ++i) {
          if ((*docs)[i - 1] >= (*docs)[i]) {
            failed = true;  // must stay strictly ascending
            break;
          }
        }
        last_size[w] = docs->size();
      }
    });
  }
  std::thread checker([&] {
    while (!done && !failed) {
      const IndexStats s = index.Stats();
      if (s.total_postings != s.bucket_postings + s.long_postings) {
        failed = true;
      }
    }
  });

  writer.join();
  for (auto& t : readers) t.join();
  checker.join();
  ASSERT_FALSE(failed);
  for (WordId w = 0; w < kHotWords; ++w) {
    Result<std::vector<DocId>> docs = index.GetPostings(w);
    ASSERT_TRUE(docs.ok());
    EXPECT_EQ(docs->size(),
              static_cast<size_t>(kBatches * kDocsPerBatch));
  }
  EXPECT_TRUE(index.VerifyIntegrity().ok());
}

// Deletions are index-wide state: DeleteDocument takes only the document
// lock, and a sweep hands every shard one copy of the set. A writer
// buffers and flushes documents while a deleter removes every third one
// (buffered or flushed), a sweeper sweeps, and readers query. A document
// deleted before a query starts never shows in its answer, and at quiesce
// the index answers exactly like a one-shard oracle fed the same
// documents and deletions. Run under -DDUPLEX_SANITIZE=thread in CI.
TEST(ShardedIndexStressTest, DeletesSweepsFlushesAndQueriesRace) {
  static constexpr const char* kPool[] = {
      "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
      "eta",   "theta", "iota", "kappa", "lambda",  "mu"};
  constexpr size_t kPoolSize = std::size(kPool);
  constexpr int kFlushes = 30;
  constexpr int kDocsPerFlush = 20;
  constexpr DocId kDocs = kFlushes * kDocsPerFlush;
  const auto text_of = [](DocId doc) {
    std::string text = kPool[0];  // every document: one long list
    for (int w = 0; w < 3; ++w) {
      text += ' ';
      text += kPool[(doc * (2 * w + 3) + w) % kPoolSize];
    }
    return text;
  };
  const auto doomed = [](DocId doc) { return doc % 3 == 0; };

  ShardedIndex index(ShardedOptions(4, true));
  std::atomic<DocId> assigned{0};       // docs [0, assigned) were added
  std::atomic<int64_t> deleted_upto{-1};  // doomed docs <= this deleted
  std::atomic<bool> writing_done{false};
  std::atomic<bool> deleting_done{false};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (int f = 0; f < kFlushes && !failed; ++f) {
      for (int d = 0; d < kDocsPerFlush; ++d) {
        const DocId expect = assigned.load();
        if (index.AddDocument(text_of(expect)) != expect) failed = true;
        assigned.store(expect + 1);
        // Let the deleter reach the document while it is still buffered.
        std::this_thread::yield();
      }
      if (!index.FlushDocuments().ok()) failed = true;
    }
    writing_done = true;
  });
  std::thread deleter([&] {
    DocId next = 0;
    while (next < kDocs && !failed) {
      const DocId limit = assigned.load();
      for (; next < limit; ++next) {
        if (!doomed(next)) continue;
        index.DeleteDocument(next);
        deleted_upto.store(static_cast<int64_t>(next));
      }
      if (next < kDocs) std::this_thread::yield();
    }
    deleting_done = true;
  });
  std::thread sweeper([&] {
    while (!(writing_done && deleting_done) && !failed) {
      if (!index.SweepDeletions().ok()) failed = true;
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r) + 7);
      while (!(writing_done && deleting_done) && !failed) {
        const int64_t limit = deleted_upto.load();
        Result<std::vector<DocId>> docs =
            index.GetPostings(kPool[rng.Uniform(kPoolSize)]);
        if (!docs.ok()) {
          if (!docs.status().IsNotFound()) failed = true;
          continue;
        }
        for (size_t i = 0; i < docs->size(); ++i) {
          const DocId doc = (*docs)[i];
          if (i > 0 && (*docs)[i - 1] >= doc) failed = true;
          if (doomed(doc) && static_cast<int64_t>(doc) <= limit) {
            failed = true;  // deleted before the query began
          }
        }
      }
    });
  }
  writer.join();
  deleter.join();
  sweeper.join();
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed);

  ASSERT_TRUE(index.SweepDeletions().ok());
  EXPECT_EQ(index.deleted_count(), 0u);
  ASSERT_TRUE(index.VerifyIntegrity().ok());
  ShardedIndex oracle(ShardedOptions(1, true));
  for (DocId doc = 0; doc < kDocs; ++doc) {
    oracle.AddDocument(text_of(doc));
    if ((doc + 1) % kDocsPerFlush == 0) {
      ASSERT_TRUE(oracle.FlushDocuments().ok());
    }
  }
  for (DocId doc = 0; doc < kDocs; ++doc) {
    if (doomed(doc)) oracle.DeleteDocument(doc);
  }
  for (const char* word : kPool) {
    Result<std::vector<DocId>> got = index.GetPostings(word);
    Result<std::vector<DocId>> expect = oracle.GetPostings(word);
    ASSERT_TRUE(got.ok()) << word << ": " << got.status();
    ASSERT_TRUE(expect.ok()) << word << ": " << expect.status();
    EXPECT_EQ(*got, *expect) << word;
    for (const DocId doc : *got) EXPECT_FALSE(doomed(doc)) << word;
    // The sweep really removed them: the lists hold no deleted postings.
    EXPECT_EQ(index.Locate(word).postings, got->size()) << word;
  }
}

}  // namespace
}  // namespace duplex::core
