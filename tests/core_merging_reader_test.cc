#include "core/merging_reader.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/inverted_index.h"
#include "core/delta_index.h"
#include "core/sharded_index.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace duplex::core {
namespace {

TEST(MergeDocListsTest, DedupsAndMergesAscending) {
  EXPECT_EQ(MergeDocLists({}), std::vector<DocId>{});
  EXPECT_EQ(MergeDocLists({{1, 3, 5}}), (std::vector<DocId>{1, 3, 5}));
  EXPECT_EQ(MergeDocLists({{1, 3, 5}, {2, 3, 7}, {}}),
            (std::vector<DocId>{1, 2, 3, 5, 7}));
  EXPECT_EQ(MergeDocLists({{4}, {4}, {4}}), (std::vector<DocId>{4}));
}

// Two in-memory delta tiers over one shared vocabulary.
class MergingReaderTest : public ::testing::Test {
 protected:
  MergingReaderTest() {
    Insert(a_, 0, {"alpha beta gamma", "alpha beta"});
    Insert(b_, 5, {"alpha delta", "beta"});
    merged_ = std::make_unique<MergingReader>(
        std::vector<const IndexReader*>{&a_, &b_});
  }

  // Inverts `texts` from doc `first` and inserts them as one live batch.
  void Insert(DeltaIndex& tier, DocId first,
              const std::vector<std::string>& texts) {
    DocId next = first;
    const text::InvertedBatch batch =
        text::BatchInverter(tokenizer_, &vocabulary_).Invert(texts, &next);
    std::vector<std::string> words;
    for (const text::InvertedBatch::Entry& entry : batch.entries) {
      words.push_back(vocabulary_.WordFor(entry.word));
    }
    tier.Insert(batch, words, first, static_cast<uint32_t>(texts.size()),
                /*logged=*/false, 0);
  }

  WordId Id(std::string_view word) const {
    return vocabulary_.Lookup(word);
  }

  text::Tokenizer tokenizer_;
  text::Vocabulary vocabulary_;
  DeltaIndex a_{1};
  DeltaIndex b_{2};
  std::unique_ptr<MergingReader> merged_;
};

TEST_F(MergingReaderTest, LocateSumsCountersAcrossReaders) {
  // "alpha" buffers 2 postings in a_ and 1 in b_; the overlay really
  // fetches both lists, so the cost is the sum.
  const ListLocation alpha = merged_->Locate("alpha");
  EXPECT_TRUE(alpha.exists);
  EXPECT_EQ(alpha.postings, 3u);
  const ListLocation delta = merged_->Locate("delta");
  EXPECT_TRUE(delta.exists);
  EXPECT_EQ(delta.postings, 1u);
  EXPECT_FALSE(merged_->Locate("nosuchword").exists);
  EXPECT_FALSE(merged_->Locate(WordId{9999}).exists);
}

TEST_F(MergingReaderTest, GetPostingsMergesAndDedups) {
  Result<std::vector<DocId>> alpha = merged_->GetPostings("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(*alpha, (std::vector<DocId>{0, 1, 5}));
  // Present in one reader only.
  Result<std::vector<DocId>> gamma = merged_->GetPostings("gamma");
  ASSERT_TRUE(gamma.ok());
  EXPECT_EQ(*gamma, (std::vector<DocId>{0}));
  Result<std::vector<DocId>> delta = merged_->GetPostings(Id("delta"));
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(*delta, (std::vector<DocId>{5}));
}

TEST_F(MergingReaderTest, NotFoundOnlyWhenEveryReaderMisses) {
  Result<std::vector<DocId>> missing = merged_->GetPostings("nosuchword");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST_F(MergingReaderTest, NextDocIdIsTheWidestHorizon) {
  EXPECT_EQ(a_.next_doc_id(), 2u);
  EXPECT_EQ(b_.next_doc_id(), 7u);
  EXPECT_EQ(merged_->next_doc_id(), 7u);
}

TEST_F(MergingReaderTest, ForEachWordVisitsEachWordOnce) {
  std::multiset<WordId> seen;
  merged_->ForEachWord([&](WordId word) { seen.insert(word); });
  // alpha, beta appear in both readers but must be visited once each;
  // gamma and delta once.
  EXPECT_EQ(seen.size(), 4u);
  for (const char* word : {"alpha", "beta", "gamma", "delta"}) {
    EXPECT_EQ(seen.count(Id(word)), 1u) << word;
  }
}

TEST_F(MergingReaderTest, NonNotFoundErrorsPropagate) {
  // A count-only index holds the word but cannot return payloads; the
  // overlay must surface that FailedPrecondition, not mask it as a miss.
  IndexOptions count_only;
  count_only.buckets.num_buckets = 8;
  count_only.buckets.bucket_capacity = 32;
  count_only.policy = Policy::New0();
  count_only.block_postings = 16;
  count_only.disks.num_disks = 1;
  count_only.disks.blocks_per_disk = 1 << 14;
  count_only.materialize = false;
  ShardedIndex counted(ShardedIndexOptions::Partition(count_only, 1));
  text::BatchUpdate batch;
  batch.pairs.push_back({Id("alpha"), 10});
  ASSERT_TRUE(counted.ApplyBatchUpdate(batch).ok());

  MergingReader overlay({&a_, &counted});
  Result<std::vector<DocId>> got = overlay.GetPostings(Id("alpha"));
  ASSERT_FALSE(got.ok());
  EXPECT_FALSE(got.status().IsNotFound());
}

// TSan stress: queries stream through a MergingReader overlaying two
// ShardedIndexes while one of them takes concurrent batch updates. The
// per-term atomicity contract means readers may see a term before or
// after any given flush, but every returned list must be well-formed
// (ascending, duplicate-free) and nothing may race.
TEST(MergingReaderStressTest, ConcurrentQueriesDuringUpdates) {
  IndexOptions total;
  total.buckets.num_buckets = 32;
  total.buckets.bucket_capacity = 64;
  total.policy = Policy::RecommendedUpdateOptimized();
  total.block_postings = 16;
  total.disks.num_disks = 2;
  total.disks.blocks_per_disk = 1 << 16;
  total.materialize = true;

  ShardedIndex live(ShardedIndexOptions::Partition(total, 4));
  ShardedIndex frozen(ShardedIndexOptions::Partition(total, 4));
  frozen.AddDocument("alpha beta gamma frozen words stay put");
  frozen.AddDocument("alpha delta epsilon");
  ASSERT_TRUE(frozen.FlushDocuments().ok());

  MergingReader merged({&live, &frozen});
  static constexpr const char* kWords[] = {"alpha", "beta", "gamma",
                                           "delta", "epsilon", "zeta"};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (int batch = 0; batch < 30; ++batch) {
      for (int d = 0; d < 8; ++d) {
        std::string text;
        for (int w = 0; w <= (batch + d) % 6; ++w) {
          text += kWords[w];
          text += ' ';
        }
        live.AddDocument(text);
      }
      if (!live.FlushDocuments().ok()) {
        ++failures;
        break;
      }
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t rounds = 0;
      while (!done || rounds < 50) {
        ++rounds;
        for (const char* word : kWords) {
          (void)merged.Locate(word);
          Result<std::vector<DocId>> docs = merged.GetPostings(word);
          if (!docs.ok()) {
            if (!docs.status().IsNotFound()) ++failures;
            continue;
          }
          for (size_t i = 1; i < docs->size(); ++i) {
            if ((*docs)[i - 1] >= (*docs)[i]) ++failures;
          }
        }
        (void)merged.next_doc_id();
        size_t words = 0;
        merged.ForEachWord([&](WordId) { ++words; });
        if (words == 0) ++failures;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced: the overlay sees the union of both indexes exactly.
  Result<std::vector<DocId>> alpha = merged.GetPostings("alpha");
  ASSERT_TRUE(alpha.ok());
  const Result<std::vector<DocId>> from_live = live.GetPostings("alpha");
  const Result<std::vector<DocId>> from_frozen = frozen.GetPostings("alpha");
  ASSERT_TRUE(from_live.ok());
  ASSERT_TRUE(from_frozen.ok());
  EXPECT_EQ(*alpha, MergeDocLists({*from_live, *from_frozen}));
}

}  // namespace
}  // namespace duplex::core
