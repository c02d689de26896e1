#include "ir/query_executor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/delta_index.h"
#include "core/merging_reader.h"
#include "core/sharded_index.h"
#include "util/random.h"

namespace duplex::ir {
namespace {

// Backend equivalence: the same seeded document stream indexed three ways
// — a one-shard ShardedIndex, a four-shard ShardedIndex, and a
// MergingReader overlaying a DeltaIndex on a one-shard base —
// must answer an identical boolean + vector workload with bit-identical
// doc lists. Boolean and vector queries over the same term sequence must
// also report identical costs: both paths charge through the one
// CostAccumulator, so any divergence is an accounting drift bug.
class QueryExecutorTest : public ::testing::Test {
 protected:
  static constexpr const char* kPool[] = {
      "alpha", "beta",  "gamma",   "delta", "epsilon", "zeta",
      "eta",   "theta", "iota",    "kappa", "lambda",  "mu",
      "nu",    "xi",    "omicron", "pi",    "rho",     "sigma"};
  static constexpr size_t kPoolSize = std::size(kPool);
  static constexpr int kBatchDocs = 48;

  static core::IndexOptions Options() {
    core::IndexOptions o;
    o.buckets.num_buckets = 32;
    o.buckets.bucket_capacity = 64;
    o.policy = core::Policy::RecommendedUpdateOptimized();
    o.block_postings = 16;
    o.disks.num_disks = 2;
    o.disks.blocks_per_disk = 1 << 16;
    o.materialize = true;
    // A buffer pool in front of the disks so cached_read_ops is live: the
    // flush writes leave chunk blocks resident, and Locate's passive peek
    // must report them identically on the boolean and vector paths.
    o.cache.capacity_blocks = 256;
    return o;
  }

  // Deterministic skewed document: low pool indices appear far more often,
  // so the frequent words overflow their buckets into long lists.
  static std::string MakeDoc(Rng* rng) {
    std::string text;
    for (int w = 0; w < 10; ++w) {
      text += kPool[rng->Uniform(1 + rng->Uniform(kPoolSize))];
      text += ' ';
    }
    return text;
  }

  QueryExecutorTest()
      : full_(core::ShardedIndexOptions::Partition(Options(), 1)),
        sharded_(core::ShardedIndexOptions::Partition(Options(), 4)),
        base_(core::ShardedIndexOptions::Partition(Options(), 1)),
        delta_(1) {
    Rng rng(13);
    std::vector<std::string> batch1;
    std::vector<std::string> batch2;
    for (int d = 0; d < kBatchDocs; ++d) batch1.push_back(MakeDoc(&rng));
    for (int d = 0; d < kBatchDocs; ++d) batch2.push_back(MakeDoc(&rng));

    for (const std::string& doc : batch1) {
      full_.AddDocument(doc);
      sharded_.AddDocument(doc);
      base_.AddDocument(doc);
    }
    EXPECT_TRUE(full_.FlushDocuments().ok());
    EXPECT_TRUE(sharded_.FlushDocuments().ok());
    EXPECT_TRUE(base_.FlushDocuments().ok());
    // The second batch reaches `full_` and `sharded_` on disk, but stays a
    // pure in-memory delta in front of `base_`.
    for (const std::string& doc : batch2) {
      full_.AddDocument(doc);
      sharded_.AddDocument(doc);
    }
    Result<core::ShardedIndex::LiveBatch> live = base_.BuildLiveBatch(batch2);
    EXPECT_TRUE(live.ok());
    delta_.Insert(live->batch, live->words, live->first_doc, live->documents,
                  /*logged=*/false, 0);
    EXPECT_TRUE(full_.FlushDocuments().ok());
    EXPECT_TRUE(sharded_.FlushDocuments().ok());
    merged_ = std::make_unique<core::MergingReader>(
        std::vector<const core::IndexReader*>{&delta_, &base_});
  }

  std::vector<const core::IndexReader*> Backends() const {
    return {&full_, &sharded_, merged_.get()};
  }

  core::ShardedIndex full_;
  core::ShardedIndex sharded_;
  core::ShardedIndex base_;
  core::DeltaIndex delta_;
  std::unique_ptr<core::MergingReader> merged_;
};

TEST_F(QueryExecutorTest, BooleanDocsBitIdenticalAcrossBackends) {
  const std::vector<std::string> queries = {
      "alpha AND beta",
      "(gamma OR delta) AND NOT alpha",
      "epsilon OR zeta OR unknownword",
      "alpha AND NOT (beta OR gamma)",
      "theta iota",
      "(alpha OR beta) AND (gamma OR delta)",
  };
  for (const std::string& q : queries) {
    Result<QueryResult> reference = QueryExecutor(full_).EvaluateBoolean(q);
    ASSERT_TRUE(reference.ok()) << q << ": " << reference.status();
    for (const core::IndexReader* backend : Backends()) {
      Result<QueryResult> got = QueryExecutor(*backend).EvaluateBoolean(q);
      ASSERT_TRUE(got.ok()) << q << ": " << got.status();
      EXPECT_EQ(got->docs, reference->docs) << q;
      EXPECT_EQ(got->missing_terms, reference->missing_terms) << q;
    }
  }
}

TEST_F(QueryExecutorTest, VectorTopKIdenticalAcrossBackends) {
  VectorQuery vq;
  vq.terms = {{"alpha", 2.0}, {"beta", 1.0}, {"gamma", 0.5}, {"rho", 1.5}};
  // One idf horizon for every backend so scores are comparable bit-wise.
  const uint64_t total_docs = full_.next_doc_id();
  ASSERT_EQ(sharded_.next_doc_id(), total_docs);
  ASSERT_EQ(merged_->next_doc_id(), total_docs);

  Result<VectorQueryResult> reference =
      QueryExecutor(full_).EvaluateVector(vq, 10, total_docs);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->top.empty());
  for (const core::IndexReader* backend : Backends()) {
    Result<VectorQueryResult> got =
        QueryExecutor(*backend).EvaluateVector(vq, 10, total_docs);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->top.size(), reference->top.size());
    for (size_t i = 0; i < got->top.size(); ++i) {
      EXPECT_EQ(got->top[i].doc, reference->top[i].doc);
      EXPECT_DOUBLE_EQ(got->top[i].score, reference->top[i].score);
    }
  }
}

// The cost-drift regression test: an OR query and a vector query over the
// same term sequence locate exactly the same lists, so every counter —
// including cached_read_ops, which the old per-type vector evaluators
// dropped — must agree.
TEST_F(QueryExecutorTest, BooleanAndVectorCostsAgree) {
  Rng rng(29);
  uint64_t total_cached = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<std::string> terms;
    for (int t = 0; t < 4; ++t) {
      // Occasionally sample a term no document contains.
      if (rng.Uniform(8) == 0) {
        terms.push_back("neverindexedterm");
      } else {
        terms.push_back(kPool[rng.Uniform(kPoolSize)]);
      }
    }
    std::string bool_text = terms[0];
    VectorQuery vq;
    vq.terms.push_back({terms[0], 1.0});
    for (size_t t = 1; t < terms.size(); ++t) {
      bool_text += " OR " + terms[t];
      vq.terms.push_back({terms[t], 1.0});
    }
    for (const core::IndexReader* backend : Backends()) {
      QueryExecutor executor(*backend);
      Result<QueryResult> b = executor.EvaluateBoolean(bool_text);
      Result<VectorQueryResult> v =
          executor.EvaluateVector(vq, 10, backend->next_doc_id());
      ASSERT_TRUE(b.ok()) << bool_text;
      ASSERT_TRUE(v.ok()) << bool_text;
      EXPECT_EQ(b->read_ops, v->read_ops) << bool_text;
      EXPECT_EQ(b->cached_read_ops, v->cached_read_ops) << bool_text;
      EXPECT_EQ(b->postings_read, v->postings_read) << bool_text;
      EXPECT_EQ(b->missing_terms, v->missing_terms) << bool_text;
      if (backend == &full_) total_cached += b->cached_read_ops;
    }
  }
  // The buffer pool held flush-written blocks, so the workload must have
  // seen at least one cache-resident read — otherwise the parity
  // assertions above never exercised the drift-prone counter.
  EXPECT_GT(total_cached, 0u);
}

TEST_F(QueryExecutorTest, MissingTermsAreCountedNotErrors) {
  for (const core::IndexReader* backend : Backends()) {
    Result<QueryResult> r =
        QueryExecutor(*backend).EvaluateBoolean("nosuchword AND alpha");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->docs.empty());
    EXPECT_EQ(r->missing_terms, 1u);
  }
}

}  // namespace
}  // namespace duplex::ir
