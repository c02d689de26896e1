// Integration tests for the duplexctl command-line front end: build an
// index from real files on disk, persist it, and query it from a separate
// invocation — the full downstream-user workflow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace duplex {
namespace {

namespace fs = std::filesystem;

int RunShell(const std::string& command) {
  return std::system(command.c_str());
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class DuplexctlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/duplexctl_cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_ + "/docs");
    prefix_ = dir_ + "/snapshot";
    std::ofstream(dir_ + "/docs/a.txt")
        << "the quick brown fox jumps over the lazy dog";
    std::ofstream(dir_ + "/docs/b.txt") << "a quick survey of retrieval";
    std::ofstream(dir_ + "/docs/c.txt") << "the dog chased the cat";
  }
  void TearDown() override { fs::remove_all(dir_); }

  int Build() {
    return RunShell(std::string(DUPLEXCTL_BIN) + " build " + prefix_ +
                    " " + dir_ + "/docs > " + dir_ + "/build.out 2>&1");
  }
  std::string Query(const std::string& query) {
    const std::string out = dir_ + "/query.out";
    EXPECT_EQ(RunShell(std::string(DUPLEXCTL_BIN) + " query " + prefix_ +
                       " \"" + query + "\" > " + out + " 2>&1"),
              0);
    return ReadAll(out);
  }

  std::string dir_;
  std::string prefix_;
};

TEST_F(DuplexctlTest, BuildCreatesSnapshotFiles) {
  ASSERT_EQ(Build(), 0) << ReadAll(dir_ + "/build.out");
  EXPECT_TRUE(fs::exists(prefix_ + ".super"));
  EXPECT_TRUE(fs::exists(prefix_ + ".ckpt-1"));
  const std::string log = ReadAll(dir_ + "/build.out");
  EXPECT_NE(log.find("indexed 3 documents"), std::string::npos) << log;
}

TEST_F(DuplexctlTest, QueryFindsDocuments) {
  ASSERT_EQ(Build(), 0);
  // Files are indexed in sorted path order: a=0, b=1, c=2.
  EXPECT_NE(Query("quick").find("2 matching documents"),
            std::string::npos);
  EXPECT_NE(Query("dog AND NOT fox").find("1 matching documents"),
            std::string::npos);
  EXPECT_NE(Query("unicorn").find("0 matching documents"),
            std::string::npos);
}

TEST_F(DuplexctlTest, StatsReportsWordCounts) {
  ASSERT_EQ(Build(), 0);
  const std::string out = dir_ + "/stats.out";
  ASSERT_EQ(RunShell(std::string(DUPLEXCTL_BIN) + " stats " + prefix_ +
                     " > " + out + " 2>&1"),
            0);
  const std::string stats = ReadAll(out);
  EXPECT_NE(stats.find("materialized"), std::string::npos) << stats;
  EXPECT_NE(stats.find("words"), std::string::npos);
}

TEST_F(DuplexctlTest, QueryMissingSnapshotFails) {
  EXPECT_NE(RunShell(std::string(DUPLEXCTL_BIN) + " query " + dir_ +
                     "/nope \"cat\" > /dev/null 2>&1"),
            0);
}

// Reads of a prefix holding no checkpoint fail and leave no file behind
// (opening a superblock would create one).
TEST_F(DuplexctlTest, MissingCheckpointFailsAndCreatesNoFile) {
  const std::string missing = dir_ + "/nope";
  for (const std::string command : {"query", "stats", "scrub"}) {
    const std::string args =
        command == "query" ? missing + " \"cat\"" : missing;
    EXPECT_NE(RunShell(std::string(DUPLEXCTL_BIN) + " " + command + " " +
                       args + " > /dev/null 2>&1"),
              0)
        << command;
  }
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().filename().string().rfind("nope", 0), 0u)
        << entry.path();
  }
}

// Compaction rewrites long-list chunks, never their postings: every query
// answers the same document list before and after `compact`.
TEST_F(DuplexctlTest, CompactKeepsQueryAnswers) {
  // Enough documents that the frequent words overflow their buckets and
  // grow long lists across several 64-document batches.
  fs::create_directories(dir_ + "/many");
  const char* kWords[] = {"alpha", "beta", "gamma", "delta"};
  for (int d = 0; d < 640; ++d) {
    std::ostringstream text;
    text << "common";
    for (int w = 0; w < 4; ++w) {
      if (d % (w + 2) == 0) text << " " << kWords[w];
    }
    char name[32];
    std::snprintf(name, sizeof(name), "/many/%04d.txt", d);
    std::ofstream(dir_ + name) << text.str();
  }
  ASSERT_EQ(RunShell(std::string(DUPLEXCTL_BIN) + " build " + prefix_ + " " +
                     dir_ + "/many > " + dir_ + "/build.out 2>&1"),
            0)
      << ReadAll(dir_ + "/build.out");
  const std::vector<std::string> queries = {
      "common", "alpha AND beta", "gamma OR delta", "common AND NOT alpha"};
  // The document list follows "):"; the read count before it may shrink.
  const auto answers = [&] {
    std::vector<std::string> out;
    for (const std::string& q : queries) {
      const std::string result = Query(q);
      out.push_back(result.substr(result.find("):")));
    }
    return out;
  };
  const std::vector<std::string> before = answers();
  EXPECT_NE(before[0].find(" 639\n"), std::string::npos) << before[0];

  const std::string out = dir_ + "/compact.out";
  ASSERT_EQ(RunShell(std::string(DUPLEXCTL_BIN) + " compact " + prefix_ +
                     " > " + out + " 2>&1"),
            0)
      << ReadAll(out);
  EXPECT_NE(ReadAll(out).find("compacted"), std::string::npos)
      << ReadAll(out);
  EXPECT_EQ(answers(), before);
}

TEST_F(DuplexctlTest, UsageOnBadArguments) {
  EXPECT_NE(RunShell(std::string(DUPLEXCTL_BIN) +
                     " frobnicate > /dev/null 2>&1"),
            0);
  EXPECT_NE(RunShell(std::string(DUPLEXCTL_BIN) +
                     " build onlyprefix > /dev/null 2>&1"),
            0);
}

TEST_F(DuplexctlTest, ScrubDemoRepairsInjectedCorruption) {
  const std::string out = dir_ + "/scrub.out";
  ASSERT_EQ(RunShell(std::string(DUPLEXCTL_BIN) + " scrub-demo > " + out +
                     " 2>&1"),
            0)
      << ReadAll(out);
  const std::string log = ReadAll(out);
  EXPECT_NE(log.find("injected"), std::string::npos) << log;
  EXPECT_NE(log.find("kCorruption"), std::string::npos) << log;
  EXPECT_NE(log.find("repair verified"), std::string::npos) << log;
}

TEST_F(DuplexctlTest, ScrubDemoSeedIsDeterministic) {
  const std::string out1 = dir_ + "/scrub1.out";
  const std::string out2 = dir_ + "/scrub2.out";
  ASSERT_EQ(RunShell(std::string(DUPLEXCTL_BIN) +
                     " --fault-seed 9 scrub-demo > " + out1 + " 2>&1"),
            0)
      << ReadAll(out1);
  ASSERT_EQ(RunShell(std::string(DUPLEXCTL_BIN) +
                     " --fault-seed 9 scrub-demo > " + out2 + " 2>&1"),
            0)
      << ReadAll(out2);
  EXPECT_EQ(ReadAll(out1), ReadAll(out2));
}

TEST_F(DuplexctlTest, ScrubOnCleanSnapshotReportsClean) {
  ASSERT_EQ(Build(), 0) << ReadAll(dir_ + "/build.out");
  const std::string out = dir_ + "/scrub.out";
  ASSERT_EQ(RunShell(std::string(DUPLEXCTL_BIN) + " scrub " + prefix_ +
                     " > " + out + " 2>&1"),
            0)
      << ReadAll(out);
  const std::string log = ReadAll(out);
  EXPECT_NE(log.find("scrub:"), std::string::npos) << log;
  EXPECT_NE(log.find("0 corrupt blocks"), std::string::npos) << log;
  EXPECT_NE(log.find("quarantined 0"), std::string::npos) << log;
}

// Embedded Prometheus text-exposition validator: every comment line is
// HELP/TYPE, every sample line is "name[{labels}] value" with a numeric
// value, and TYPE appears exactly once per family. Returns the family
// names.
std::set<std::string> ValidatePrometheusText(const std::string& text) {
  std::set<std::string> families;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      const bool help = line.rfind("# HELP ", 0) == 0;
      const bool type = line.rfind("# TYPE ", 0) == 0;
      EXPECT_TRUE(help || type) << line;
      if (type) {
        std::istringstream fields(line.substr(7));
        std::string name;
        std::string kind;
        fields >> name >> kind;
        EXPECT_TRUE(kind == "counter" || kind == "gauge" ||
                    kind == "histogram")
            << line;
        EXPECT_TRUE(families.insert(name).second) << "duplicate " << line;
      }
      continue;
    }
    const size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) continue;
    const std::string value = line.substr(space + 1);
    size_t parsed = 0;
    EXPECT_NO_THROW({ (void)std::stod(value, &parsed); }) << line;
    EXPECT_EQ(parsed, value.size()) << line;
  }
  return families;
}

TEST_F(DuplexctlTest, MetricsEmitsValidPrometheusAcrossLayers) {
  const std::string out = dir_ + "/metrics.out";
  const std::string obs_dir = dir_ + "/obs";
  ASSERT_EQ(RunShell(std::string(DUPLEXCTL_BIN) + " metrics " + obs_dir +
                     " > " + out + " 2> " + dir_ + "/metrics.err"),
            0)
      << ReadAll(dir_ + "/metrics.err");
  const std::string text = ReadAll(out);
  const std::set<std::string> families = ValidatePrometheusText(text);
  EXPECT_GE(families.size(), 12u) << text;
  // Families must span all three instrumented layers.
  int core = 0;
  int storage = 0;
  int ir = 0;
  for (const std::string& f : families) {
    core += f.rfind("duplex_core_", 0) == 0;
    storage += f.rfind("duplex_storage_", 0) == 0;
    ir += f.rfind("duplex_ir_", 0) == 0;
  }
  EXPECT_GE(core, 3) << text;
  EXPECT_GE(storage, 3) << text;
  EXPECT_GE(ir, 3) << text;
  // The workload actually recorded: queries ran and batches applied.
  EXPECT_NE(text.find("duplex_ir_queries_total 12"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("duplex_ir_queries_total 0"), std::string::npos);
  // The per-run export files landed in the requested directory.
  EXPECT_TRUE(fs::exists(obs_dir + "/metrics.prom"));
  EXPECT_TRUE(fs::exists(obs_dir + "/metrics.json"));
  EXPECT_TRUE(fs::exists(obs_dir + "/trace.json"));
  // Stdout and the exported file carry the same exposition.
  EXPECT_EQ(text, ReadAll(obs_dir + "/metrics.prom"));
}

TEST_F(DuplexctlTest, TraceEmitsChromeTraceJson) {
  const std::string out = dir_ + "/trace.out";
  ASSERT_EQ(RunShell(std::string(DUPLEXCTL_BIN) + " trace " + dir_ +
                     "/obs > " + out + " 2> " + dir_ + "/trace.err"),
            0)
      << ReadAll(dir_ + "/trace.err");
  std::string json = ReadAll(out);
  while (!json.empty() && json.back() == '\n') json.pop_back();
  ASSERT_FALSE(json.empty());
  // Chrome trace_event object form, loadable by Perfetto.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  // Spans from both the core apply path and query evaluation.
  EXPECT_NE(json.find("\"name\":\"core.apply_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ir.query\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"core.wal_replay\""), std::string::npos);
}

TEST_F(DuplexctlTest, BuildOnEmptyDirectoryFails) {
  fs::create_directories(dir_ + "/empty");
  EXPECT_NE(RunShell(std::string(DUPLEXCTL_BIN) + " build " + prefix_ +
                     " " + dir_ + "/empty > /dev/null 2>&1"),
            0);
}

}  // namespace
}  // namespace duplex
