#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "corpus.h"
#include "daemon.h"
#include "loadgen.h"
#include "stats.h"
#include "trace.h"
#include "util/hash.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace net = duplex::net;

void Report::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

void Report::Wrong(const std::string& what) {
  ++wrong;
  Fail("wrong answer: " + what);
}

void Report::Abort(const std::string& what) {
  aborted = true;
  errors.push_back("aborted: " + what);
}

void Report::Count(const Status& status, const std::string& wrong_answer) {
  ++attempted;
  if (!status.ok()) {
    Fail("request failed: " + status.ToString());
  } else if (!wrong_answer.empty()) {
    Wrong(wrong_answer);
  }
}

namespace {

// --- Scale ------------------------------------------------------------------
//
// Every workload preloads the same daily batches (the set-up a user pays
// before the first query), then runs its own phases. The sizes keep one
// run, with five set-ups and seven restarts, well inside its time budget
// on a 4-core host while still giving the index multi-chunk long lists.
// Restarts are cheap at this size and their medians need the samples: a
// clean shutdown waits out duplexd's 50 ms signal poll.
//
// A set-up is CPU-bound (daemon start is ~3 ms, the WAL fsyncs a few per
// cent) and so is the closed loop, and the speed of a shared host drifts
// over seconds. Both are therefore spread over the run and reported as
// medians: two set-ups before the main phase (the second is kept and
// serves the run), then closed-loop slices on the kept daemon alternating
// with the remaining set-ups.
constexpr uint32_t kDocsPerDay = 600;
constexpr uint32_t kPreloadDays = 12;
constexpr int kSetups = 5;
constexpr int kSetupsBefore = 2;
constexpr int kRestarts = 7;
constexpr size_t kClosedConns = 2;
constexpr int kClosedSlices = 3;
constexpr double kClosedSliceSeconds = 2.0;
constexpr size_t kClosedPool = 16384;
// The generator holds at most this many connections and runs at most this
// many threads at once, and never more than the host has cores.
constexpr size_t kGeneratorThreads = 4;
constexpr size_t kProbeQueries = 64;
constexpr size_t kReplayQueries = 3000;

struct Spec {
  bool live_ingest = false;
  // Open-loop query rate of the main phase (for --seconds, or while
  // ingest_daily's batches apply) and the connections it is spread over.
  double query_rate = 0;
  size_t query_conns = 2;
  // live_mixed: SubmitLive rate beside the queries.
  double live_rate = 0;
  // ingest_daily: daily batches per second of --seconds.
  double ingest_days_per_s = 0;
  // Single-document batch submits, each checked by its marker query.
  double fresh_rate = 0;
  double fresh_seconds = 0;
  // Connections (and generator threads) the main phase uses besides the
  // query streams: the run's own connection, plus the ingest submitter's
  // or the live stream's.
  size_t other_conns = 1;
  // Connections of the closed-loop query_qps phase.
  size_t closed_conns = kClosedConns;
};

// Cores the generator may use: what `nproc` prints.
size_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

Spec SpecFor(const std::string& workload, size_t nproc) {
  Spec spec;
  if (workload == "query_zipf") {
    spec.query_rate = 600;
    spec.query_conns = 3;
    spec.fresh_rate = 40;
    spec.fresh_seconds = 6;
  } else if (workload == "ingest_daily") {
    // Queries run only while the days are being ingested, split over two
    // connections so a batch apply may hold readers for over half a
    // second before either fills the daemon's per-connection queue.
    spec.query_rate = 200;
    spec.ingest_days_per_s = 2;
    spec.fresh_rate = 40;
    spec.fresh_seconds = 6;
    spec.other_conns = 2;
  } else {
    spec.live_ingest = true;
    spec.query_rate = 500;
    spec.live_rate = 50;
    spec.other_conns = 2;
  }
  // Open loop: one sender thread plus one receiver per stream, or the
  // submitter thread beside them; each stream has its own connection.
  // On fewer cores the same rate is spread over fewer connections; below
  // one query connection the run is refused (query_conns = 0).
  const size_t budget = std::min(kGeneratorThreads, nproc);
  spec.query_conns = std::min(spec.query_conns,
                              budget > spec.other_conns
                                  ? budget - spec.other_conns
                                  : 0);
  spec.closed_conns = std::min(kClosedConns, budget > 1 ? budget - 1 : 0);
  return spec;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : NearestRank(v, 50);
}

std::pair<net::Opcode, std::string> EncodeQuery(const Query& q) {
  if (q.kind == QueryKind::kVector) {
    net::VectorQueryRequest req;
    req.k = kTopK;
    req.query = q.vector;
    return {net::Opcode::kVectorQuery, net::EncodeVectorQueryRequest(req)};
  }
  return {net::Opcode::kBooleanQuery,
          net::EncodeBooleanQueryRequest({q.text})};
}

uint64_t Digest(const std::vector<DocId>& docs) {
  return duplex::Fnv1a64(docs.data(), docs.size() * sizeof(DocId));
}

// A reply kept for checking once the phase is over, so checking never
// delays the receipt of the next reply. In a quiescent phase boolean
// answers are kept as a digest only.
struct Reply {
  Status status;
  bool digest_only = false;
  uint64_t digest = 0;
  uint32_t count = 0;
  std::vector<DocId> docs;
  std::vector<duplex::ir::ScoredDoc> top;
  Horizon horizon;
};

void DecodeReply(const net::Frame& frame, bool digest_only, Reply* reply) {
  const uint8_t op = frame.header.opcode & ~net::kResponseBit;
  if (op == static_cast<uint8_t>(net::Opcode::kVectorQuery)) {
    auto r = net::DecodeVectorQueryResponse(frame.payload);
    if (!r.ok()) {
      reply->status = r.status();
    } else {
      reply->top = std::move(r->result.top);
    }
    return;
  }
  auto r = net::DecodeBooleanQueryResponse(frame.payload);
  if (!r.ok()) {
    reply->status = r.status();
    return;
  }
  if (digest_only) {
    reply->digest_only = true;
    reply->digest = Digest(r->result.docs);
    reply->count = static_cast<uint32_t>(r->result.docs.size());
  } else {
    reply->docs = std::move(r->result.docs);
  }
}

// What is wrong with a successful reply; empty when it is right.
std::string WrongAnswer(const Corpus& corpus, const Query& q,
                        const Reply& reply) {
  if (q.kind == QueryKind::kVector) {
    return CheckVector(corpus, q, reply.top, reply.horizon);
  }
  if (q.kind == QueryKind::kMarker) {
    // Sent after the document's ack: exactly that document, always.
    if (reply.docs.size() != 1 || reply.docs[0] != q.marker_doc) {
      return "marker " + q.text + " did not return doc " +
             std::to_string(q.marker_doc);
    }
    return "";
  }
  if (reply.digest_only) {
    const std::vector<DocId> want =
        ExpectedBoolean(corpus, q, reply.horizon.ceiling);
    if (want.size() != reply.count || Digest(want) != reply.digest) {
      return "'" + q.text + "' returned " + std::to_string(reply.count) +
             " docs, want " + std::to_string(want.size()) + " (digest differs)";
    }
    return "";
  }
  std::string error = CheckBoolean(corpus, q, reply.docs, reply.horizon);
  return error.empty() ? "" : "'" + q.text + "': " + error;
}

// Shared between a writer stream and a query stream running beside it.
struct Progress {
  std::atomic<DocId> floor{0};    // every doc below was acked
  std::atomic<DocId> ceiling{0};  // no doc at or above was sent yet
  // Newest acked single: plan index << 32 | doc id, plus a valid bit.
  std::atomic<uint64_t> latest{0};
};

constexpr uint64_t kLatestValid = uint64_t{1} << 63;
constexpr DocId kNotAcked = ~DocId{0};

// Open-loop single-document submits (SubmitLive, or a one-document
// kSubmitDocuments batch). Every ack is followed at once by a query for
// the document's marker word on the same connection, which must return
// exactly that document.
class SingleDocStream : public Stream {
 public:
  SingleDocStream(Conn* conn, std::vector<uint64_t> offsets,
                  const Corpus& corpus, const std::vector<Batch>& singles,
                  net::Opcode opcode, Progress* progress)
      : Stream(conn, std::move(offsets)),
        corpus_(corpus),
        singles_(singles),
        opcode_(opcode),
        progress_(progress),
        base_(singles.front().first),
        assigned_(singles.size(), kNotAcked),
        acked_(singles.size(), false),
        failures_(singles.size()),
        wrong_(singles.size()),
        delta_docs_(singles.size(), 0) {
    for (const Batch& b : singles_) {
      payloads_.push_back(
          opcode_ == net::Opcode::kSubmitLive
              ? net::EncodeSubmitLiveRequest({corpus_.Texts(b)})
              : net::EncodeSubmitDocumentsRequest({corpus_.Texts(b)}));
    }
  }

  std::pair<net::Opcode, std::string> Build(size_t i) override {
    progress_->ceiling.store(base_ + static_cast<DocId>(i) + 1);
    return {opcode_, payloads_[i]};
  }

  size_t OnReply(size_t i, uint64_t, const net::Frame& frame) override {
    DocId first = 0;
    uint32_t accepted = 0;
    if (opcode_ == net::Opcode::kSubmitLive) {
      auto r = net::DecodeSubmitLiveResponse(frame.payload);
      if (!r.ok()) return Failed(i, r.status());
      first = r->first_doc;
      accepted = r->accepted;
      delta_docs_[i] = r->delta_docs;
    } else {
      auto r = net::DecodeSubmitDocumentsResponse(frame.payload);
      if (!r.ok()) return Failed(i, r.status());
      first = r->first_doc;
      accepted = r->accepted;
    }
    const size_t slot = first - base_;
    if (accepted != 1 || first < base_ || slot >= acked_.size() ||
        acked_[slot]) {
      wrong_[i] = "submit acked as doc " + std::to_string(first);
      return 0;
    }
    assigned_[i] = first;
    acked_[slot] = true;
    while (cursor_ < acked_.size() && acked_[cursor_]) ++cursor_;
    progress_->floor.store(base_ + static_cast<DocId>(cursor_));
    progress_->latest.store(kLatestValid |
                            (static_cast<uint64_t>(singles_[i].first) << 32) |
                            first);
    const std::string marker = corpus_.doc(singles_[i].first).marker;
    if (Status s = conn()->Send(net::Opcode::kBooleanQuery, ExtraId(i),
                                net::EncodeBooleanQueryRequest({marker}));
        !s.ok()) {
      failures_[i] = s;
      return 0;
    }
    return 1;
  }

  void OnExtraReply(uint64_t id, const net::Frame& frame) override {
    const size_t i = id & ~ExtraId(0);
    auto r = net::DecodeBooleanQueryResponse(frame.payload);
    if (!r.ok()) {
      failures_[i] = r.status();
    } else if (r->result.docs != std::vector<DocId>{assigned_[i]}) {
      wrong_[i] = "acked doc " + std::to_string(assigned_[i]) +
                  " not found by its marker right after the ack";
    }
  }

  // The submit and its marker query both succeeded and were right.
  bool ok(size_t i) const { return failures_[i].ok() && wrong_[i].empty(); }
  // Counts the submit and its marker query as one operation.
  void Count(size_t i, Report* report) const {
    report->Count(failures_[i], wrong_[i]);
  }
  const std::vector<DocId>& assigned() const { return assigned_; }
  const std::vector<uint64_t>& delta_docs() const { return delta_docs_; }

 private:
  size_t Failed(size_t i, const Status& s) {
    failures_[i] = s;
    return 0;
  }

  const Corpus& corpus_;
  const std::vector<Batch>& singles_;
  net::Opcode opcode_;
  Progress* progress_;
  DocId base_;
  std::vector<std::string> payloads_;
  // Receiver-thread state.
  std::vector<DocId> assigned_;
  std::vector<bool> acked_;
  size_t cursor_ = 0;
  std::vector<Status> failures_;
  std::vector<std::string> wrong_;
  std::vector<uint64_t> delta_docs_;
};

// Open-loop queries. With `markers` set, every other query asks for the
// marker word of the newest acked single instead of the Zipf mix.
class QueryStream : public Stream {
 public:
  // Without `progress` the index is quiescent at `acked` documents.
  QueryStream(Conn* conn, std::vector<uint64_t> offsets,
              const std::vector<Query>& mix, const Corpus& corpus,
              DocId acked, Progress* progress, bool markers)
      : Stream(conn, std::move(offsets)),
        corpus_(corpus),
        acked_(acked),
        progress_(progress),
        markers_(markers),
        queries_(this->offsets().size()),
        floors_(this->offsets().size(), acked),
        replies_(this->offsets().size()) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      queries_[i] = mix[i % mix.size()];
      payloads_.push_back(EncodeQuery(queries_[i]));
    }
  }

  std::pair<net::Opcode, std::string> Build(size_t i) override {
    if (progress_ != nullptr) {
      floors_[i] = progress_->floor.load();
      const uint64_t latest = progress_->latest.load();
      if (markers_ && i % 2 == 1 && (latest & kLatestValid) != 0) {
        queries_[i] = MarkerQuery(
            corpus_, static_cast<DocId>((latest & ~kLatestValid) >> 32));
        queries_[i].marker_doc = static_cast<DocId>(latest & 0xffffffffu);
        payloads_[i] = EncodeQuery(queries_[i]);
      }
    }
    return payloads_[i];
  }

  size_t OnReply(size_t i, uint64_t, const net::Frame& frame) override {
    Reply& reply = replies_[i];
    DecodeReply(frame, progress_ == nullptr, &reply);
    reply.horizon.ceiling =
        progress_ == nullptr ? acked_ : progress_->ceiling.load();
    return 0;
  }

  // After the phase: checks every reply and appends (due time, latency
  // in us) of the successful ones.
  void Check(Report* report,
             std::vector<std::pair<uint64_t, double>>* latencies) {
    for (size_t i = 0; i < timings.size(); ++i) {
      Reply& reply = replies_[i];
      reply.horizon.floor = std::min(floors_[i], reply.horizon.ceiling);
      report->Count(reply.status,
                    reply.status.ok() ? WrongAnswer(corpus_, queries_[i], reply)
                                      : "");
      if (reply.status.ok()) {
        latencies->emplace_back(timings[i].due_ns, LatencyUs(timings[i]));
      }
    }
  }

 private:
  const Corpus& corpus_;
  DocId acked_;
  Progress* progress_;
  bool markers_;
  std::vector<Query> queries_;  // marker slots rewritten by the sender
  std::vector<std::pair<net::Opcode, std::string>> payloads_;
  std::vector<DocId> floors_;   // sender thread
  std::vector<Reply> replies_;  // receiver thread
};

// --- The run ----------------------------------------------------------------

class Run {
 public:
  explicit Run(const Options& options)
      : opt_(options), nproc_(Nproc()),
        spec_(SpecFor(options.workload, nproc_)),
        corpus_(options.seed, kDocsPerDay) {}

  Report Go() {
    if (Status s = Execute(); !s.ok()) report_.Abort(s.ToString());
    return std::move(report_);
  }

 private:
  Status Execute();
  void Plan();
  std::vector<std::string> DaemonArgs(const std::string& dir) const;
  Result<std::unique_ptr<Daemon>> StartDaemon(const std::string& dir);
  // Starts duplexd on an empty `dir` and preloads the daily batches;
  // appends the time until the last batch was acked to setup_s_.
  Status SetUpOnce(const std::string& dir, std::unique_ptr<Daemon>* daemon,
                   std::unique_ptr<Conn>* conn);
  Status Setup();
  // A set-up after the main phase, on its own daemon, discarded.
  Status LateSetup(int k);
  void ReportSetups();
  Status Probe(const char* when, bool markers);
  // Open-loop query streams sharing `spec_.query_rate` over
  // `spec_.query_conns` connections, so a stall of the daemon queues at
  // most rate / conns x stall on one connection.
  struct QueryStreams {
    std::vector<std::unique_ptr<Conn>> conns;
    std::vector<std::unique_ptr<QueryStream>> streams;
    std::vector<Query> planned;  // every query of the mix, for the replay
    std::vector<Stream*> raw() const {
      std::vector<Stream*> out;
      for (const auto& s : streams) out.push_back(s.get());
      return out;
    }
  };
  Result<QueryStreams> OpenQueryStreams(uint64_t salt, Progress* progress,
                                        bool markers);
  // Checks every reply and keeps the latencies, in due-time order.
  void FinishQueryStreams(QueryStreams* q);
  Status QueryZipfMain();
  Status IngestMain();
  Status LiveMain();
  // One closed-loop slice of the query_qps phase; ReportClosed takes the
  // median over the windows of every slice.
  Status ClosedSlice();
  void ReportClosed();
  Status FreshPhase(const std::vector<Batch>& singles);
  Status ModelledMetrics();
  Status ShutdownAndRestart();
  Status TakeScrape(Scrape* out);
  void RecordOpenLoop(const std::vector<Stream*>& streams);
  void LayerMetricsFromScrapes();
  Status Replay();
  void E2E(const std::string& name, double value, const std::string& unit,
           const std::string& better, const std::string& kind = "measured",
           const std::string& detail = "") {
    report_.end_to_end[name] = {value, unit, better, kind, detail};
  }
  void Layer(const std::string& name, double value, const std::string& unit,
             const std::string& better, const std::string& detail = "") {
    report_.layers[name] = {value, unit, better, "measured", detail};
  }
  void Timing(const std::string& prefix, const std::vector<double>& us,
              const std::string& unit = "us") {
    const Summary s = Summarize(us);
    const std::string samples = std::to_string(s.samples) + " samples";
    const std::string pct = "p" + std::to_string(s.tail_pct).substr(0, 4);
    E2E(prefix + "_p50_" + unit, s.median, unit, "lower", "measured",
        "median of " + samples);
    E2E(prefix + "_p99_" + unit, s.valid ? s.tail : 0, unit, "lower",
        "measured",
        s.groups >= 2
            ? "median " + pct + " of " + std::to_string(s.groups) +
                  " groups of " + std::to_string(kTailGroup) + " in " +
                  samples + "; " + pct + " of all: " +
                  std::to_string(s.whole_tail)
            : pct + " of " + samples);
    if (!s.valid) {
      report_.invalid = true;
      report_.errors.push_back(prefix + ": too few samples for a tail");
    }
  }
  // Reconciles the doc ids the daemon assigned to singles (two workers
  // may run neighbouring submits out of order, and a refused submit gets
  // none) with the plan.
  Status AdoptAssignedIds(const std::vector<Batch>& singles,
                          const std::vector<DocId>& assigned);

  Options opt_;
  size_t nproc_;
  Spec spec_;
  Corpus corpus_;
  Report report_;
  std::vector<Batch> preload_;
  std::vector<Batch> ingest_;
  std::vector<Batch> singles_;
  std::vector<std::string> preload_payloads_;
  std::vector<uint64_t> ranked_;
  std::vector<Query> probes_;
  std::vector<uint64_t> single_offsets_;
  std::vector<Query> replay_sample_;
  std::string data_dir_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<Conn> conn_;
  DocId acked_ = 0;
  std::vector<double> query_latency_us_;
  std::vector<RequestTiming> open_timings_;
  std::vector<double> visible_us_;
  std::vector<double> setup_s_;
  std::vector<Query> closed_pool_;
  std::vector<std::pair<net::Opcode, std::string>> closed_payloads_;
  uint64_t closed_next_ = 0;  // first pool index of the next slice
  uint64_t closed_completed_ = 0;
  std::vector<double> closed_rates_;
  std::vector<double> preload_docs_per_s_;
  std::vector<double> shutdown_s_;
  uint64_t queries_in_main_ = 0;
  uint64_t batches_in_main_ = 0;
  uint64_t postings_in_main_ = 0;
  double max_delta_docs_ = 0;
  Scrape before_main_, after_main_, after_restart_;
};

void Run::Plan() {
  for (uint32_t day = 0; day < kPreloadDays; ++day) {
    preload_.push_back(corpus_.AddDay(day));
  }
  uint32_t next_day = kPreloadDays;
  if (spec_.ingest_days_per_s > 0) {
    const auto days = static_cast<uint32_t>(
        std::lround(spec_.ingest_days_per_s * opt_.seconds));
    for (uint32_t d = 0; d < std::max<uint32_t>(days, 2); ++d) {
      ingest_.push_back(corpus_.AddDay(next_day++));
    }
  }
  const double single_rate =
      spec_.live_ingest ? spec_.live_rate : spec_.fresh_rate;
  const double single_seconds =
      spec_.live_ingest ? opt_.seconds : spec_.fresh_seconds;
  single_offsets_ = PoissonSchedule(single_rate, single_seconds,
                                    opt_.seed * 7919 + 1);
  singles_ = corpus_.AddSingles(static_cast<uint32_t>(single_offsets_.size()),
                                next_day);
  corpus_.BuildOracle();

  for (const Batch& b : preload_) {
    preload_payloads_.push_back(
        net::EncodeSubmitDocumentsRequest({corpus_.Texts(b)}));
  }
  ranked_ = corpus_.RankWords(preload_.back().first + preload_.back().count);
  QueryMix probe_mix(ranked_, opt_.seed * 31 + 7);
  for (size_t i = 0; i < kProbeQueries; ++i) probes_.push_back(probe_mix.Next());

  report_.info["scale"] =
      "{\"docs_per_day\": " + std::to_string(kDocsPerDay) +
      ", \"preload_days\": " + std::to_string(kPreloadDays) +
      ", \"ingest_days\": " + std::to_string(ingest_.size()) +
      ", \"single_docs\": " + std::to_string(singles_.size()) +
      ", \"planned_docs\": " + std::to_string(corpus_.size()) +
      ", \"preload_postings\": " +
      std::to_string(corpus_.PostingsBefore(preload_.back().first +
                                            preload_.back().count)) +
      ", \"distinct_words_at_preload\": " + std::to_string(ranked_.size()) +
      ", \"setups\": " + std::to_string(kSetups) +
      ", \"restarts\": " + std::to_string(kRestarts) + "}";
}

std::vector<std::string> Run::DaemonArgs(const std::string& dir) const {
  std::vector<std::string> args = {
      "--port", "0", "--admin-port", "0", "--workers", "2",
      "--log-level", "warn", "--wal", dir + "/wal", "--checkpoint",
      dir + "/ckpt"};
  if (spec_.live_ingest) args.push_back("--live-ingest");
  return args;
}

Result<std::unique_ptr<Daemon>> Run::StartDaemon(const std::string& dir) {
  fs::create_directories(dir);
  return Daemon::Start(opt_.duplexd, DaemonArgs(dir), dir + ".log");
}

Status Run::SetUpOnce(const std::string& dir,
                      std::unique_ptr<Daemon>* daemon,
                      std::unique_ptr<Conn>* conn) {
  const uint64_t start = NowNs();
  Result<std::unique_ptr<Daemon>> started = StartDaemon(dir);
  if (!started.ok()) return started.status();
  *daemon = std::move(*started);
  Result<std::unique_ptr<Conn>> opened = Conn::Open((*daemon)->port());
  if (!opened.ok()) return opened.status();
  *conn = std::move(*opened);
  for (size_t b = 0; b < preload_.size(); ++b) {
    const uint64_t sent = NowNs();
    Result<std::string> reply = Call(conn->get(),
                                     net::Opcode::kSubmitDocuments,
                                     preload_payloads_[b]);
    preload_docs_per_s_.push_back(
        preload_[b].count / (static_cast<double>(NowNs() - sent) / 1e9));
    if (!reply.ok()) return reply.status();
    auto resp = net::DecodeSubmitDocumentsResponse(*reply);
    if (!resp.ok()) return resp.status();
    report_.Count(Status::OK(),
                  resp->first_doc == preload_[b].first &&
                          resp->accepted == preload_[b].count
                      ? ""
                      : "preload batch " + std::to_string(b) +
                            " got doc ids from " +
                            std::to_string(resp->first_doc));
  }
  setup_s_.push_back(static_cast<double>(NowNs() - start) / 1e9);
  return Status::OK();
}

Status Run::Setup() {
  for (int k = 0; k < kSetupsBefore; ++k) {
    const std::string dir = opt_.work_dir + "/setup" + std::to_string(k);
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<Conn> conn;
    DUPLEX_RETURN_IF_ERROR(SetUpOnce(dir, &daemon, &conn));
    if (k + 1 < kSetupsBefore) {
      conn.reset();
      daemon.reset();  // SIGKILL: only the last set-up is kept
      fs::remove_all(dir);
      continue;
    }
    daemon_ = std::move(daemon);
    conn_ = std::move(conn);
    data_dir_ = dir;
  }
  acked_ = preload_.back().first + preload_.back().count;
  return Status::OK();
}

Status Run::LateSetup(int k) {
  const std::string dir = opt_.work_dir + "/setup" + std::to_string(k);
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Conn> conn;
  DUPLEX_RETURN_IF_ERROR(SetUpOnce(dir, &daemon, &conn));
  conn.reset();
  daemon.reset();
  fs::remove_all(dir);
  return Status::OK();
}

void Run::ReportSetups() {
  std::string samples;
  for (const double s : setup_s_) {
    samples += (samples.empty() ? "[" : ", ") + Number(s);
  }
  report_.info["setup_s_samples"] = samples + "]";
  E2E("setup_s", Median(setup_s_), "s", "lower", "measured",
      "median of " + std::to_string(setup_s_.size()) +
          " daemon starts + preloads of " + std::to_string(preload_.size()) +
          " daily batches, " + std::to_string(kSetupsBefore) +
          " before the main phase and the rest between the closed-loop "
          "slices");
  if (opt_.workload != "ingest_daily") {
    E2E("ingest_docs_per_s", Median(preload_docs_per_s_), "1/s", "higher",
        "measured",
        "documents over ack time, median of the " +
            std::to_string(preload_docs_per_s_.size()) +
            " preload batches of " + std::to_string(setup_s_.size()) +
            " set-ups");
  }
}

Status Run::Probe(const char* when, bool markers) {
  for (const Query& q : probes_) {
    auto [opcode, payload] = EncodeQuery(q);
    Result<std::string> raw = Call(conn_.get(), opcode, payload);
    Reply reply;
    if (!raw.ok()) {
      reply.status = raw.status();
    } else {
      net::Frame frame;
      frame.header.opcode = static_cast<uint8_t>(opcode) | net::kResponseBit;
      frame.payload = std::move(*raw);
      DecodeReply(frame, false, &reply);
    }
    reply.horizon = {acked_, acked_};
    const std::string error =
        reply.status.ok() ? WrongAnswer(corpus_, q, reply) : "";
    report_.Count(reply.status,
                  error.empty() ? "" : std::string(when) + ": " + error);
  }
  if (!markers) return Status::OK();
  // Acked single documents must survive the restart too.
  for (size_t i = 0; i < singles_.size(); i += 7) {
    const DocId doc = singles_[i].first;
    if (doc >= acked_) continue;
    Query q = MarkerQuery(corpus_, doc);
    Result<std::string> raw = Call(conn_.get(), net::Opcode::kBooleanQuery,
                                   net::EncodeBooleanQueryRequest({q.text}));
    Reply reply;
    if (!raw.ok()) {
      reply.status = raw.status();
    } else {
      auto r = net::DecodeBooleanQueryResponse(*raw);
      if (r.ok()) {
        reply.docs = std::move(r->result.docs);
      } else {
        reply.status = r.status();
      }
    }
    const std::string error =
        reply.status.ok() ? WrongAnswer(corpus_, q, reply) : "";
    report_.Count(reply.status,
                  error.empty() ? "" : std::string(when) + ": " + error);
  }
  return Status::OK();
}

void Run::RecordOpenLoop(const std::vector<Stream*>& streams) {
  for (const Stream* s : streams) {
    open_timings_.insert(open_timings_.end(), s->timings.begin(),
                         s->timings.end());
  }
  std::sort(open_timings_.begin(), open_timings_.end(),
            [](const RequestTiming& a, const RequestTiming& b) {
              return a.due_ns < b.due_ns;
            });
}

Result<Run::QueryStreams> Run::OpenQueryStreams(uint64_t salt,
                                                Progress* progress,
                                                bool markers) {
  QueryStreams q;
  for (size_t c = 0; c < spec_.query_conns; ++c) {
    Result<std::unique_ptr<Conn>> conn = Conn::Open(daemon_->port());
    if (!conn.ok()) return conn.status();
    QueryMix mix(ranked_, opt_.seed * 65537 + salt * 8 + c);
    const std::vector<uint64_t> offsets = PoissonSchedule(
        spec_.query_rate / static_cast<double>(spec_.query_conns),
        opt_.seconds, opt_.seed * 104729 + salt * 8 + c);
    std::vector<Query> queries;
    for (size_t i = 0; i < offsets.size(); ++i) queries.push_back(mix.Next());
    q.streams.push_back(std::make_unique<QueryStream>(
        conn->get(), offsets, queries, corpus_, acked_, progress, markers));
    q.conns.push_back(std::move(*conn));
    q.planned.insert(q.planned.end(), queries.begin(), queries.end());
  }
  return q;
}

void Run::FinishQueryStreams(QueryStreams* q) {
  RecordOpenLoop(q->raw());
  std::vector<std::pair<uint64_t, double>> latencies;
  for (auto& stream : q->streams) {
    stream->Check(&report_, &latencies);
    queries_in_main_ += stream->timings.size();
  }
  std::sort(latencies.begin(), latencies.end());
  for (const auto& entry : latencies) query_latency_us_.push_back(entry.second);
  if (replay_sample_.empty()) {
    replay_sample_.assign(
        q->planned.begin(),
        q->planned.begin() + std::min(q->planned.size(), kReplayQueries));
  }
}

Status Run::QueryZipfMain() {
  Result<QueryStreams> q = OpenQueryStreams(1, nullptr, false);
  if (!q.ok()) return q.status();
  DUPLEX_RETURN_IF_ERROR(RunOpenLoop(q->raw()));
  FinishQueryStreams(&*q);
  return Status::OK();
}

Status Run::IngestMain() {
  Progress progress;
  progress.floor = acked_;
  progress.ceiling = acked_;
  Result<std::unique_ptr<Conn>> ingest_conn = Conn::Open(daemon_->port());
  if (!ingest_conn.ok()) return ingest_conn.status();
  std::vector<std::string> payloads;
  for (const Batch& b : ingest_) {
    payloads.push_back(net::EncodeSubmitDocumentsRequest({corpus_.Texts(b)}));
  }
  Result<QueryStreams> q = OpenQueryStreams(2, &progress, false);
  if (!q.ok()) return q.status();
  Status ingest_status;
  std::vector<std::string> ingest_errors;
  std::vector<double> docs_per_s;
  std::atomic<bool> ingest_done{false};
  std::thread submitter([&] {
    for (size_t b = 0; b < ingest_.size() && ingest_status.ok(); ++b) {
      progress.ceiling.store(ingest_[b].first + ingest_[b].count);
      const uint64_t sent = NowNs();
      Result<std::string> reply = Call(ingest_conn->get(),
                                       net::Opcode::kSubmitDocuments,
                                       payloads[b]);
      auto resp = reply.ok() ? net::DecodeSubmitDocumentsResponse(*reply)
                             : Result<net::SubmitDocumentsResponse>(
                                   reply.status());
      if (!resp.ok()) {
        ingest_status = resp.status();
        break;
      }
      docs_per_s.push_back(ingest_[b].count /
                           (static_cast<double>(NowNs() - sent) / 1e9));
      if (resp->first_doc != ingest_[b].first ||
          resp->accepted != ingest_[b].count) {
        ingest_errors.push_back("ingest batch " + std::to_string(b) +
                                " got doc ids from " +
                                std::to_string(resp->first_doc));
      }
      progress.floor.store(ingest_[b].first + ingest_[b].count);
    }
    ingest_done.store(true);
  });

  Status open = RunOpenLoop(q->raw(), &ingest_done);
  submitter.join();
  DUPLEX_RETURN_IF_ERROR(open);
  DUPLEX_RETURN_IF_ERROR(ingest_status);
  report_.attempted += ingest_.size();
  for (const std::string& e : ingest_errors) report_.Wrong(e);
  FinishQueryStreams(&*q);
  acked_ = ingest_.back().first + ingest_.back().count;
  batches_in_main_ = ingest_.size();
  for (const Batch& b : ingest_) {
    for (DocId d = b.first; d < b.first + b.count; ++d) {
      postings_in_main_ += corpus_.doc(d).keys.size();
    }
  }
  E2E("ingest_docs_per_s", Median(docs_per_s), "1/s", "higher", "measured",
      "documents over ack time, median of " +
          std::to_string(ingest_.size()) +
          " daily batches submitted back to back");
  return Status::OK();
}

Status Run::AdoptAssignedIds(const std::vector<Batch>& singles,
                             const std::vector<DocId>& assigned) {
  // The acked ids must be the planned range minus the refused submits;
  // the plan (and with it the oracle) then follows the daemon's order.
  std::vector<DocId> sorted;
  for (const DocId d : assigned) {
    if (d != kNotAcked) sorted.push_back(d);
  }
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] != singles.front().first + i) {
      return Status::Corruption("daemon assigned doc ids outside the plan");
    }
  }
  corpus_.Adopt(singles.front().first, assigned);
  return Status::OK();
}

Status Run::LiveMain() {
  Progress progress;
  progress.floor = acked_;
  progress.ceiling = acked_;
  Result<std::unique_ptr<Conn>> live_conn = Conn::Open(daemon_->port());
  if (!live_conn.ok()) return live_conn.status();
  SingleDocStream live(live_conn->get(), single_offsets_, corpus_, singles_,
                       net::Opcode::kSubmitLive, &progress);
  Result<QueryStreams> q = OpenQueryStreams(3, &progress, true);
  if (!q.ok()) return q.status();
  std::vector<Stream*> streams = q->raw();
  streams.push_back(&live);
  DUPLEX_RETURN_IF_ERROR(RunOpenLoop(streams));
  RecordOpenLoop({&live});
  for (size_t i = 0; i < singles_.size(); ++i) {
    live.Count(i, &report_);
    if (live.ok(i)) visible_us_.push_back(LatencyUs(live.timings[i]));
    max_delta_docs_ =
        std::max(max_delta_docs_, static_cast<double>(live.delta_docs()[i]));
  }
  DUPLEX_RETURN_IF_ERROR(AdoptAssignedIds(singles_, live.assigned()));
  FinishQueryStreams(&*q);
  acked_ = corpus_.size();
  batches_in_main_ = singles_.size();
  for (const Batch& b : singles_) {
    postings_in_main_ += corpus_.doc(b.first).keys.size() + 1;
  }
  return Status::OK();
}

Status Run::ClosedSlice() {
  if (closed_pool_.empty()) {
    QueryMix mix(ranked_, opt_.seed * 65537 + 19);
    // A pool about half as large as the three slices complete on a quiet
    // host, so the rate averages over the mix rather than a few repeats.
    for (size_t i = 0; i < kClosedPool; ++i) {
      closed_pool_.push_back(mix.Next());
      closed_payloads_.push_back(EncodeQuery(closed_pool_.back()));
    }
  }
  std::vector<std::unique_ptr<Conn>> owned;
  std::vector<Conn*> conns;
  for (size_t c = 0; c < spec_.closed_conns; ++c) {
    Result<std::unique_ptr<Conn>> conn = Conn::Open(daemon_->port());
    if (!conn.ok()) return conn.status();
    conns.push_back(conn->get());
    owned.push_back(std::move(*conn));
  }
  const size_t nconns = spec_.closed_conns;
  std::vector<std::vector<std::pair<size_t, Reply>>> replies(nconns);
  const auto pick = [&](size_t c, uint64_t n) {
    return (closed_next_ + n * nconns + c) % closed_pool_.size();
  };
  Result<ClosedLoopResult> result = RunClosedLoop(
      conns, kClosedSliceSeconds,
      [&](size_t c, uint64_t n) { return closed_payloads_[pick(c, n)]; },
      [&](size_t c, uint64_t n, const net::Frame& frame) {
        Reply reply;
        DecodeReply(frame, true, &reply);
        reply.horizon = {acked_, acked_};
        replies[c].emplace_back(pick(c, n), std::move(reply));
      });
  if (!result.ok()) return result.status();
  for (const auto& per_conn : replies) {
    for (const auto& [index, reply] : per_conn) {
      report_.Count(reply.status,
                    reply.status.ok()
                        ? WrongAnswer(corpus_, closed_pool_[index], reply)
                        : "");
    }
  }
  closed_next_ += result->completed;
  closed_completed_ += result->completed;
  closed_rates_.insert(closed_rates_.end(), result->window_rates.begin(),
                       result->window_rates.end());
  return Status::OK();
}

void Run::ReportClosed() {
  std::vector<double> rates = closed_rates_;
  std::sort(rates.begin(), rates.end());
  E2E("query_qps", Median(rates), "1/s", "higher", "measured",
      "closed loop, " + std::to_string(spec_.closed_conns) +
          " connections, " + std::to_string(closed_completed_) +
          " queries in " + std::to_string(kClosedSlices) +
          " slices; median of " + std::to_string(rates.size()) +
          " windows of " + std::to_string(kRateWindowSeconds).substr(0, 4) +
          " s (p25 " + Number(NearestRank(rates, 25)) + ", p75 " +
          Number(NearestRank(rates, 75)) + ")");
}

Status Run::FreshPhase(const std::vector<Batch>& singles) {
  Progress progress;
  progress.floor = acked_;
  progress.ceiling = acked_;
  Result<std::unique_ptr<Conn>> conn = Conn::Open(daemon_->port());
  if (!conn.ok()) return conn.status();
  SingleDocStream stream(conn->get(), single_offsets_, corpus_, singles,
                         net::Opcode::kSubmitDocuments, &progress);
  DUPLEX_RETURN_IF_ERROR(RunOpenLoop({&stream}));
  RecordOpenLoop({&stream});
  for (size_t i = 0; i < singles.size(); ++i) {
    stream.Count(i, &report_);
    if (stream.ok(i)) visible_us_.push_back(LatencyUs(stream.timings[i]));
  }
  DUPLEX_RETURN_IF_ERROR(AdoptAssignedIds(singles, stream.assigned()));
  acked_ = corpus_.size();
  return Status::OK();
}

double JsonNumber(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

Status Run::ModelledMetrics() {
  Result<std::string> raw = Call(conn_.get(), net::Opcode::kStats, "");
  if (!raw.ok()) return raw.status();
  auto stats = net::DecodeStatsResponse(*raw);
  if (!stats.ok()) return stats.status();
  const std::string& json = stats->json;
  const double updates = JsonNumber(json, "updates_applied");
  E2E("io_ops_per_batch", JsonNumber(json, "io_ops") / std::max(updates, 1.0),
      "ops", "lower", "modelled",
      "paper Fig. 8: modelled I/O ops over " +
          std::to_string(static_cast<uint64_t>(updates)) + " batches");
  E2E("long_utilization", JsonNumber(json, "long_utilization"), "ratio",
      "higher", "modelled", "paper Fig. 9");
  E2E("reads_per_list", JsonNumber(json, "avg_reads_per_list"), "ops",
      "lower", "modelled", "paper Fig. 10: reads per long list");
  return Status::OK();
}

uint64_t DirBytes(const std::string& dir, const std::string& prefix = "") {
  uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind(prefix, 0) == 0) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

Status Run::ShutdownAndRestart() {
  Result<double> rss = daemon_->PeakRssMib();
  if (!rss.ok()) return rss.status();
  E2E("peak_rss_mib", *rss, "MiB", "lower", "measured",
      "duplexd VmHWM before shutdown");
  if (opt_.trace) Layer("wal.bytes_per_doc",
                        static_cast<double>(DirBytes(data_dir_, "wal")) /
                            acked_,
                        "B", "lower", "WAL file size over acked documents");
  conn_.reset();
  Result<double> stopped = daemon_->Stop();
  if (!stopped.ok()) return stopped.status();
  shutdown_s_.push_back(*stopped);
  daemon_.reset();
  const uint64_t disk = DirBytes(data_dir_);
  E2E("disk_bytes_per_input_byte",
      static_cast<double>(disk) / static_cast<double>(corpus_.TextBytes(acked_)),
      "ratio", "lower", "measured",
      "WAL + checkpoint bytes after a clean shutdown per input text byte");
  if (opt_.trace) {
    Layer("ckpt.image_bytes", static_cast<double>(DirBytes(data_dir_, "ckpt")),
          "B", "lower", "checkpoint files on disk after shutdown");
  }

  std::vector<double> restart_s;
  for (int r = 0; r < kRestarts; ++r) {
    const uint64_t start = NowNs();
    Result<std::unique_ptr<Daemon>> daemon = StartDaemon(data_dir_);
    if (!daemon.ok()) return daemon.status();
    restart_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    daemon_ = std::move(*daemon);
    Result<std::unique_ptr<Conn>> conn = Conn::Open(daemon_->port());
    if (!conn.ok()) return conn.status();
    conn_ = std::move(*conn);
    DUPLEX_RETURN_IF_ERROR(Probe("after restart", true));
    if (opt_.trace && r == 0) {
      DUPLEX_RETURN_IF_ERROR(TakeScrape(&after_restart_));
    }
    conn_.reset();
    Result<double> s = daemon_->Stop();
    if (!s.ok()) return s.status();
    shutdown_s_.push_back(*s);
    daemon_.reset();
  }
  E2E("shutdown_s", Median(shutdown_s_), "s", "lower", "measured",
      "SIGTERM until exit incl. final checkpoint, median of " +
          std::to_string(shutdown_s_.size()));
  E2E("restart_s", Median(restart_s), "s", "lower", "measured",
      "relaunch on the same WAL + checkpoint until serving, median of " +
          std::to_string(restart_s.size()));
  return Status::OK();
}

Status Run::TakeScrape(Scrape* out) {
  Result<Scrape> s = ScrapeMetrics(daemon_->admin_port());
  if (!s.ok()) return s.status();
  *out = std::move(*s);
  return Status::OK();
}

// Sums every series of a family (all label values).
double FamilyDelta(const Scrape& before, const Scrape& after,
                   const std::string& family) {
  double total = 0;
  for (const auto& [series, value] : after.values) {
    if (series == family || series.rfind(family + "{", 0) == 0) {
      total += value - before.Value(series);
    }
  }
  return total;
}

duplex::MetricsSnapshot::HistogramView FamilyHist(const Scrape& before,
                                                  const Scrape& after,
                                                  const std::string& family) {
  duplex::MetricsSnapshot::HistogramView merged;
  size_t lowest = duplex::LatencyHistogram::kBuckets, highest = 0;
  for (const auto& [series, hist] : after.hists) {
    if (series != family && series.rfind(family + "{", 0) != 0) continue;
    const auto d = Scrape::DeltaHist(before, after, series);
    merged.count += d.count;
    merged.sum += d.sum;
    for (size_t b = 0; b < d.buckets.size(); ++b) {
      merged.buckets[b] += d.buckets[b];
      if (d.buckets[b] > 0) {
        lowest = std::min(lowest, b);
        highest = std::max(highest, b);
      }
    }
  }
  if (merged.count > 0) {
    merged.min = duplex::LatencyHistogram::BucketLowerBound(lowest);
    merged.max = duplex::LatencyHistogram::BucketUpperBound(highest);
  }
  return merged;
}

void Run::LayerMetricsFromScrapes() {
  const Scrape& a = before_main_;
  const Scrape& b = after_main_;
  const auto hist_metric = [&](const std::string& name,
                               const std::string& family, double pct,
                               double scale, const std::string& unit) {
    const auto h = FamilyHist(a, b, family);
    Layer(name, h.count == 0 ? 0 : h.Percentile(pct) / scale, unit, "lower",
          family + " over the main phase, " + std::to_string(h.count) +
              " observations");
  };
  const auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  hist_metric("net.queue_wait_us.p50",
              "duplex_net_phase_ns{phase=\"queue_wait\"}", 50, 1e3, "us");
  hist_metric("net.queue_wait_us.p99",
              "duplex_net_phase_ns{phase=\"queue_wait\"}", 99, 1e3, "us");
  hist_metric("net.execute_us.p50", "duplex_net_phase_ns{phase=\"execute\"}",
              50, 1e3, "us");
  hist_metric("net.respond_us.p50", "duplex_net_phase_ns{phase=\"respond\"}",
              50, 1e3, "us");
  const double requests = FamilyDelta(a, b, "duplex_net_requests_total");
  Layer("net.busy_ratio",
        ratio(FamilyDelta(a, b, "duplex_net_rejected_total"), requests),
        "ratio", "lower", "typed BUSY over requests");
  Layer("net.bytes_per_request",
        ratio(FamilyDelta(a, b, "duplex_net_bytes_total"), requests), "B",
        "lower", "socket bytes in + out per request");
  hist_metric("live.submit_us.p50", "duplex_core_live_submit_ns", 50, 1e3,
              "us");
  hist_metric("live.submit_us.p99", "duplex_core_live_submit_ns", 99, 1e3,
              "us");
  hist_metric("live.drain_ms.p50", "duplex_core_delta_drain_ns", 50, 1e6,
              "ms");
  hist_metric("live.drain_ms.max", "duplex_core_delta_drain_ns", 100, 1e6,
              "ms");
  Layer("live.delta_docs.max", max_delta_docs_, "docs", "lower",
        "largest delta depth a SubmitLive ack reported");
  Layer("live.busy_total", FamilyDelta(a, b, "duplex_core_live_busy"),
        "count", "lower", "live submits refused BUSY");
  Layer("storage.device_reads_per_query",
        ratio(FamilyDelta(a, b, "duplex_storage_device_reads_total"),
              static_cast<double>(queries_in_main_)),
        "ops", "lower", "device reads over open-loop queries of the phase");
  Layer("storage.device_writes_per_batch",
        ratio(FamilyDelta(a, b, "duplex_storage_device_writes_total"),
              static_cast<double>(batches_in_main_)),
        "ops", "lower", "device writes over submits of the phase");
  hist_metric("core.batch_apply_ms.p50", "duplex_core_batch_apply_ns", 50, 1e6,
              "ms");
  hist_metric("core.partition_ms.p50", "duplex_core_partition_ns", 50, 1e6,
              "ms");
  hist_metric("core.flush_meta_ms.p50", "duplex_core_flush_meta_ns", 50, 1e6,
              "ms");
  double shard_max = 0, shard_sum = 0, shards = 0;
  for (const auto& [series, hist] : b.hists) {
    if (series.rfind("duplex_core_shard_apply_ns{", 0) != 0) continue;
    const double busy =
        static_cast<double>(Scrape::DeltaHist(a, b, series).sum);
    shard_max = std::max(shard_max, busy);
    shard_sum += busy;
    ++shards;
  }
  Layer("core.shard_apply_max_over_mean",
        ratio(shard_max, shards == 0 ? 0 : shard_sum / shards), "ratio",
        "lower", "busiest shard's apply time over the mean");
  const double postings = static_cast<double>(postings_in_main_);
  Layer("core.postings_moved_per_posting",
        ratio(FamilyDelta(a, b, "duplex_core_long_postings_moved_total"),
              postings),
        "ratio", "lower", "long-list postings moved per posting ingested");
  Layer("core.in_place_ratio",
        ratio(FamilyDelta(a, b, "duplex_core_long_in_place_updates_total"),
              FamilyDelta(a, b, "duplex_core_long_appends_total")),
        "ratio", "higher", "in-place long-list updates over long appends");
  Layer("core.bucket_promotions_per_batch",
        ratio(FamilyDelta(a, b, "duplex_core_bucket_promotions_total"),
              static_cast<double>(batches_in_main_)),
        "count", "lower", "short lists promoted to long per submit");
  hist_metric("wal.append_us.p50", "duplex_core_wal_append_ns", 50, 1e3, "us");
  hist_metric("wal.fsync_us.p50", "duplex_core_wal_fsync_ns", 50, 1e3, "us");
  const auto replay =
      FamilyHist(Scrape{}, after_restart_, "duplex_core_wal_replay_ns");
  Layer("wal.replay_ms", static_cast<double>(replay.sum) / 1e6, "ms", "lower",
        "WAL replay time of the first restart");
  const Summary late = JudgeLateness(open_timings_).lateness_us;
  Layer("bench.gen_late_us.p99", late.tail, "us", "lower",
        "p" + std::to_string(late.tail_pct).substr(0, 4) + " of " +
            std::to_string(late.samples) + " open-loop sends");
}

Status Run::Replay() {
  ReplayPlan plan;
  plan.batches = preload_;
  plan.batches.insert(plan.batches.end(), ingest_.begin(), ingest_.end());
  if (spec_.live_ingest) plan.live = singles_;
  plan.queries = replay_sample_;
  plan.scratch_dir = opt_.work_dir + "/replay";
  plan.trace_path = opt_.report.substr(0, opt_.report.rfind('.')) +
                    ".trace.json";
  Result<LayerTimes> times = RunReplay(corpus_, plan, &report_);
  if (!times.ok()) return times.status();

  // Where one query's median time goes: the daemon's own phase
  // histograms split server time into waiting, execution and reply, and
  // the in-process replay splits execution into executor self time and
  // reader time. What remains is client, kernel and loopback.
  const auto phase = [&](const char* which) {
    const auto h = FamilyHist(before_main_, after_main_,
                              std::string("duplex_net_phase_ns{phase=\"") +
                                  which + "\"}");
    return h.count == 0 ? 0.0 : h.Percentile(50) / 1e3;
  };
  const double e2e = report_.end_to_end["query_p50_us"].value;
  const double wait = phase("queue_wait");
  const double execute = phase("execute");
  const double respond = phase("respond");
  const double ir_share =
      times->eval_us > 0 ? times->ir_self_us / times->eval_us : 0;
  std::ostringstream table;
  char buf[256];
  const auto row = [&](const char* layer, const char* kind, double us,
                       bool last = false) {
    std::snprintf(buf, sizeof buf,
                  "{\"layer\": \"%s\", \"kind\": \"%s\", \"us\": %.3f, "
                  "\"pct_of_query_p50\": %.2f}%s",
                  layer, kind, us, e2e > 0 ? 100 * us / e2e : 0,
                  last ? "" : ", ");
    table << buf;
  };
  table << "[";
  row("net.queue_wait", "waiting", wait);
  row("ir.QueryExecutor", "self", execute * ir_share);
  row("core.reader", "self", execute * (1 - ir_share));
  row("net.respond", "self", respond);
  row("client+kernel+loopback", "self",
      std::max(0.0, e2e - wait - execute - respond), true);
  table << "]";
  report_.info["self_time_table"] = table.str();
  const double accounted = e2e > 0 ? 100 * (wait + execute + respond) / e2e : 0;
  Layer("bench.layers_pct_of_query_p50", accounted, "%", "higher",
        "daemon phase medians over the client-side query p50");
  return Status::OK();
}

Status Run::Execute() {
  if (spec_.query_conns == 0 || spec_.closed_conns == 0) {
    return Status::FailedPrecondition(
        opt_.workload + " needs at least " +
        std::to_string(spec_.other_conns + 1) + " cores; nproc is " +
        std::to_string(nproc_));
  }
  report_.info["generator"] =
      "{\"nproc\": " + std::to_string(nproc_) +
      ", \"max_threads\": " +
      std::to_string(std::min(kGeneratorThreads, nproc_)) +
      ", \"query_connections\": " + std::to_string(spec_.query_conns) +
      ", \"closed_loop_connections\": " + std::to_string(spec_.closed_conns) +
      "}";
  Plan();
  DUPLEX_RETURN_IF_ERROR(Setup());
  DUPLEX_RETURN_IF_ERROR(Probe("after preload", false));
  if (opt_.trace) DUPLEX_RETURN_IF_ERROR(TakeScrape(&before_main_));
  if (opt_.workload == "query_zipf") {
    DUPLEX_RETURN_IF_ERROR(QueryZipfMain());
  } else if (opt_.workload == "ingest_daily") {
    DUPLEX_RETURN_IF_ERROR(IngestMain());
  } else {
    DUPLEX_RETURN_IF_ERROR(LiveMain());
  }
  if (opt_.trace) DUPLEX_RETURN_IF_ERROR(TakeScrape(&after_main_));
  DUPLEX_RETURN_IF_ERROR(Probe("after the main phase", false));
  DUPLEX_RETURN_IF_ERROR(ModelledMetrics());
  DUPLEX_RETURN_IF_ERROR(ClosedSlice());
  if (!spec_.live_ingest) DUPLEX_RETURN_IF_ERROR(FreshPhase(singles_));
  // The remaining set-ups between the other slices; the kept daemon idles
  // meanwhile.
  static_assert(kSetups - kSetupsBefore == 3 && kClosedSlices == 3);
  DUPLEX_RETURN_IF_ERROR(LateSetup(kSetupsBefore));
  DUPLEX_RETURN_IF_ERROR(ClosedSlice());
  DUPLEX_RETURN_IF_ERROR(LateSetup(kSetupsBefore + 1));
  DUPLEX_RETURN_IF_ERROR(LateSetup(kSetupsBefore + 2));
  DUPLEX_RETURN_IF_ERROR(ClosedSlice());
  ReportSetups();
  ReportClosed();
  Timing("query", query_latency_us_);
  Timing("visible", visible_us_);
  DUPLEX_RETURN_IF_ERROR(ShutdownAndRestart());

  const LatenessVerdict late = JudgeLateness(open_timings_);
  report_.info["generator_lateness_us"] =
      "{\"p99\": " + std::to_string(late.lateness_us.tail) +
      ", \"median\": " + std::to_string(late.lateness_us.median) +
      ", \"samples\": " + std::to_string(late.lateness_us.samples) +
      ", \"latency_p99\": " + std::to_string(late.latency_us.tail) +
      ", \"bound\": " + std::to_string(late.bound_us) + "}";
  if (!late.valid) report_.invalid = true;
  report_.info["generator_scheduling"] =
      RealtimeGranted() ? "\"SCHED_FIFO\""
                        : "\"SCHED_OTHER (SCHED_FIFO refused by the host)\"";

  std::string flags;
  for (const std::string& a : DaemonArgs("<data>")) {
    flags += (flags.empty() ? "\"" : ", \"") + a + "\"";
  }
  report_.info["duplexd_flags"] = "[" + flags + "]";
  if (opt_.trace) {
    LayerMetricsFromScrapes();
    DUPLEX_RETURN_IF_ERROR(Replay());
  }
  return Status::OK();
}

std::string MetricsJson(const std::map<std::string, MetricValue>& metrics,
                        bool full) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (full) {
      out += ", \"better\": " + JsonString(m.better) +
             ", \"kind\": " + JsonString(m.kind) +
             ", \"detail\": " + JsonString(m.detail);
    }
    out += "}";
  }
  return out + "}";
}

}  // namespace

Report RunWorkload(const Options& options) { return Run(options).Go(); }

std::string ResultLine(const Report& report, bool trace) {
  const bool correct = report.correct();
  // An invalid or aborted run reports no numbers at all.
  const std::string metrics =
      !correct ? "{}"
                     : MetricsJson(trace ? report.layers : report.end_to_end,
                                   false);
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(std::max<uint64_t>(report.attempted, 1)) +
         ", \"failed\": " + std::to_string(report.failed) +
         ", \"metrics\": " + metrics + "}";
}

std::string ReportJson(const Report& report, const Options& options) {
  std::string out = "{\n  \"workload\": " + JsonString(options.workload) +
                    ",\n  \"seed\": " + std::to_string(options.seed) +
                    ",\n  \"seconds\": " + Number(options.seconds) +
                    ",\n  \"trace\": " + (options.trace ? "true" : "false") +
                    ",\n  \"correct\": " +
                    (report.correct() ? "true" : "false") +
                    ",\n  \"invalid\": " + (report.invalid ? "true" : "false") +
                    ",\n  \"aborted\": " + (report.aborted ? "true" : "false") +
                    ",\n  \"wrong\": " + std::to_string(report.wrong) +
                    ",\n  \"attempted\": " + std::to_string(report.attempted) +
                    ",\n  \"failed\": " + std::to_string(report.failed) +
                    ",\n  \"error_rate\": " +
                    Number(report.attempted == 0
                               ? 0
                               : static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted)) +
                    ",\n  \"errors\": [";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(report.errors[i]);
  }
  out += "],\n  \"end_to_end\": " + MetricsJson(report.end_to_end, true) +
         ",\n  \"per_layer\": " + MetricsJson(report.layers, true);
  for (const auto& [key, json] : report.info) {
    out += ",\n  " + JsonString(key) + ": " + json;
  }
  return out + "\n}\n";
}

}  // namespace perfbench
