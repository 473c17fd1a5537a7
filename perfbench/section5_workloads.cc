// plan_section5 and serve_section5: the 14 Section-5 queries of
// bench_server, with seeded constants, run in-process through
// lang::RunQuery (planning-dominant, company DB at scale 1) and through
// an in-process FroServer over loopback with one worker and one client
// (render, wire and execution dominant, scale 20).

#include <algorithm>
#include <set>

#include "common/check.h"
#include "common/rng.h"
#include "exec/morsel.h"
#include "lang/lang.h"
#include "lang/parser.h"
#include "lang/translate.h"
#include "optimizer/feedback.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_cache.h"
#include "relational/pretty.h"
#include "server/client.h"
#include "server/server.h"
#include "testing/nested_sample.h"
#include "workloads.h"

namespace fro::perfbench {
namespace {

constexpr int kServeScale = 20;

const char* const kFiveWay =
    "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
    "DEPARTMENT D2, EMPLOYEE E3 "
    "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
    "and E3.D# = D2.D#";
const char* const kSevenWay =
    "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
    "DEPARTMENT D2, EMPLOYEE E3, DEPARTMENT D3, EMPLOYEE E4 "
    "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
    "and E3.D# = D2.D# and E4.D# = D2.D# and E4.Rank = E1.Rank "
    "and D3.D# = E3.D#";

// Constant domains, one value per copy of the templates: locations and
// ranks present at scale 1 or 20, plus some that match nothing.
constexpr int kCopies = 6;
const char* const kLocations[kCopies] = {"Zurich", "Queretaro", "Lisbon",
                                         "Osaka",  "Toronto",   "Paris"};
const int kRanks[kCopies] = {0, 1, 3, 7, 12, 13};

// bench_server's 14-query workload: six cheap queries, then the
// planning-heavy five- and seven-way self-joins whose Location constants
// distinguish their plan-cache keys. `loc(slot)` and `rank()` supply the
// constants.
template <typename Loc, typename Rank>
std::vector<std::string> Section5Queries(Loc&& loc, Rank&& rank) {
  std::vector<std::string> q;
  q.push_back(
      "Select All From EMPLOYEE*ChildName, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D#");
  q.push_back("Select All From DEPARTMENT-->Manager-->Audit");
  q.push_back("Select All From DEPARTMENT-->Manager*ChildName "
              "Where DEPARTMENT.Location = " + loc(0));
  q.push_back("Select All From EMPLOYEE Where EMPLOYEE.Rank = " + rank());
  q.push_back(
      "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Secretary "
      "Where EMPLOYEE.D# = DEPARTMENT.D#");
  q.push_back(
      "Select EMPLOYEE.Rank, DEPARTMENT.Location From EMPLOYEE, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D#");
  q.push_back(kFiveWay);
  for (int i = 0; i < 2; ++i) {
    q.push_back(std::string(kFiveWay) + " and D1.Location = " + loc(1 + i));
  }
  q.push_back(kSevenWay);
  for (int i = 0; i < 4; ++i) {
    q.push_back(std::string(kSevenWay) + " and D3.Location = " + loc(3 + i));
  }
  return q;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

// A cycle: kCopies instances of the 14 queries in a seeded order. Every
// constant slot takes each domain value exactly once per cycle, in a
// seeded assignment, so the cycle's mix of cheap and expensive queries
// (and so its latency distribution) is the same for every seed.
std::vector<std::string> Section5Cycle(uint64_t seed) {
  Rng rng(seed);
  constexpr int kLocationSlots = 7;
  std::vector<std::vector<int>> loc_order(kLocationSlots + 1);
  for (std::vector<int>& order : loc_order) {
    for (int i = 0; i < kCopies; ++i) order.push_back(i);
    Shuffle(&order, &rng);
  }
  std::vector<std::string> cycle;
  for (int c = 0; c < kCopies; ++c) {
    auto loc = [&](int slot) {
      return std::string("'") + kLocations[loc_order[slot][c]] + "'";
    };
    auto rank = [&] {
      return std::to_string(kRanks[loc_order[kLocationSlots][c]]);
    };
    for (std::string& q : Section5Queries(loc, rank)) {
      cycle.push_back(std::move(q));
    }
  }
  Shuffle(&cycle, &rng);
  return cycle;
}

// The server's QUERY body: the canonical, unlimited table plus a footer.
std::string RenderTable(const Relation& relation, const Catalog& catalog) {
  PrettyOptions pretty;
  pretty.canonical = true;
  pretty.max_rows = static_cast<size_t>(-1);
  return PrettyTable(relation, &catalog, pretty);
}

std::string RenderBody(const Relation& relation, const Catalog& catalog,
                       const std::string& notes) {
  std::string body = RenderTable(relation, catalog);
  body += '(';
  body += std::to_string(relation.NumRows());
  body += " rows; ";
  body += notes;
  body += ")\n";
  return body;
}

// One query replayed layer by layer: the RunParsedQuery sequence with the
// parse in front and, when `render` is set, the server's rendering behind.
struct Replayed {
  Relation relation;
  PlanOpStats stats;
  OptimizeOutcome optimize;
  double q_error = 1;
  size_t render_bytes = 0;
};

Result<Replayed> Replay(const NestedDb& db, const std::string& text,
                        PlanCacheInterface* cache, FeedbackStore* feedback,
                        bool render, Trace* trace) {
  int optimize_span = 0;
  trace->BeginQuery("query");
  auto fail = [&](const Status& status) -> Result<Replayed> {
    trace->EndQuery();
    return status;
  };
  Result<SelectQuery> ast =
      trace->Time("lang.parse", 0, [&] { return ParseQuery(text); });
  if (!ast.ok()) return fail(ast.status());
  Result<TranslationResult> translation = trace->Time(
      "lang.translate", 0, [&] { return TranslateQuery(db, *ast); });
  if (!translation.ok()) return fail(translation.status());
  FRO_CHECK(translation->audit.freely_reorderable());

  Replayed out;
  optimize_span = trace->Open("optimizer.optimize", 0);
  OptimizeOptions options;
  options.plan_cache = cache;
  options.pipeline = TimedDefaultPipeline(trace, &optimize_span);
  CardinalityFeedback snapshot;
  if (feedback != nullptr) {
    snapshot = feedback->Snapshot();
    options.feedback = &snapshot;
  }
  Result<OptimizeOutcome> optimized =
      Optimize(translation->query, *translation->db, options);
  trace->Close(optimize_span);
  if (!optimized.ok()) return fail(optimized.status());
  out.optimize = std::move(*optimized);

  BatchIteratorPtr root = trace->Time("exec.build", 0, [&] {
    BatchIteratorPtr built = BuildParallelBatchIterator(
        out.optimize.plan, *translation->db, ParallelOptions());
    built->EnableTiming(true);
    return built;
  });
  Result<Relation> drained = trace->Time(
      "exec.drain", 0, [&] { return DrainChecked(root.get(), nullptr); });
  if (!drained.ok()) return fail(drained.status());
  out.relation = std::move(*drained);
  out.stats = trace->Time("exec.snapshot", 0,
                          [&] { return SnapshotPlanStats(root.get()); });
  if (feedback != nullptr) {
    out.q_error = trace->Time("exec.feedback_observe", 0, [&] {
      const double q = ObservePlanExecution(
          feedback, out.optimize.plan->hash(), out.stats,
          out.optimize.op_estimates);
      if (cache != nullptr) {
        cache->RecordExecution(translation->query->hash(), q);
      }
      return q;
    });
  }
  if (render) {
    out.render_bytes = trace->Time("relational.render", 0, [&] {
      return RenderBody(out.relation, translation->db->catalog(),
                        out.optimize.Summary())
          .size();
    });
  }
  trace->EndQuery();
  return out;
}

// Per-layer facts shared by both Section 5 workloads.
void AddReplayFacts(const Replayed& replayed, Trace* trace,
                    CycleCounts* counts) {
  AddOperatorSelfTimes(replayed.stats, trace);
  counts->Add(replayed.stats);
  for (const PassStats& pass : replayed.optimize.passes) {
    counts->plans_considered += pass.plans_considered;
  }
}

// ---------------------------------------------------------------------------
// plan_section5

class PlanSection5 : public Workload {
 public:
  explicit PlanSection5(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    db_ = MakeCompanyNestedDb();
    cycle_ = Section5Cycle(seed_);
    // Nothing to converge with the plan cache and feedback off; a few
    // cycles warm the allocator and the instruction and data caches.
    for (int round = 0; round < 3; ++round) {
      for (const std::string& text : cycle_) {
        FRO_CHECK(RunQuery(db_, text).ok()) << text;
      }
    }
  }

  void PrepareReferences(RunResult* result) override {
    for (const std::string& text : std::set<std::string>(cycle_.begin(),
                                                         cycle_.end())) {
      ++result->attempted;
      Result<QueryRunResult> reference =
          RunQuery(db_, text, RunOptions().WithOptimize(false));
      Result<QueryRunResult> optimized = RunQuery(db_, text);
      FRO_CHECK(reference.ok() && optimized.ok()) << text;
      reference_[text] = FingerprintOf(reference->relation);
      if (!BagEquals(optimized->relation, reference->relation)) {
        result->Fail("optimized result differs from the unoptimized run: " +
                     text);
      }
    }
    result->info["distinct_queries"] = std::to_string(reference_.size());
    result->info["queries_per_cycle"] = std::to_string(cycle_.size());
  }

  void RunUntraced(double seconds, RunResult* result) override {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    result->busy_throughput = true;
    for (size_t i = 0; NowNs() < deadline; ++i) {
      const std::string& text = cycle_[i % cycle_.size()];
      const int64_t t0 = NowNs();
      Result<QueryRunResult> run = RunQuery(db_, text);
      const int64_t ns = NowNs() - t0;
      ++result->attempted;
      if (!run.ok()) {
        result->Fail(run.status().ToString());
        continue;
      }
      result->samples.push_back({t0 + ns, static_cast<double>(ns) / 1e3});
      Check(text, run->relation, result);
    }
  }

  void RunTraced(double seconds, Trace* trace, RunResult* result) override {
    std::vector<CycleCounts> cycles;
    CycleCounts current;
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    for (size_t i = 0; NowNs() < deadline; ++i) {
      const std::string& text = cycle_[i % cycle_.size()];
      // Each query also runs untraced, alternately before and after the
      // replay, for trace.overhead_frac.
      auto untraced = [&] {
        const int64_t t0 = NowNs();
        Result<QueryRunResult> run = RunQuery(db_, text);
        const double us = static_cast<double>(NowNs() - t0) / 1e3;
        ++result->attempted;
        if (!run.ok()) {
          result->Fail(run.status().ToString());
          return;
        }
        result->untraced_us.push_back(us);
        Check(text, run->relation, result);
      };
      if (i % 2 == 0) untraced();
      Result<Replayed> replayed =
          Replay(db_, text, nullptr, nullptr, /*render=*/false, trace);
      if (i % 2 == 1) untraced();
      ++result->attempted;
      if (!replayed.ok()) {
        result->Fail(replayed.status().ToString());
        continue;
      }
      result->traced_us.push_back(
          static_cast<double>(trace->root_ns().back()) / 1e3);
      Check(text, replayed->relation, result);
      AddReplayFacts(*replayed, trace, &current);
      if ((i + 1) % cycle_.size() == 0) {
        cycles.push_back(current);
        current = CycleCounts();
      }
    }
    ReportCycleCounts(cycles, result);
  }

 private:
  void Check(const std::string& text, const Relation& relation,
             RunResult* result) const {
    if (!(FingerprintOf(relation) == reference_.at(text))) {
      result->Fail("wrong result: " + text);
    }
  }

  uint64_t seed_;
  NestedDb db_;
  std::vector<std::string> cycle_;
  std::map<std::string, Fingerprint> reference_;
};

// ---------------------------------------------------------------------------
// serve_section5

// One server worker and one closed-loop client. Two of each (one request
// per worker in flight) made every timing swing by twice as much under
// outside load on a 4-core shared host; see README.md.
constexpr int kWorkers = 1;
// Every kMissEvery-th request carries a never-repeated Rank constant, so
// its plan-cache lookup misses; every kAnalyzeEvery-th cycle slot is sent
// as ANALYZE.
constexpr uint64_t kMissEvery = 12;
constexpr size_t kAnalyzeEvery = 10;
const char* const kMissPrefix =
    "Select All From EMPLOYEE Where EMPLOYEE.Rank = ";

struct Reference {
  std::string table;  // canonical PrettyTable body, without the footer
  size_t rows = 0;
};

class ServeSection5 : public Workload {
 public:
  explicit ServeSection5(uint64_t seed) : seed_(seed) {}
  ~ServeSection5() override {
    if (server_ != nullptr) server_->Stop();
  }

  void Setup() override {
    db_ = MakeScaledCompanyNestedDb(kServeScale);
    cycle_ = Section5Cycle(seed_);
    ServerOptions options;
    options.num_workers = kWorkers;
    options.max_pending = 2;
    options.plan_cache_capacity = 128;
    options.enable_feedback = true;
    server_ = std::make_unique<FroServer>(&db_, options);
    FRO_CHECK(server_->Start().ok()) << "server failed to start";

    // Warm the server's plan cache and feedback store until a whole cycle
    // plans nothing.
    FroClient client;
    FRO_CHECK(client.Connect("127.0.0.1", server_->port()).ok());
    for (int round = 0; round < 20; ++round) {
      const PlanCacheStats before = server_->plan_cache().stats();
      for (const std::string& text : cycle_) {
        Result<Response> r = client.Query(text);
        FRO_CHECK(r.ok() && r->status.ok()) << "warmup failed: " << text;
      }
      const PlanCacheStats after = server_->plan_cache().stats();
      if (round >= 1 && after.misses == before.misses) break;
    }
  }

  void PrepareReferences(RunResult* result) override {
    std::set<std::string> texts(cycle_.begin(), cycle_.end());
    texts.insert(MissText(0));
    size_t largest = 0;
    for (const std::string& text : texts) {
      ++result->attempted;
      Result<QueryRunResult> reference =
          RunQuery(db_, text, RunOptions().WithOptimize(false));
      Result<QueryRunResult> optimized = RunQuery(db_, text);
      FRO_CHECK(reference.ok() && optimized.ok()) << text;
      Reference ref;
      ref.table = RenderTable(reference->relation,
                              reference->translation.db->catalog());
      ref.rows = reference->relation.NumRows();
      largest = std::max(largest, ref.table.size());
      if (RenderTable(optimized->relation,
                      optimized->translation.db->catalog()) != ref.table) {
        result->Fail("optimized rendering differs from the reference: " +
                     text);
      }
      if (ref.table.size() + 4096 > kMaxFrameBytes) {
        result->Fail("response would exceed the frame limit: " + text);
      }
      references_[text] = std::move(ref);
    }
    result->info["scale"] = std::to_string(kServeScale);
    result->info["workers"] = std::to_string(kWorkers);
    result->info["distinct_queries"] = std::to_string(references_.size());
    result->info["largest_table_bytes"] = std::to_string(largest);
  }

  void RunUntraced(double seconds, RunResult* result) override {
    ClientLoop(NowNs() + static_cast<int64_t>(seconds * 1e9), nullptr,
               result);
  }

  void RunTraced(double seconds, Trace* trace, RunResult* result) override {
    // Warm the traced client's in-process replay state the way Setup warmed
    // the server's, so the replay plans through cache hits too.
    Trace scratch;
    for (int round = 0; round < 20; ++round) {
      const PlanCacheStats before = replay_cache_.stats();
      for (const std::string& text : cycle_) {
        FRO_CHECK(Replay(db_, text, &replay_cache_, &replay_feedback_,
                         /*render=*/false, &scratch)
                      .ok());
      }
      if (round >= 1 && replay_cache_.stats().misses == before.misses) break;
    }

    const PlanCacheStats cache_before = server_->plan_cache().stats();
    const uint64_t ast_hits = server_->session().ast_hits();
    const uint64_t ast_misses = server_->session().ast_misses();
    // The client replays each QUERY in-process after its round trip.
    TracedClient traced;
    traced.trace = trace;
    ClientLoop(NowNs() + static_cast<int64_t>(seconds * 1e9), &traced,
               result);

    ReportCycleCounts(traced.cycles, result);
    const double n = static_cast<double>(std::max<size_t>(1, traced.replayed));
    result->layer["server.round_trip_us"] = traced.round_trip_us / n;
    result->layer["server.wire_us"] = traced.wire_us / n;
    result->layer["server.response_bytes"] = traced.response_bytes / n;
    result->layer["relational.render_bytes"] = traced.render_bytes / n;
    result->layer["optimizer.max_q_error"] = traced.max_q_error;
    const PlanCacheStats cache_after = server_->plan_cache().stats();
    const uint64_t hits = cache_after.hits - cache_before.hits;
    const uint64_t lookups = hits + cache_after.misses - cache_before.misses;
    result->layer["optimizer.plan_cache_hit_rate"] =
        lookups == 0 ? 0 : static_cast<double>(hits) / lookups;
    result->layer["optimizer.replans"] =
        static_cast<double>(cache_after.replans - cache_before.replans);
    const uint64_t memo_hits = server_->session().ast_hits() - ast_hits;
    const uint64_t memo_lookups =
        memo_hits + server_->session().ast_misses() - ast_misses;
    result->layer["lang.ast_cache_hit_rate"] =
        memo_lookups == 0 ? 0 : static_cast<double>(memo_hits) / memo_lookups;
  }

 private:
  struct TracedClient {
    Trace* trace = nullptr;
    std::vector<CycleCounts> cycles;
    CycleCounts current;
    size_t replayed = 0;
    double round_trip_us = 0;
    double wire_us = 0;
    double response_bytes = 0;
    double render_bytes = 0;
    double max_q_error = 1;
  };

  static std::string MissText(uint64_t n) {
    return kMissPrefix + std::to_string(100000 + n);
  }

  // The client's closed loop. Untraced, it records each round trip as a
  // sample; traced, it replays each QUERY instead.
  void ClientLoop(int64_t deadline, TracedClient* traced, RunResult* result) {
    FroClient client;
    if (!client.Connect("127.0.0.1", server_->port()).ok()) {
      result->Fail("connect failed");
      return;
    }
    size_t slot = 0;
    for (uint64_t n = 0; NowNs() < deadline; ++n) {
      const bool miss = n % kMissEvery == kMissEvery - 1;
      const size_t index = slot % cycle_.size();
      const bool analyze =
          !miss && index % kAnalyzeEvery == kAnalyzeEvery - 1;
      const std::string text =
          miss ? MissText(++misses_sent_) : cycle_[index];
      if (!miss) ++slot;
      const int64_t t0 = NowNs();
      Result<Response> response =
          analyze ? client.Analyze(text) : client.Query(text);
      const int64_t ns = NowNs() - t0;
      ++result->attempted;
      const bool served = CheckResponse(response, text, miss, analyze, result);
      if (traced == nullptr) {
        if (served) {
          result->samples.push_back({t0 + ns, static_cast<double>(ns) / 1e3});
        }
        continue;
      }
      if (miss) continue;
      if (served && !analyze) {
        ReplayServed(text, static_cast<double>(ns) / 1e3,
                     response->body.size(), traced, result);
      }
      if (slot % cycle_.size() == 0) {
        traced->cycles.push_back(traced->current);
        traced->current = CycleCounts();
      }
    }
  }

  // Checks one response against its reference: a QUERY body must start
  // with the byte-identical reference table and its row-count footer; an
  // ANALYZE body must report the reference row count.
  bool CheckResponse(const Result<Response>& response,
                     const std::string& text, bool miss, bool analyze,
                     RunResult* result) const {
    if (!response.ok() || !response->status.ok()) {
      result->Fail("request failed: " +
                   (response.ok() ? response->status.ToString()
                                  : response.status().ToString()));
      return false;
    }
    const Reference& ref = references_.at(miss ? MissText(0) : text);
    const std::string footer = "(" + std::to_string(ref.rows) + " rows; ";
    const std::string& body = response->body;
    const bool ok =
        analyze ? body.find("\n" + footer) != std::string::npos
                : body.compare(0, ref.table.size(), ref.table) == 0 &&
                      body.compare(ref.table.size(), footer.size(), footer) ==
                          0;
    if (!ok) result->Fail("served response differs from reference: " + text);
    return ok;
  }

  // The traced client's in-process replay of a QUERY it just sent: the
  // layer sum it measures, subtracted from the round trip, is the wire.
  // The same steps are also run untraced (RunQuery plus the render),
  // alternately before and after the traced replay.
  void ReplayServed(const std::string& text, double round_trip_us,
                    size_t response_bytes, TracedClient* traced,
                    RunResult* result) {
    auto untraced = [&] {
      const int64_t t0 = NowNs();
      Result<QueryRunResult> run = RunQuery(
          db_, text,
          RunOptions().WithPlanCache(&replay_cache_).WithFeedback(
              &replay_feedback_));
      FRO_CHECK(run.ok()) << run.status().ToString();
      FRO_CHECK(!RenderBody(run->relation, run->translation.db->catalog(),
                            run->optimize.Summary())
                     .empty());
      result->untraced_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    };
    const bool untraced_first = traced->replayed % 2 == 0;
    if (untraced_first) untraced();
    Result<Replayed> replayed =
        Replay(db_, text, &replay_cache_, &replay_feedback_,
               /*render=*/true, traced->trace);
    FRO_CHECK(replayed.ok()) << replayed.status().ToString();
    if (!untraced_first) untraced();
    const double replay_us =
        static_cast<double>(traced->trace->root_ns().back()) / 1e3;
    result->traced_us.push_back(replay_us);
    ++traced->replayed;
    traced->round_trip_us += round_trip_us;
    traced->wire_us += round_trip_us - replay_us;
    traced->response_bytes += static_cast<double>(response_bytes);
    traced->render_bytes += static_cast<double>(replayed->render_bytes);
    traced->max_q_error = std::max(traced->max_q_error, replayed->q_error);
    AddReplayFacts(*replayed, traced->trace, &traced->current);
  }

  uint64_t seed_;
  NestedDb db_;
  std::vector<std::string> cycle_;
  std::map<std::string, Reference> references_;
  // In-process replay state of the traced client, warmed like the
  // server's so the replay plans through cache hits too.
  LruPlanCache replay_cache_{128};
  FeedbackStore replay_feedback_;
  std::unique_ptr<FroServer> server_;
  // Numbers the never-repeated Rank constants across phases.
  uint64_t misses_sent_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakePlanSection5(uint64_t seed) {
  return std::make_unique<PlanSection5>(seed);
}

std::unique_ptr<Workload> MakeServeSection5(uint64_t seed) {
  return std::make_unique<ServeSection5>(seed);
}

}  // namespace fro::perfbench
