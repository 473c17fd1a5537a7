// fro_perfbench: one workload, one run. Sets the workload up several
// times (setup_s is the median), computes its references, then runs it
// closed-loop for --seconds: untraced for the end-to-end metrics
// (--trace 0), or half untraced and half traced layer by layer for the
// per-layer metrics (--trace 1). Prints one detail line (provenance,
// sample counts, facts, failures) and, last, the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits non-zero when any result was wrong or any exact counter broke.
//
//   fro_perfbench --workload plan_section5 --seed 1 --seconds 10 --trace 0
//                 [--spans trace.jsonl]

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace fro::perfbench {

void RunResult::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void CycleCounts::Add(const PlanOpStats& executed) {
  const ExecStats totals = SumPipelineStats(executed);
  base_tuples_read += BaseTuplesRead(executed);
  probes += totals.probes;
  predicate_evals += totals.predicate_evals;
  emitted += totals.emitted;
}

std::string CycleCounts::ToString() const {
  return "base_tuples_read=" + std::to_string(base_tuples_read) +
         " probes=" + std::to_string(probes) +
         " predicate_evals=" + std::to_string(predicate_evals) +
         " emitted=" + std::to_string(emitted) +
         " plans_considered=" + std::to_string(plans_considered);
}

void ReportCycleCounts(const std::vector<CycleCounts>& cycles,
                       RunResult* result) {
  result->info["complete_cycles"] = std::to_string(cycles.size());
  if (cycles.empty()) return;
  const CycleCounts& first = cycles.front();
  for (const CycleCounts& cycle : cycles) {
    if (!(cycle == first)) {
      result->Fail("exact counters differ between cycles: " +
                   first.ToString() + " vs " + cycle.ToString());
      break;
    }
  }
  result->layer["exec.base_tuples_read"] =
      static_cast<double>(first.base_tuples_read);
  result->layer["exec.probes"] = static_cast<double>(first.probes);
  result->layer["exec.predicate_evals"] =
      static_cast<double>(first.predicate_evals);
  result->layer["exec.emitted"] = static_cast<double>(first.emitted);
  result->layer["optimizer.plans_considered"] =
      static_cast<double>(first.plans_considered);
}

namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

constexpr int kSlices = 20;

const char* const kPasses[] = {"simplify", "reorder", "goj",
                               "wcoj", "acyclic", "pushdown"};
const char* const kOperators[] = {"Scan", "Filter", "Project", "Union",
                                  "HashJoin", "NestedLoopJoin",
                                  "SortMergeJoin", "Goj", "MorselScan",
                                  "Exchange"};

// Every per-layer metric, in BENCHMARK.json order. Span means are
// microseconds per traced query; counts are per cycle of the workload's
// fixed request list; a layer a workload does not run reports 0.
std::vector<Metric> PerLayerMetrics(const Trace& trace,
                                    const RunResult& result,
                                    double overhead_frac) {
  auto layer = [&](const std::string& name) {
    auto it = result.layer.find(name);
    return it == result.layer.end() ? 0.0 : it->second;
  };
  std::vector<Metric> m;
  // A workload may measure a span metric itself (from its own trace).
  auto span = [&](const std::string& metric, const std::string& span_name) {
    auto it = result.layer.find(metric);
    m.push_back({metric, "us",
                 it != result.layer.end() ? it->second
                                          : trace.MeanUs(span_name)});
  };
  span("lang.parse_us", "lang.parse");
  span("lang.translate_us", "lang.translate");
  m.push_back({"lang.ast_cache_hit_rate", "ratio",
               layer("lang.ast_cache_hit_rate")});
  span("algebra.parse_us", "algebra.parse");
  span("optimizer.optimize_us", "optimizer.optimize");
  double passes_us = 0;
  for (const char* pass : kPasses) {
    const std::string name = std::string("optimizer.pass.") + pass;
    span(name + "_us", name);
    passes_us += trace.MeanUs(name);
  }
  m.push_back({"optimizer.costing_us", "us",
               std::max(0.0, trace.MeanUs("optimizer.optimize") - passes_us)});
  m.push_back({"optimizer.plans_considered", "count",
               layer("optimizer.plans_considered")});
  m.push_back({"optimizer.plan_cache_hit_rate", "ratio",
               layer("optimizer.plan_cache_hit_rate")});
  m.push_back({"optimizer.replans", "count", layer("optimizer.replans")});
  m.push_back({"optimizer.max_q_error", "ratio",
               layer("optimizer.max_q_error")});
  span("exec.build_us", "exec.build");
  span("exec.drain_us", "exec.drain");
  span("exec.snapshot_us", "exec.snapshot");
  span("exec.feedback_observe_us", "exec.feedback_observe");
  for (const char* op : kOperators) {
    const std::string name = std::string("exec.op.") + op + ".self_us";
    span(name, name);
  }
  for (const char* count :
       {"exec.base_tuples_read", "exec.probes", "exec.predicate_evals",
        "exec.emitted"}) {
    m.push_back({count, "count", layer(count)});
  }
  span("wcoj.self_us", "wcoj.self_us");
  span("acyclic.semijoin_self_us", "acyclic.semijoin_self_us");
  span("relational.render_us", "relational.render");
  m.push_back({"relational.render_bytes", "bytes",
               layer("relational.render_bytes")});
  m.push_back({"server.round_trip_us", "us", layer("server.round_trip_us")});
  m.push_back({"server.wire_us", "us", layer("server.wire_us")});
  m.push_back({"server.response_bytes", "bytes",
               layer("server.response_bytes")});
  for (const std::string& family : AlgebraFamilyNames()) {
    const std::string name = "family." + family + ".query_us";
    m.push_back({name, "us", layer(name)});
  }
  m.push_back({"trace.overhead_frac", "ratio", overhead_frac});
  m.push_back({"trace.unattributed_frac", "ratio", trace.UnattributedFrac()});
  return m;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// Peak resident set of this process image, from /proc/self/status. Not
// getrusage: its ru_maxrss survives execve, so it would report the
// launching process's peak when that was larger.
double PeakRssMb() {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

std::string CompilerVersion() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// End-to-end figures of the untraced loop. The loop is cut into equal
// slices of completion time; each slice yields its own p50, p99 and
// throughput, and each figure is the median of its per-slice values, so
// outside load that covers less than half of a run does not move it,
// while a change that slows every query moves every slice. p99 slices
// hold at least 1000 samples each, so every slice has at least ten
// samples beyond its p99.
struct EndToEnd {
  double p50_us = 0;
  double p99_us = 0;
  double qps = 0;
  int p50_slices = 0;
  int p99_slices = 0;
  // The per-slice values, space-separated, for the record.
  std::string slice_p50s, slice_p99s, slice_qps;
};

std::string Join(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    if (!out.empty()) out += ' ';
    out += JsonNumber(v);
  }
  return out;
}

std::vector<std::vector<double>> SliceLatencies(
    const std::vector<Sample>& sorted, int slices) {
  std::vector<std::vector<double>> out(static_cast<size_t>(slices));
  const int64_t first = sorted.front().end_ns;
  const int64_t span = sorted.back().end_ns - first + 1;
  for (const Sample& s : sorted) {
    out[static_cast<size_t>((s.end_ns - first) * slices / span)].push_back(
        s.latency_us);
  }
  return out;
}

EndToEnd Sliced(const std::vector<Sample>& samples, bool busy_throughput) {
  EndToEnd e2e;
  if (samples.empty()) return e2e;
  std::vector<Sample> sorted = samples;
  std::sort(sorted.begin(), sorted.end(), [](const Sample& a, const Sample& b) {
    return a.end_ns < b.end_ns;
  });
  const double slice_s =
      static_cast<double>(sorted.back().end_ns - sorted.front().end_ns) /
      1e9 / kSlices;
  std::vector<double> p50s, qps;
  for (const std::vector<double>& slice : SliceLatencies(sorted, kSlices)) {
    if (slice.empty()) continue;
    p50s.push_back(Quantile(slice, 0.5));
    double busy_s = 0;
    for (double us : slice) busy_s += us / 1e6;
    const double denominator = busy_throughput ? busy_s : slice_s;
    if (denominator > 0) qps.push_back(slice.size() / denominator);
  }
  e2e.p99_slices = static_cast<int>(
      std::clamp<size_t>(sorted.size() / 1000, 1, kSlices));
  std::vector<double> p99s;
  for (const std::vector<double>& slice :
       SliceLatencies(sorted, e2e.p99_slices)) {
    if (!slice.empty()) p99s.push_back(Quantile(slice, 0.99));
  }
  e2e.slice_p50s = Join(p50s);
  e2e.slice_p99s = Join(p99s);
  e2e.slice_qps = Join(qps);
  e2e.p50_slices = static_cast<int>(p50s.size());
  e2e.p50_us = Quantile(p50s, 0.5);
  e2e.p99_us = Quantile(p99s, 0.5);
  e2e.qps = Quantile(qps, 0.5);
  return e2e;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "fro_perfbench: %s\nusage: fro_perfbench --workload "
               "{plan_section5|exec_algebra|serve_section5} --seed N "
               "--seconds S --trace {0|1} [--spans PATH]\n",
               why);
  return 2;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "plan_section5") return MakePlanSection5(seed);
  if (name == "exec_algebra") return MakeExecAlgebra(seed);
  if (name == "serve_section5") return MakeServeSection5(seed);
  return nullptr;
}

int Main(int argc, char** argv) {
  std::string workload_name, spans_path;
  uint64_t seed = 0;
  double seconds = 0;
  int traced = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      traced = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (seconds <= 0 || (traced != 0 && traced != 1)) {
    return Usage("--seconds must be positive and --trace 0 or 1");
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "fro_perfbench: refusing a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (MakeWorkload(workload_name, seed) == nullptr) {
    return Usage(("unknown workload " + workload_name).c_str());
  }

  // Set up several times and keep the last: setup_s is the median. Short
  // setups repeat up to nine times; long ones at least three times.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  double setup_total_s = 0;
  while (setup_s.size() < 3 || (setup_s.size() < 9 && setup_total_s < 5)) {
    workload.reset();
    workload = MakeWorkload(workload_name, seed);
    const int64_t t0 = NowNs();
    workload->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total_s += setup_s.back();
  }

  RunResult result;
  workload->PrepareReferences(&result);
  std::vector<Metric> metrics;
  Trace trace;
  if (traced == 0) {
    workload->RunUntraced(seconds, &result);
  } else {
    workload->RunTraced(seconds, &trace, &result);
  }
  workload.reset();  // stops the server, if any, before reporting
  // Read before the analysis below allocates its own copies of the samples.
  const double peak_rss_mb = PeakRssMb();

  const EndToEnd e2e = Sliced(result.samples, result.busy_throughput);
  result.info["p50_slices"] = std::to_string(e2e.p50_slices);
  result.info["p99_slices"] = std::to_string(e2e.p99_slices);
  result.info["slice_p50_us"] = e2e.slice_p50s;
  result.info["slice_p99_us"] = e2e.slice_p99s;
  result.info["slice_qps"] = e2e.slice_qps;
  if (traced == 0) {
    metrics = {
        {"query_p50_us", "us", e2e.p50_us},
        {"query_p99_us", "us", e2e.p99_us},
        {"throughput_qps", "1/s", e2e.qps},
        {"setup_s", "s", Quantile(setup_s, 0.5)},
        {"peak_rss_mb", "MB", peak_rss_mb},
    };
  } else {
    // Traced against untraced runs of the same queries, taken in turn.
    const double untraced_p50 = Quantile(result.untraced_us, 0.5);
    const double overhead_frac =
        untraced_p50 > 0 ? Quantile(result.traced_us, 0.5) / untraced_p50 - 1
                         : 0;
    metrics = PerLayerMetrics(trace, result, overhead_frac);
    trace.WriteSpans(spans_path);
    if (trace.UnattributedFrac() > 0.05) {
      result.info["unattributed_flag"] = "layer spans leave more than 5%";
      std::fprintf(stderr,
                   "fro_perfbench: %s: %.1f%% of traced time is not covered "
                   "by any layer span\n",
                   workload_name.c_str(), 100 * trace.UnattributedFrac());
    }
  }

  const bool correct = result.failed == 0;
  const double error_rate =
      result.attempted == 0 ? 0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::string detail = "{\"perfbench\": {\"workload\": " +
                       JsonString(workload_name) +
                       ", \"seed\": " + std::to_string(seed) +
                       ", \"trace\": " + std::to_string(traced) +
                       ", \"seconds\": " + JsonNumber(seconds) +
                       ", \"build_type\": " +
                       JsonString(PERFBENCH_BUILD_TYPE) +
                       ", \"compiler\": " + JsonString(CompilerVersion()) +
                       ", \"fro_enable_simd\": " +
                       (PERFBENCH_SIMD ? "true" : "false") +
                       ", \"hardware_concurrency\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"samples\": " +
                       std::to_string(result.samples.size()) +
                       ", \"traced_samples\": " +
                       std::to_string(result.traced_us.size()) +
                       ", \"samples_beyond_p99_per_slice\": " +
                       std::to_string(result.samples.size() / 100 /
                                      std::max<size_t>(1, e2e.p99_slices)) +
                       ", \"error_rate\": " + JsonNumber(error_rate) +
                       ", \"setup_runs_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    detail += (i > 0 ? ", " : "") + JsonNumber(setup_s[i]);
  }
  detail += "], \"info\": {";
  bool first = true;
  for (const auto& [key, value] : result.info) {
    detail += (first ? "" : ", ") + JsonString(key) + ": " + JsonString(value);
    first = false;
  }
  detail += "}, \"failures\": [";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    detail += (i > 0 ? ", " : "") + JsonString(result.failures[i]);
  }
  detail += "]}}";
  std::printf("%s\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fro::perfbench

int main(int argc, char** argv) { return fro::perfbench::Main(argc, argv); }
