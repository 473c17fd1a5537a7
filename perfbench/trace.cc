#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/check.h"
#include "common/hash.h"

namespace fro::perfbench {

int Trace::BeginQuery(const char* name) {
  FRO_CHECK(live_.empty()) << "BeginQuery inside an open query";
  Span root;
  root.query = static_cast<uint32_t>(root_ns_.size());
  root.name = name;
  root.start_ns = NowNs();
  live_.push_back(std::move(root));
  return 0;
}

void Trace::EndQuery() {
  FRO_CHECK(!live_.empty()) << "EndQuery without BeginQuery";
  Span& root = live_[0];
  root.end_ns = NowNs();
  const int64_t ns = root.end_ns - root.start_ns;
  root_ns_.push_back(ns);
  totals_ns_[root.name] += ns;
  if (root.query < kMaxKeptQueries) {
    kept_.insert(kept_.end(), live_.begin(), live_.end());
  }
  live_.clear();
}

int Trace::Open(const char* name, int parent) {
  FRO_CHECK(parent >= 0 && parent < static_cast<int>(live_.size()))
      << "span parent out of range";
  Span span;
  span.query = live_[0].query;
  span.id = static_cast<int>(live_.size());
  span.parent = parent;
  span.name = name;
  span.start_ns = NowNs();
  live_.push_back(std::move(span));
  return live_.back().id;
}

void Trace::Close(int handle) {
  Span& span = live_[static_cast<size_t>(handle)];
  span.end_ns = NowNs();
  const int64_t ns = span.end_ns - span.start_ns;
  totals_ns_[span.name] += ns;
  if (span.parent == 0) child_total_ns_ += ns;
}

double Trace::MeanUs(const std::string& name) const {
  auto it = totals_ns_.find(name);
  if (it == totals_ns_.end() || root_ns_.empty()) return 0;
  return static_cast<double>(it->second) / 1e3 /
         static_cast<double>(root_ns_.size());
}

double Trace::UnattributedFrac() const {
  int64_t root_total = 0;
  for (int64_t ns : root_ns_) root_total += ns;
  if (root_total <= 0) return 0;
  return std::max<double>(0.0, static_cast<double>(root_total -
                                                   child_total_ns_) /
                                   static_cast<double>(root_total));
}

void Trace::WriteSpans(const std::string& path) const {
  if (path.empty()) return;
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  for (const Span& s : kept_) {
    std::fprintf(out,
                 "{\"query\": %u, \"id\": %d, \"parent\": %d, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.query, s.id, s.parent, s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(out);
}

namespace {

// Opens "optimizer.pass.<name>" under the current optimize span around
// the wrapped pass. Holds the pass name as a std::string so the span name
// outlives the call.
class TimedPass : public RewritePass {
 public:
  TimedPass(RewritePassPtr inner, Trace* trace, const int* parent_span)
      : inner_(std::move(inner)),
        span_name_("optimizer.pass." + std::string(inner_->name())),
        trace_(trace),
        parent_span_(parent_span) {}

  std::string_view name() const override { return inner_->name(); }

  Status Apply(PlanState* state, const RewriteContext& context,
               PassStats* stats) const override {
    const int span = trace_->Open(span_name_.c_str(), *parent_span_);
    Status status = inner_->Apply(state, context, stats);
    trace_->Close(span);
    return status;
  }

 private:
  RewritePassPtr inner_;
  std::string span_name_;
  Trace* trace_;
  const int* parent_span_;
};

int64_t InclusiveNs(const PlanOpStats& op) {
  return static_cast<int64_t>(op.stats.open_ns + op.stats.next_ns);
}

}  // namespace

RewritePipeline TimedDefaultPipeline(Trace* trace, const int* parent_span) {
  // A stored copy: iterating RewritePipeline::Default().passes() directly
  // would reference the passes of a destroyed temporary.
  const RewritePipeline defaults = RewritePipeline::Default();
  RewritePipeline timed = RewritePipeline::Empty();
  for (const RewritePassPtr& pass : defaults.passes()) {
    timed.Append(std::make_shared<TimedPass>(pass, trace, parent_span));
  }
  return timed;
}

void AddOperatorSelfTimes(const PlanOpStats& root, Trace* trace) {
  ForEachOp(root, [trace](const PlanOpStats& op, int) {
    const std::string name = op.physical_name;
    int64_t self = InclusiveNs(op);
    if (name != "Exchange") {
      for (const PlanOpStats& child : op.children) self -= InclusiveNs(child);
      self = std::max<int64_t>(self, 0);
    }
    trace->AddNs("exec.op." + name + ".self_us", self);
    if (name == "LeapfrogTriejoin") trace->AddNs("wcoj.self_us", self);
    if (op.source_expr != nullptr &&
        op.source_expr->kind() == OpKind::kSemijoin) {
      trace->AddNs("acyclic.semijoin_self_us", self);
    }
  });
}

Fingerprint FingerprintOf(const Relation& relation) {
  std::vector<AttrId> cols = relation.scheme().cols();
  std::sort(cols.begin(), cols.end());
  std::vector<int> positions;
  positions.reserve(cols.size());
  uint64_t scheme_hash = 0;
  for (AttrId attr : cols) {
    positions.push_back(relation.scheme().IndexOf(attr));
    scheme_hash = HashMix(scheme_hash, static_cast<uint64_t>(attr));
  }
  Fingerprint fp;
  fp.rows = relation.NumRows();
  for (const Tuple& row : relation.rows()) {
    uint64_t h = scheme_hash;
    for (int pos : positions) {
      h = HashMix(h, row.value(static_cast<size_t>(pos)).Hash());
    }
    // Two different finalizers, summed: order-independent, and a
    // collision needs both sums to agree.
    uint64_t z = h + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    fp.sum_a += z ^ (z >> 31);
    fp.sum_b += (h * 0xff51afd7ed558ccdULL) ^ (h >> 29);
  }
  return fp;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1 - frac) + samples[hi] * frac;
}

}  // namespace fro::perfbench
