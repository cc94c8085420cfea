#include "spans.hpp"

#include <stdexcept>

#include "util.hpp"

namespace perfbench {

SpanTrace::Scope::Scope(SpanTrace& trace, const char* layer) : trace_(&trace) {
  if (!trace.enabled_) return;
  const int parent = trace.open_.empty() ? -1 : trace.open_.back();
  index_ = static_cast<int>(trace.spans_.size());
  trace.spans_.push_back({layer, parent, now_ns(), -1});
  trace.open_.push_back(index_);
}

SpanTrace::Scope::~Scope() {
  if (index_ < 0) return;
  trace_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  trace_->open_.pop_back();
}

SpanTrace::Accounting SpanTrace::account() const {
  if (!open_.empty()) throw std::logic_error("trace: a span is still open");
  Accounting result;
  result.spans = spans_.size();
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.end_ns < span.start_ns) throw std::logic_error("trace: unclosed span");
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
      throw std::logic_error(std::string("trace: span '") + span.layer +
                             "' escapes its parent '" + parent.layer + "'");
    }
    child_seconds[static_cast<std::size_t>(span.parent)] +=
        1e-9 * static_cast<double>(span.end_ns - span.start_ns);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double seconds = 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    result.self_seconds[span.layer] += seconds - child_seconds[i];
  }
  return result;
}

void report_self_times(const SpanTrace& trace, double traced_wall_s,
                       double overhead_frac, Result& result) {
  const SpanTrace::Accounting accounting = trace.account();
  for (const auto& [layer, seconds] : accounting.self_seconds) {
    result.metric(layer == "pipeline" ? "pipeline.other_s" : layer + ".self_s", seconds, "s");
  }
  result.metric("trace.overhead_frac", overhead_frac, "ratio");
  result.info("trace.wall_s", traced_wall_s);
  result.info("trace.spans", static_cast<double>(accounting.spans));
}

}  // namespace perfbench
