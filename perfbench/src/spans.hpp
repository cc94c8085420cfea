// Spans the benchmark records around its own calls into each layer of the
// program (program-internal spans are not used: their timestamps are whole
// microseconds and carry no parent link, and self time needs both).
//
// A traced section is serial: one thread opens and closes spans in strict
// LIFO order, so a span's children are exactly the spans opened while it was
// the innermost open one. A layer's self time is the sum over its spans of
// the span's duration minus the durations of its direct children; summed
// over all layers that equals the root span's duration.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Result;

class SpanTrace {
 public:
  explicit SpanTrace(bool enabled) : enabled_(enabled) {}
  SpanTrace(const SpanTrace&) = delete;
  SpanTrace& operator=(const SpanTrace&) = delete;

  /// RAII span around one call into `layer` (a string literal). Does
  /// nothing when the trace is disabled, which is how the untraced
  /// reference pass runs the identical code.
  class Scope {
   public:
    Scope(SpanTrace& trace, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTrace* trace_;
    int index_ = -1;
  };

  struct Accounting {
    std::map<std::string, double> self_seconds;  ///< per layer
    std::size_t spans = 0;
  };

  /// Self time per layer. Throws std::logic_error when a span is still
  /// open or a child lies outside its parent's interval.
  Accounting account() const;

 private:
  struct Span {
    const char* layer;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Reports `<layer>.self_s` for every layer, the root's own time (what no
/// layer span covers) as pipeline.other_s, and trace.overhead_frac (traced
/// over untraced wall time of the same work, minus one). `traced_wall_s`,
/// timed by the caller around the traced section, goes into the document
/// as trace.wall_s for run.py's accounting check: the layer self times must
/// cover it up to a stated share.
void report_self_times(const SpanTrace& trace, double traced_wall_s,
                       double overhead_frac, Result& result);

}  // namespace perfbench
