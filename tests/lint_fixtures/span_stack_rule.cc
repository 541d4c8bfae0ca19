// Fixture for the `span-stack` rule: PSO_SPAN("x") already opens the
// trace span "x", so a trace::Span or PSO_TRACE_SPAN of the same literal
// name in the same file nests the interval twice in the trace.
// pso-lint-fixture-path: src/solver/span_stack_fixture.cc

#include "common/metrics.h"
#include "common/trace.h"

namespace pso {

void Stacked() {
  PSO_SPAN("solver.stacked");
  PSO_TRACE_SPAN("solver.stacked");  // lint-expect: span-stack
}

void StackedNamed() {
  PSO_NAMED_SPAN(span, "solver.named");
  trace::Span trace_span("solver.named");  // lint-expect: span-stack
  trace::Span braced{"solver.named"};  // lint-expect: span-stack
}

// Another function in the same file still counts: the histogram and the
// trace would record the same name from two primitives.
void Elsewhere() {
  PSO_TRACE_SPAN(  "solver.stacked");  // lint-expect: span-stack
}

// Trace-only spans with their own names are fine, nested or not.
void TraceOnly() {
  PSO_SPAN("solver.outer");
  PSO_TRACE_SPAN("solver.phase");
  trace::Span inner("solver.inner");
}

// Names in comments and non-literal names are not spans:
// PSO_TRACE_SPAN("solver.outer");
void Dynamic(const char* name) {
  trace::Span dynamic(name);
  const char* label = "PSO_TRACE_SPAN(\"solver.outer\")";
  (void)label;
}

void Suppressed() {
  trace::Span kept("solver.outer");  // pso-lint: allow(span-stack)
}

}  // namespace pso
