// Fixture tree for tools/check_dead_symbols.py --self-test; never built.
// expected.txt lists the findings the checker must report for this tree.

#ifndef FIXTURE_WIDGET_WIDGET_H_
#define FIXTURE_WIDGET_WIDGET_H_

namespace fixture {

int CalledFromTool();
int CalledInternally();     // only by CalledFromTool, in widget.cc
int CalledOnlyFromTests();  // tests/ does not count: a finding
int NeverCalled();          // a finding
int Allowed();              // on the self-test allow-list
int AllowedButCalled();     // a stale allow-list entry: bench calls it

class Gadget {
 public:
  int Spin() const;
  int Wobble() const;  // a finding
};

class Orphan {};  // a finding

}  // namespace fixture

#endif  // FIXTURE_WIDGET_WIDGET_H_
