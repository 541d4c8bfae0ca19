// Planted code for the dead-code check's self-test.

#ifndef WIDGET_H_
#define WIDGET_H_

#include <vector>

namespace pso::widget {

class Widget {
 public:
  explicit Widget(int size) : size_(size) {}

  int size() const { return size_; }

  // Planted: an inline accessor no binary calls.
  int doubled() const { return 2 * size_; }

 private:
  int size_;
};

// Moved only inside NeverCalled: its implicit move constructor and
// destructor are compiler-generated noise, not findings.
struct Parts {
  std::vector<int> items;
};

// Called by widgetctl; holds a lambda that the binary keeps.
int Used(const Widget& w);

// Planted: an out-of-line function no binary calls. The lambda it calls
// goes with it and is not a finding of its own.
int NeverCalled(int x);

// Planted: reachable only from NeverCalled.
int OnlyFromNeverCalled(int x);

}  // namespace pso::widget

#endif  // WIDGET_H_
