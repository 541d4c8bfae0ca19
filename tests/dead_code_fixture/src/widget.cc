#include "widget.h"

#include <utility>

namespace pso::widget {

int Used(const Widget& w) {
  auto twice = [](int v) { return 2 * v; };
  return twice(w.size());
}

int NeverCalled(int x) {
  Parts parts{{x}};
  Parts moved = std::move(parts);
  auto size = [&moved] { return static_cast<int>(moved.items.size()); };
  return OnlyFromNeverCalled(size());
}

int OnlyFromNeverCalled(int x) { return x + 1; }

}  // namespace pso::widget
