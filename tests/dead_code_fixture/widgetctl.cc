#include <cstdio>

#include "widget.h"

int main() {
  std::printf("%d\n", pso::widget::Used(pso::widget::Widget(3)));
  return 0;
}
