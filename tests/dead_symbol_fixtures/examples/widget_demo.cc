#include "widget/widget.h"

int main() {
  fixture::Gadget gadget;
  return gadget.Spin();
}
