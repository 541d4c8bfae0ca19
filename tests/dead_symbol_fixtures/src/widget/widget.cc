#include "widget/widget.h"

namespace fixture {

int CalledFromTool() { return CalledInternally() + 1; }
int CalledInternally() { return 1; }
int CalledOnlyFromTests() { return 2; }
int NeverCalled() { return 3; }
int Allowed() { return 4; }
int AllowedButCalled() { return 5; }
int Gadget::Spin() const { return 6; }
int Gadget::Wobble() const { return 7; }

}  // namespace fixture
