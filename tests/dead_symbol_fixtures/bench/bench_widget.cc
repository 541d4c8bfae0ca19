#include "widget/widget.h"

int main() { return fixture::AllowedButCalled(); }
