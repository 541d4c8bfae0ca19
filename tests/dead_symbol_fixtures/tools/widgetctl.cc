#include "widget/widget.h"

int main() { return fixture::CalledFromTool(); }
