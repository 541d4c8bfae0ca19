#include "widget/widget.h"

int main() { return fixture::CalledOnlyFromTests(); }
