// Seeded violation: a printf-family call outside the logging and
// table sinks, where stray output would reach the result tables.
// fdp-analyze-expect: logging-only

#include <cstdio>

void debugDump(int value) { std::printf("value=%d\n", value); }
