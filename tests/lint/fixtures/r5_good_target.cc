// Fixture: must produce zero findings. A region may enable instruction
// sets by name; #pragma GCC target("arch=native") in a comment and the
// string below are prose, not directives.
#pragma GCC push_options
#pragma GCC target("avx512f")
double Wide(double acc, double x, double w) { return acc + x * w; }
#pragma GCC pop_options

#pragma GCC target("avx2,fma")
__attribute__((target("avx512f,avx512vl"))) double H(double x);
[[gnu::target("avx2")]] double K(double x);

const char* kDoc = "#pragma GCC target(\"tune=native\")";
int target(int x);
int y = target(3);

// hfr-lint: allow(R5): fixture for a reasoned suppression
#pragma GCC target("arch=x86-64-v4")
