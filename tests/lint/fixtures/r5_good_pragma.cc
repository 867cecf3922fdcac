// Fixture: must produce zero findings. Turning contraction off is the one
// sanctioned override; #pragma GCC optimize("fast-math") in a comment and
// the string below are prose, not directives.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
double Fused(double acc, double x, double w) { return acc + x * w; }
#pragma GCC pop_options

__attribute__((optimize("-ffp-contract=off"))) double H(double x);

const char* kDoc = "#pragma GCC optimize(\"Ofast\")";

// hfr-lint: allow(R5): fixture for a reasoned suppression
#pragma GCC optimize("O3")
