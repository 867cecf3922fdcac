// Fixture: every code line here must trip R5 (per-function optimization
// overrides other than fp-contract=off).
#pragma GCC optimize("fast-math")
#pragma GCC optimize("-fassociative-math")
#pragma GCC optimize("fp-contract=fast")
#pragma GCC optimize("Ofast")
__attribute__((optimize("unsafe-math-optimizations"))) double F(double x);
#pragma GCC optimize("O3")
[[gnu::optimize("fp-contract=off,reciprocal-math")]] double G(double x);
