// Fixture: every code line here must trip R5 (target overrides that name
// anything but ISA extensions).
#pragma GCC target("arch=skylake-avx512")
#pragma GCC target("tune=native")
#pragma GCC target("fpmath=387")
#pragma GCC target("avx512f,arch=icelake-server")
#pragma GCC target("-mavx512f")
__attribute__((target("arch=haswell"))) double F(double x);
[[gnu::target("avx2", "prefer-vector-width=512")]] double G(double x);
#pragma GCC target()
