#!/usr/bin/env python3
"""Fails when the SIMD kernel object contains an fp64 fused multiply-add or
leaks AVX-512 code outside its AVX-512 arms.

Usage:
    check_fp64_no_fma.py OBJECT [OBJECT ...]

The fp64 kernels in src/math/kernels_avx2.cc promise the scalar loops' bits:
a separate multiply and add per term. That translation unit is compiled with
-mfma for the fp32 kernels, so GCC would contract the fp64 a*b + c into
vfmadd*pd/sd unless the `fp-contract=off` region around them holds. This
check disassembles the object (the first argument whose name contains
kernels_avx2; other arguments are ignored, so a target's whole object list
can be passed, ;-joined or not) and counts vf[n]m{add,sub}*{pd,sd} instructions: any is a
failure. fp32 FMAs (ps/ss) are expected and only reported.

The same object holds the fused eval kernel's AVX-512 arm, compiled under
`#pragma GCC target("avx512f")` and run only on CPUs that have it. Code
anywhere else in the object must run on AVX2-only CPUs, so a function whose
symbol does not contain `Avx512` must not touch a zmm register, an opmask
register (%k0-%k7) or xmm16-31/ymm16-31 (EVEX-only encodings): any such
function is a failure.

Exit codes: 0 clean, 1 fp64 FMA or AVX-512 leak found or object missing,
77 (skip) when objdump is not installed.
"""

import re
import shutil
import subprocess
import sys

FP64_FMA = re.compile(r"\bvfn?m(?:add|sub)\w*(?:pd|sd)\b")
FP32_FMA = re.compile(r"\bvfn?m(?:add|sub)\w*(?:ps|ss)\b")
# Registers only EVEX (AVX-512) code can name, in objdump's AT&T syntax.
EVEX_REGISTER = re.compile(r"%(?:zmm\d+|k[0-7]\b|[xy]mm(?:1[6-9]|2\d|3[01])\b)")
FUNCTION_HEADER = re.compile(r"^[0-9a-f]+ <(.+)>:$")
AVX512_ARM = "Avx512"


def avx512_leaks(disasm):
    """{symbol: first offending line} for non-Avx512 functions using EVEX
    registers."""
    leaks = {}
    symbol = None
    for line in disasm.splitlines():
        header = FUNCTION_HEADER.match(line)
        if header:
            symbol = header.group(1)
            continue
        if (symbol is not None and AVX512_ARM not in symbol
                and symbol not in leaks and EVEX_REGISTER.search(line)):
            leaks[symbol] = line.strip()
    return leaks


def main(argv):
    # CMake may hand a target's object list over as one ;-joined argument.
    paths = [p for a in argv[1:] for p in a.split(";")]
    objects = [p for p in paths if "kernels_avx2" in p]
    if not objects:
        print("no kernels_avx2 object among the arguments")
        return 1
    objdump = shutil.which("objdump")
    if objdump is None:
        print("objdump not found; skipping")
        return 77
    disasm = subprocess.run([objdump, "-d", objects[0]], capture_output=True,
                            text=True, check=True).stdout
    fp64 = [line.strip() for line in disasm.splitlines()
            if FP64_FMA.search(line)]
    fp32 = sum(1 for line in disasm.splitlines() if FP32_FMA.search(line))
    leaks = avx512_leaks(disasm)
    print(f"{objects[0]}: {len(fp64)} fp64 FMA, {fp32} fp32 FMA, "
          f"{len(leaks)} non-{AVX512_ARM} function(s) with AVX-512 registers")
    for line in fp64[:20]:
        print("  " + line)
    for symbol, line in sorted(leaks.items()):
        print(f"  AVX-512 outside an {AVX512_ARM} arm: {symbol}: {line}")
    return 1 if fp64 or leaks else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
