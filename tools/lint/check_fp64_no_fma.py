#!/usr/bin/env python3
"""Fails when the AVX2 kernel object contains an fp64 fused multiply-add.

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

Exit codes: 0 clean, 1 fp64 FMA found or object missing, 77 (skip) when
objdump is not installed.
"""

import re
import shutil
import subprocess
import sys

FP64_FMA = re.compile(r"\bvfn?m(?:add|sub)\w*(?:pd|sd)\b")
FP32_FMA = re.compile(r"\bvfn?m(?:add|sub)\w*(?:ps|ss)\b")


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
    print(f"{objects[0]}: {len(fp64)} fp64 FMA, {fp32} fp32 FMA")
    for line in fp64[:20]:
        print("  " + line)
    return 1 if fp64 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
