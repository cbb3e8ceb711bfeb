#!/usr/bin/env python3
"""Fail if wide-ISA code leaked out of the MTTKRP kernel flavors.

The MTTKRP kernels are compiled once per x86-64 level (src/mttkrp/isa.hpp):
the x86-64-v3 and x86-64-v4 flavors live in the namespaces isa_v3 and
isa_v4 and run only after a CPUID check. Every other function in the
library must run on any x86-64, so it must hold no VEX/EVEX instruction
(a mnemonic starting with "v") and no BMI1/BMI2 instruction. A leak
happens when a wide compile flag reaches shared inline code: the linker
may keep the wide out-of-line copy, and then a CPU without the extension
dies with SIGILL in, say, a log-line destructor.

The check disassembles the static archive, not a linked binary: the
archive holds every COMDAT copy of a shared inline function, whichever one
a linker would keep.

A function counts as flavored when its demangled name names the isa_v3 or
isa_v4 namespace anywhere, template arguments included: such a symbol is
unique to that flavor's object file, so no unflavored caller can bind to it.

`tzcnt` is allowed: baseline GCC emits `rep bsf` for count-trailing-zeros,
which objdump prints as `tzcnt`.

Usage: check_isa_leaks.py path/to/libaoadmm.a
Exit 0 when clean, 1 on a leak, 77 (skip) when objdump is missing or the
archive is not x86-64.
"""

import re
import shutil
import subprocess
import sys

SKIP = 77

FLAVOR_NAMESPACES = ("isa_v3::", "isa_v4::")

# BMI1 + BMI2; none is in baseline x86-64.
BMI = {
    "andn", "bextr", "blsi", "blsmsk", "blsr",
    "bzhi", "mulx", "pdep", "pext", "rorx", "sarx", "shlx", "shrx",
}

# x86 mnemonics starting with "v" that are not VEX/EVEX encoded.
NOT_VEX = {"verr", "verw"}

FUNC_RE = re.compile(r"^[0-9a-f]+ <(.*)>:$")
# "   1a:\tvmovupd (%rax),%zmm1" (objdump --no-show-raw-insn)
INSN_RE = re.compile(r"^\s*[0-9a-f]+:\t(.*)$")
# Prefixes objdump prints before the mnemonic.
PREFIXES = {"lock", "rep", "repz", "repe", "repnz", "repne", "notrack",
            "bnd", "data16", "addr32", "cs", "ds", "es", "ss", "fs", "gs",
            "rex", "xacquire", "xrelease"}


def mnemonic(text):
    """First token of an instruction that is not a prefix."""
    for token in text.split():
        if token not in PREFIXES and not token.startswith("rex."):
            return token
    return ""


def is_wide(mnem):
    if mnem in BMI:
        return True
    return mnem.startswith("v") and mnem not in NOT_VEX


def flavored(func):
    return any(ns in func for ns in FLAVOR_NAMESPACES)


def scan(lines):
    """Map each unflavored function with a wide instruction to the first
    few wide mnemonics found in it."""
    leaks = {}
    func = None
    member = None
    for line in lines:
        if line.startswith("In archive") or not line:
            continue
        if line.endswith("file format elf64-x86-64"):
            member = line.split(":")[0]
            continue
        m = FUNC_RE.match(line)
        if m:
            func = m.group(1)
            continue
        m = INSN_RE.match(line)
        if not m or func is None or flavored(func):
            continue
        mnem = mnemonic(m.group(1))
        if is_wide(mnem):
            found = leaks.setdefault((member, func), [])
            if len(found) < 4 and mnem not in found:
                found.append(mnem)
    return leaks


def main(argv):
    if len(argv) != 2:
        print("usage: check_isa_leaks.py path/to/libaoadmm.a",
              file=sys.stderr)
        return 2
    archive = argv[1]
    objdump = shutil.which("objdump")
    if objdump is None:
        print("check_isa_leaks: objdump not found; skipping")
        return SKIP
    header = subprocess.run([objdump, "-f", archive], capture_output=True,
                            text=True, check=False)
    if header.returncode != 0:
        print(header.stderr.strip(), file=sys.stderr)
        return 2
    if "elf64-x86-64" not in header.stdout:
        print(f"check_isa_leaks: {archive} is not x86-64; skipping")
        return SKIP
    proc = subprocess.run([objdump, "-d", "-C", "--no-show-raw-insn",
                           archive], capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        print(proc.stderr.strip(), file=sys.stderr)
        return 2
    leaks = scan(proc.stdout.splitlines())
    if not leaks:
        print(f"check_isa_leaks: no VEX/EVEX or BMI instruction outside "
              f"{', '.join(ns.rstrip(':') for ns in FLAVOR_NAMESPACES)} "
              f"in {archive}")
        return 0
    print(f"check_isa_leaks: {len(leaks)} unflavored function(s) hold "
          f"wide instructions:")
    for (member, func), mnems in sorted(leaks.items()):
        print(f"  {member}: {func}: {' '.join(mnems)}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
