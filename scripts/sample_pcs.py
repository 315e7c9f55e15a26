#!/usr/bin/env python3
"""Leaf-PC sampler: where an untraced run spends its time, by function.

    python3 scripts/sample_pcs.py [--hz 500] [--top 25] -- <program> [args...]

Runs <program> under ptrace, stops it `--hz` times a second, reads the
instruction pointer of the stopped thread and attributes the sample to the
function containing it (`nm -C` of the mapped file, relocated by its load
address; PIE executables and shared objects). No profiler is needed, and
the program runs without the benchmark's telemetry, which perturbs what it
measures. glibc's memcpy, memset and malloc internals are not exported, so
samples inside libc are reported by 4 KiB page (`libc.so.6+0x1a4000`), with
the exported symbol nearest below as a hint, not an attribution. Run the
program itself, not a script that builds it; single-threaded programs only
(the stopped thread is the main one); Linux x86-64. EXPERIMENTS.md, "Reading
the leaf-PC sampler", says how to read the output.
"""

import argparse
import bisect
import collections
import ctypes
import os
import signal
import subprocess
import sys
import time

PTRACE_TRACEME, PTRACE_CONT, PTRACE_GETREGS = 0, 7, 12
RIP = 16  # index of rip in struct user_regs_struct (x86-64)
libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def symbols(path, dynamic):
    """Sorted (address, name) of the functions `path` defines."""
    args = ["nm", "-C", "--defined-only"] + (["-D"] if dynamic else []) + [path]
    out = subprocess.run(args, capture_output=True, text=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwWiI":
            syms.append((int(parts[0], 16), parts[2]))
    return sorted(syms)


class Resolver:
    """Address -> function, re-reading the tracee's maps on a miss (libc is
    mapped after exec, by the dynamic loader)."""

    def __init__(self, pid):
        self.pid, self.maps, self.syms = pid, [], {}

    def reload(self):
        bases, self.maps = {}, []
        with open(f"/proc/{self.pid}/maps") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 6 or not fields[5].startswith("/"):
                    continue
                start, end = (int(x, 16) for x in fields[0].split("-"))
                path = fields[5]
                bases.setdefault(path, start - int(fields[2], 16))
                if "x" in fields[1]:
                    self.maps.append((start, end, bases[path], path))
                    if path not in self.syms:
                        self.syms[path] = symbols(path, dynamic="libc" in path)

    def name(self, pc, retry=True):
        for start, end, base, path in self.maps:
            if start <= pc < end:
                off, short, syms = pc - base, os.path.basename(path), self.syms[path]
                i = bisect.bisect_right(syms, (off, chr(0x10FFFF))) - 1
                if "libc" in path:
                    near = f"  (after {syms[i][1]})" if i >= 0 else ""
                    return f"{short}+{off & ~0xFFF:#x}{near}"
                return syms[i][1] if i >= 0 else f"{short}+{off:#x}"
        if retry:
            self.reload()
            return self.name(pc, retry=False)
        return "[unmapped]"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--hz", type=float, default=500.0)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("cmd", nargs="+")
    a = ap.parse_args()
    pid = os.fork()
    if pid == 0:
        libc.ptrace(PTRACE_TRACEME, 0, None, None)
        os.execvp(a.cmd[0], a.cmd)
    os.waitpid(pid, 0)  # the exec stop
    where, regs = Resolver(pid), (ctypes.c_ulonglong * 27)()
    counts, total = collections.Counter(), 0
    libc.ptrace(PTRACE_CONT, pid, None, None)
    while True:
        time.sleep(1.0 / a.hz)
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            break
        _, status = os.waitpid(pid, 0)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            break
        sig = os.WSTOPSIG(status)
        if sig == signal.SIGSTOP:
            if libc.ptrace(PTRACE_GETREGS, pid, None, ctypes.addressof(regs)) == 0:
                counts[where.name(regs[RIP])] += 1
                total += 1
        # Our SIGSTOP and exec's SIGTRAP are swallowed; anything else is the
        # program's own signal and is delivered.
        deliver = 0 if sig in (signal.SIGSTOP, signal.SIGTRAP) else sig
        libc.ptrace(PTRACE_CONT, pid, None, deliver)
    print(f"{total} samples at {a.hz:g} Hz: {' '.join(a.cmd)}", file=sys.stderr)
    for name, n in counts.most_common(a.top):
        print(f"{100.0 * n / max(total, 1):6.2f} %  {n:7d}  {name}")


if __name__ == "__main__":
    main()
