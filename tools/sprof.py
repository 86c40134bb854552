#!/usr/bin/env python3
"""Sampling profiler: where a command spends its wall time, by function
and by source line.

    python3 tools/sprof.py [--top N] [--expect REGEX] -- CMD ARGS...

Runs CMD with the sprof shim preloaded (tools/sprof_shim.cpp, built as
build/tools/libsprof_shim.so). The shim samples the instruction pointer
about every 100 us of wall time and at exit hands over the process's
memory map and the raw samples. This script maps each sample to its ELF
file, symbolizes it with `addr2line -f -i -C`, and prints the top N
functions and the top N source lines, each with its share of samples. A
sample inside inlined code counts for the innermost inlined function, so
the two tables agree line by line.

It needs no PMU, no perf and no valgrind, and it inserts no mcount calls
into small functions. Build with debug info (the default RelWithDebInfo
tree) or every function reads "??". With --expect, the exit status is 1
unless a function among the top N matches REGEX.
"""
import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_LIB = ROOT / "build" / "tools" / "libsprof_shim.so"


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--lib", default=str(DEFAULT_LIB),
                    help="the preloaded shim (default: %(default)s)")
    ap.add_argument("--top", type=int, default=20,
                    help="rows per table (default: %(default)s)")
    ap.add_argument("--expect", metavar="REGEX",
                    help="fail unless a top function matches REGEX")
    ap.add_argument("cmd", nargs=argparse.REMAINDER,
                    help="-- followed by the command to profile")
    args = ap.parse_args()
    if args.cmd and args.cmd[0] == "--":
        args.cmd = args.cmd[1:]
    if not args.cmd:
        ap.error("no command given (put it after --)")
    return args


def run_sampled(lib, cmd):
    """Run cmd under the shim; returns (exit status, maps lines, samples)."""
    if not Path(lib).is_file():
        sys.exit(f"sprof: shim {lib} not found (build the sprof_shim target)")
    with tempfile.TemporaryDirectory(prefix="sprof-") as tmp:
        out = Path(tmp) / "samples"
        env = dict(os.environ, SPROF_OUT=str(out))
        env["LD_PRELOAD"] = " ".join(filter(None, [lib, env.get("LD_PRELOAD")]))
        status = subprocess.run(cmd, env=env).returncode
        if not out.exists():
            sys.exit(f"sprof: {cmd[0]} left no samples (status {status})")
        lines = out.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("samples "))
    _, kept, taken = lines[at].split()
    if kept != taken:
        print(f"sprof: kept the first {kept} of {taken} samples", file=sys.stderr)
    return status, lines[:at], [int(a, 16) for a in lines[at + 1:]]


class Mapping:
    def __init__(self, line):
        fields = line.split(maxsplit=5)
        lo, hi = fields[0].split("-")
        self.lo, self.hi = int(lo, 16), int(hi, 16)
        self.offset = int(fields[2], 16)
        self.path = fields[5].strip() if len(fields) == 6 else ""


def elf_layout(path):
    """(f(file offset) -> link-time address, ELF type) of a 64-bit ELF
    file, or None for anything else."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if head[:4] != b"\x7fELF" or head[4] != 2:  # 64-bit only
                return None
            e_type, = struct.unpack_from("<H", head, 16)
            e_phoff, = struct.unpack_from("<Q", head, 32)
            e_phentsize, e_phnum = struct.unpack_from("<HH", head, 54)
            f.seek(e_phoff)
            table = f.read(e_phentsize * e_phnum)
    except OSError:
        return None
    loads = []
    for i in range(e_phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * e_phentsize)
        if p_type == 1:  # PT_LOAD
            loads.append((p_offset, p_vaddr, p_filesz))

    def vaddr(offset):
        for p_offset, p_vaddr, p_filesz in loads:
            if p_offset <= offset < p_offset + p_filesz:
                return offset - p_offset + p_vaddr
        return None
    return vaddr, e_type


def symbolize(path, addrs):
    """addr2line the link-time addresses; returns {addr: [(func, line)...]},
    innermost inlined frame first."""
    r = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", path],
                       input="\n".join(f"{a:x}" for a in addrs), text=True,
                       capture_output=True)
    frames, cur = {}, None
    lines = r.stdout.splitlines()
    i = 0
    while i < len(lines):
        if re.fullmatch(r"0x[0-9a-f]+", lines[i]):
            cur = int(lines[i], 16)
            frames[cur] = []
            i += 1
        elif cur is not None and i + 1 < len(lines):
            frames[cur].append((lines[i], lines[i + 1]))
            i += 2
        else:
            i += 1
    return frames


def short_source(loc):
    loc = re.sub(r" \(discriminator \d+\)$", "", loc)
    root = str(ROOT) + os.sep
    return loc[len(root):] if loc.startswith(root) else loc


def attribute(maps_lines, samples):
    """Counts of samples per function and per source line."""
    maps = sorted((Mapping(l) for l in maps_lines), key=lambda m: m.lo)
    starts = [m.lo for m in maps]
    elf = {}
    wanted = collections.defaultdict(set)  # path -> link-time addresses
    located = []  # (path, link-time address) or (label, None) per sample
    for ip in samples:
        i = bisect.bisect_right(starts, ip) - 1
        m = maps[i] if i >= 0 and ip < maps[i].hi else None
        if m is None or not m.path.startswith("/"):
            located.append((f"[{m.path or 'anon'}]" if m else "[unmapped]", None))
            continue
        if m.path not in elf:
            elf[m.path] = elf_layout(m.path)
        if elf[m.path] is None:
            located.append((f"[{os.path.basename(m.path)}]", None))
            continue
        vaddr, e_type = elf[m.path]
        addr = ip if e_type == 2 else vaddr(ip - m.lo + m.offset)  # 2: ET_EXEC
        if addr is None:
            located.append((f"[{os.path.basename(m.path)}]", None))
            continue
        wanted[m.path].add(addr)
        located.append((m.path, addr))
    frames = {path: symbolize(path, sorted(addrs)) for path, addrs in wanted.items()}
    funcs, lines = collections.Counter(), collections.Counter()
    for where, addr in located:
        chain = frames[where].get(addr) if addr is not None else None
        if not chain or chain[0][0] == "??":
            label = f"[{os.path.basename(where)}]" if addr is not None else where
            funcs[label] += 1
            lines[label] += 1
            continue
        funcs[chain[0][0]] += 1
        lines[short_source(chain[0][1])] += 1
    return funcs, lines


def print_table(title, counts, total, top):
    print(title)
    for name, n in counts.most_common(top):
        print(f"  {100.0 * n / total:6.2f}%  {name}")


def main():
    args = parse_args()
    status, maps_lines, samples = run_sampled(args.lib, args.cmd)
    if not samples:
        sys.exit("sprof: no samples taken (the command ran under 100 us)")
    funcs, lines = attribute(maps_lines, samples)
    total = len(samples)
    print(f"sprof: {total} samples, one per ~100 us of wall time")
    print_table(f"top {args.top} functions:", funcs, total, args.top)
    print_table(f"top {args.top} source lines:", lines, total, args.top)
    if args.expect:
        top = [name for name, _ in funcs.most_common(args.top)]
        if not any(re.search(args.expect, name) for name in top):
            print(f"sprof: no function among the top {args.top} matches "
                  f"{args.expect!r}", file=sys.stderr)
            return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
