#!/usr/bin/env python3
"""Heap profiler: which allocation sites hold a command's memory when its
live heap peaks.

    python3 tools/heapprof.py [--top N] [--expect REGEX] -- CMD ARGS...

Runs CMD with the heapprof shim preloaded (tools/heapprof_shim.cpp, built
as build/tools/libheapprof_shim.so). The shim charges every live heap block
to the call stack that allocated it and at exit hands over the process's
memory map and, per stack, the bytes and blocks it held at the peak. This
script symbolizes each stack with `addr2line -f -i -C` and charges it to
its allocation site: the innermost frame, inlined ones included, whose
source file is not a system header under /usr, so a block that a
std::vector or std::make_unique allocates counts for the program's line
that asked for it.
It prints the peak and the top N sites by bytes held at the peak. It is the
memory counterpart of tools/sprof.py, and shares its symbolizer.

Build with debug info (the default RelWithDebInfo tree) or every site reads
"??". With --expect, the exit status is 1 unless a site among the top N
names a function matching REGEX.
"""
import argparse
import bisect
import collections
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import sprof  # noqa: E402

DEFAULT_LIB = sprof.ROOT / "build" / "tools" / "libheapprof_shim.so"


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--lib", default=str(DEFAULT_LIB),
                    help="the preloaded shim (default: %(default)s)")
    ap.add_argument("--top", type=int, default=20,
                    help="sites to print (default: %(default)s)")
    ap.add_argument("--expect", metavar="REGEX",
                    help="fail unless a top site's function matches REGEX")
    ap.add_argument("cmd", nargs=argparse.REMAINDER,
                    help="-- followed by the command to profile")
    args = ap.parse_args()
    if args.cmd and args.cmd[0] == "--":
        args.cmd = args.cmd[1:]
    if not args.cmd:
        ap.error("no command given (put it after --)")
    return args


def run_profiled(lib, cmd):
    """Run cmd under the shim; returns (status, maps lines, peak bytes,
    peak blocks, [(bytes, blocks, [return addresses])])."""
    if not Path(lib).is_file():
        sys.exit(f"heapprof: shim {lib} not found (build the heapprof_shim target)")
    with tempfile.TemporaryDirectory(prefix="heapprof-") as tmp:
        out = Path(tmp) / "heap"
        env = dict(os.environ, HEAPPROF_OUT=str(out))
        env["LD_PRELOAD"] = " ".join(filter(None, [lib, env.get("LD_PRELOAD")]))
        status = subprocess.run(cmd, env=env).returncode
        if not out.exists():
            sys.exit(f"heapprof: {cmd[0]} left no profile (status {status})")
        lines = out.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("peak "))
    _, peak, peak_blocks = lines[at].split()
    stacks = []
    for line in lines[at + 1:]:
        fields = line.split()
        stacks.append((int(fields[0]), int(fields[1]),
                       [int(a, 16) for a in fields[2:]]))
    return status, lines[:at], int(peak), int(peak_blocks), stacks


def project_source(loc):
    """Is this addr2line location a source file of the profiled program,
    rather than unknown or a system header (the C++ library's templates)?"""
    path = loc.split(":")[0]
    return path.startswith("/") and not path.startswith("/usr/")


def attribute(maps_lines, stacks, lib):
    """Bytes and blocks at the peak per (function, source line) site."""
    shim = os.path.realpath(lib)
    maps = sorted((sprof.Mapping(l) for l in maps_lines), key=lambda m: m.lo)
    starts = [m.lo for m in maps]
    elf = {}
    wanted = collections.defaultdict(set)  # path -> link-time addresses

    def locate(ret):
        # A return address points past its call; look up the call itself.
        ip = ret - 1
        i = bisect.bisect_right(starts, ip) - 1
        m = maps[i] if i >= 0 and ip < maps[i].hi else None
        if m is None or not m.path.startswith("/") or m.path == shim:
            return None
        if m.path not in elf:
            elf[m.path] = sprof.elf_layout(m.path)
        if elf[m.path] is None:
            return None
        vaddr, e_type = elf[m.path]
        addr = ip if e_type == 2 else vaddr(ip - m.lo + m.offset)  # 2: ET_EXEC
        return None if addr is None else (m.path, addr)

    located = [[locate(a) for a in frames] for _, _, frames in stacks]
    for frames in located:
        for where in frames:
            if where:
                wanted[where[0]].add(where[1])
    symbols = {path: sprof.symbolize(path, sorted(addrs))
               for path, addrs in wanted.items()}
    sites = collections.Counter()
    blocks = collections.Counter()
    for (nbytes, nblocks, _), frames in zip(stacks, located):
        site = None
        for where in frames:
            chain = symbols[where[0]].get(where[1], []) if where else []
            site = next(((func, sprof.short_source(loc)) for func, loc in chain
                         if project_source(loc)), None)
            if site:
                break
        site = site or ("[system libraries]", "")
        sites[site] += nbytes
        blocks[site] += nblocks
    return sites, blocks


def main():
    args = parse_args()
    status, maps_lines, peak, peak_blocks, stacks = run_profiled(args.lib, args.cmd)
    if peak == 0:
        sys.exit("heapprof: the command allocated nothing on the heap")
    sites, blocks = attribute(maps_lines, stacks, args.lib)
    print(f"heapprof: peak live heap {peak} bytes ({peak / 2**20:.2f} MiB) "
          f"in {peak_blocks} blocks")
    print(f"top {args.top} allocation sites by bytes held at the peak:")
    for (func, loc), nbytes in sites.most_common(args.top):
        print(f"  {nbytes:>11}  {100.0 * nbytes / peak:6.2f}%  "
              f"{blocks[(func, loc)]:>8} blocks  {func}  {loc}")
    if args.expect:
        top = [func for (func, _), _ in sites.most_common(args.top)]
        if not any(re.search(args.expect, func) for func in top):
            print(f"heapprof: no site among the top {args.top} matches "
                  f"{args.expect!r}", file=sys.stderr)
            return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
