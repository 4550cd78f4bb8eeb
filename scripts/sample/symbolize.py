#!/usr/bin/env python3
"""Symbolise a sampler.c profile: the share of samples per function, from
`nm` on the executable and each shared library the samples fall in.
Samples outside every file-backed mapping count as "[unknown]". A sample
past the end of the symbol before it (`nm -S` gives sizes) lies in code
no symbol names, such as a stripped library's hidden functions: it
counts as "[libc.so.6+0xOFF]", OFF being where that unnamed stretch
starts in the object, or as "[libc.so.6]" when no symbol precedes it.

    scripts/sample/symbolize.py run.pcs [--top 25] [--lines FUNC]

With `--lines FUNC`, the samples of the functions whose name contains FUNC
are attributed to source lines through `addr2line -i`: once by the line of
FUNC's own body the sample sits in (an inlined callee counts at the line
that calls it) and once by the innermost inlined line. That needs line
tables in the binary: build it with
`CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release`.
"""
import bisect, re, subprocess, sys
from collections import Counter


def arg(flag, default):
    return sys.argv[sys.argv.index(flag) + 1] if flag in sys.argv else default


path = sys.argv[1]
top = int(arg("--top", 25))
func = arg("--lines", None)
maps, pcs = [], []
for line in open(path):
    if line.startswith("map "):
        f = line.split()
        lo, hi = (int(x, 16) for x in f[1].split("-"))
        maps.append((lo, hi, int(f[3], 16), f[-1]))
    else:
        pcs.append(int(line, 16))
bias = {}
for lo, _, off, obj in maps:
    bias[obj] = min(bias.get(obj, lo - off), lo - off)
symbols = {}


def symbols_of(obj):
    """Sorted (address, name, end or None) of the functions in `obj`."""
    if obj not in symbols:
        syms = []
        for flags in ([], ["-D"]):
            out = subprocess.run(["nm", "-C", "-n", "-S", "--defined-only", *flags, obj],
                                 capture_output=True, text=True).stdout
            for line in out.splitlines():
                f = line.split(" ", 3)
                if len(f) > 2 and len(f[1]) == 1:  # no size: address, type, name
                    f = [f[0], None, f[1], " ".join(f[2:])]
                if len(f) == 4 and f[2] in "tTwWiI":
                    addr = int(f[0], 16)
                    end = None if f[1] is None else addr + int(f[1], 16)
                    syms.append((addr, re.sub(r"::h[0-9a-f]{16}$", "", f[3]), end))
            if syms:
                break
        symbols[obj] = (sorted(syms), obj.rsplit("/", 1)[-1])
    return symbols[obj]


counts = Counter()
# (object, address in the object) of every sample in a function matching
# `--lines`.
hits = Counter()
for pc in pcs:
    obj = next((o for lo, hi, _, o in maps if lo <= pc < hi), None)
    if obj is None:
        counts["[unknown]"] += 1
        continue
    syms, short = symbols_of(obj)
    off = pc - bias[obj]
    i = bisect.bisect_right(syms, (off, chr(0x10FFFF))) - 1
    if i < 0:
        name = f"[{short}]"
    elif syms[i][2] is not None and off >= syms[i][2]:
        name = f"[{short}+{syms[i][2]:#x}]"
    else:
        name = syms[i][1]
    counts[name] += 1
    if func is not None and func in name:
        hits[(obj, pc - bias[obj])] += 1
total = sum(counts.values()) or 1
print(f"{total} samples")
for name, c in counts.most_common(top):
    print(f"{100 * c / total:6.2f} %  {name}")


def inline_chains(obj, addrs):
    """`addr2line -i` on `addrs` of `obj`: per address, its (function,
    file:line) frames, innermost first."""
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
                         input="\n".join(f"{a:#x}" for a in addrs),
                         capture_output=True, text=True).stdout.splitlines()
    chains = []
    for line in out:
        if re.fullmatch(r"0x[0-9a-f]{16}", line):
            chains.append([])
        else:
            chains[-1].append(line)
    return [[(f[i], f[i + 1].split(" (discriminator")[0]) for i in range(0, len(f) - 1, 2)]
            for f in chains]


if func is not None:
    n = sum(hits.values())
    print(f"\n{n} samples ({100 * n / total:.2f} %) in functions matching {func!r}")
    own, inner = Counter(), Counter()
    for obj in {o for o, _ in hits}:
        addrs = sorted(a for o, a in hits if o == obj)
        for a, chain in zip(addrs, inline_chains(obj, addrs)):
            c = hits[(obj, a)]
            body = [loc for fn, loc in chain if func in fn] or [chain[-1][1]]
            own[body[-1]] += c
            inner[chain[0][1]] += c
    for title, table in (("by line of its own body", own), ("by innermost line", inner)):
        print(f"\n{title}:")
        for loc, c in table.most_common(top):
            loc = re.sub(r"^.*/(crates|library)/", r"\1/", loc)
            print(f"{100 * c / max(n, 1):6.2f} %  {loc}")
