#!/usr/bin/env python3
"""Symbolise a sampler.c profile: the share of samples per function, from
`nm` on the executable and each shared library the samples fall in.
Samples outside every file-backed mapping count as "[unknown]".

    scripts/sample/symbolize.py run.pcs [--top 25]
"""
import bisect, re, subprocess, sys
from collections import Counter

path = sys.argv[1]
top = int(sys.argv[sys.argv.index("--top") + 1]) if "--top" in sys.argv else 25
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
    """Sorted (address, name) of the functions in `obj`."""
    if obj not in symbols:
        syms = []
        for flags in ([], ["-D"]):
            out = subprocess.run(["nm", "-C", "-n", "--defined-only", *flags, obj],
                                 capture_output=True, text=True).stdout
            for line in out.splitlines():
                f = line.split(" ", 2)
                if len(f) == 3 and f[1] in "tTwWiI":
                    syms.append((int(f[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", f[2])))
            if syms:
                break
        symbols[obj] = (sorted(syms), obj.rsplit("/", 1)[-1])
    return symbols[obj]


counts = Counter()
for pc in pcs:
    obj = next((o for lo, hi, _, o in maps if lo <= pc < hi), None)
    if obj is None:
        counts["[unknown]"] += 1
        continue
    syms, short = symbols_of(obj)
    i = bisect.bisect_right(syms, (pc - bias[obj], chr(0x10FFFF))) - 1
    counts[syms[i][1] if i >= 0 else f"[{short}]"] += 1
total = sum(counts.values()) or 1
print(f"{total} samples")
for name, c in counts.most_common(top):
    print(f"{100 * c / total:6.2f} %  {name}")
