#!/usr/bin/env python3
"""Folds the samples of the in-process profiler (tools/sampler) into shares.

    LD_PRELOAD=build/tools/libmuri_sampler.so ./build/examples/trace_sim
    python3 tools/fold_samples.py --root run_simulation muri-samples.*.txt

Each input line is one sample: its frames as module+0xoffset, leaf first.
Offsets are symbolized with `addr2line -f -C -i`, so a frame inlined into
its caller still shows as a function of its own (given debug info; without
it, only symbol-table functions appear, and a library without symbols
shows the nearest exported name). Among the samples whose stack
holds the root function, the report lists each function's inclusive share
(samples with it anywhere on the stack) and self share (samples with it as
the leaf), both in percent of the root's samples.
"""
import argparse
import collections
import os
import subprocess
import sys


def strip_params(name):
    """'ns::f(int) const' -> 'ns::f'; leaves '??' and bare names alone."""
    for suffix in (" const", " [clone"):
        cut = name.find(suffix, name.rfind(")") if ")" in name else 0)
        if cut > 0:
            name = name[:cut]
    if not name.endswith(")"):
        return name
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                return name[:i] if i > 0 else name
    return name


def read_samples(paths):
    samples = []
    for path in paths:
        with open(path) as f:
            for line in f:
                frames = []
                for token in line.split():
                    module, _, offset = token.rpartition("+0x")
                    frames.append((module, int(offset, 16)))
                if frames:
                    samples.append(frames)
    return samples


def symbolize(module, addresses):
    """Address -> inline chain of function names, innermost first."""
    unknown = "?? [%s]" % os.path.basename(module)
    names = {a: [unknown] for a in addresses}
    if not os.path.isfile(module):
        return names
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", module],
        input="".join("0x%x\n" % a for a in addresses),
        capture_output=True, text=True)
    current = None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = int(line, 16)
            names[current] = []
            i += 1
            continue
        # Function line followed by its file:line.
        if current is not None:
            names[current].append(
                strip_params(line) if line != "??" else unknown)
        i += 2
    for a in addresses:
        if not names.get(a):
            names[a] = [unknown]
    return names


def fold(samples):
    """Each sample as a list of function names, leaf first."""
    # A caller frame holds a return address; the call is the byte before.
    wanted = collections.defaultdict(set)
    for frames in samples:
        for depth, (module, offset) in enumerate(frames):
            wanted[module].add(offset if depth == 0 else offset - 1)
    names = {}
    for module, offsets in wanted.items():
        for address, chain in symbolize(module, sorted(offsets)).items():
            names[(module, address)] = chain
    stacks = []
    for frames in samples:
        stack = []
        for depth, (module, offset) in enumerate(frames):
            stack.extend(names[(module, offset if depth == 0 else offset - 1)])
        stacks.append(stack)
    return stacks


def matches(name, root):
    return name == root or name.endswith("::" + root)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default="main",
                        help="count only samples under this function")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to list (by inclusive share)")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)

    stacks = fold(read_samples(args.files))
    inclusive = collections.Counter()
    self_counts = collections.Counter()
    under_root = 0
    for stack in stacks:
        # Frames from the leaf up to the outermost root frame.
        roots = [i for i, name in enumerate(stack) if matches(name, args.root)]
        if not roots:
            continue
        under_root += 1
        below = stack[:roots[-1] + 1]
        for name in set(below):
            inclusive[name] += 1
        self_counts[below[0]] += 1
    print("%d samples, %d under %s" % (len(stacks), under_root, args.root))
    if under_root == 0:
        return 1
    print("%8s %8s  %s" % ("incl %", "self %", "function"))
    for name, count in inclusive.most_common(args.top):
        print("%8.1f %8.1f  %s" % (100.0 * count / under_root,
                                   100.0 * self_counts[name] / under_root,
                                   name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
