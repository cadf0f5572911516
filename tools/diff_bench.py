#!/usr/bin/env python3
"""Gate scheduler-round perf against a committed baseline.

Compares the BENCH_sched_round.json a CI run just produced against the
checked-in bench/baselines/BENCH_sched_round.json and fails (exit 1) when
any (config, jobs) point regressed by more than the threshold.

CI runners and the machine that produced the baseline differ in raw
speed, so absolute times are not comparable. Each sweep file records
`reference_seconds`, the time of a fixed single-threaded kernel run
beside the sweep, and the gate divides every point's ratio by the
ratio of the two reference times: a uniformly slower machine shifts
every ratio and the reference alike and cancels out. A point fails only
when its normalized ratio exceeds 1 + threshold. Normalizing by the
median ratio instead, as this gate once did, reads a change that speeds
up most points as a regression of the points it leaves alone; the median
is used only when a file predates `reference_seconds` (a hard failure
with --strict).

Sub-millisecond sweep points jitter by tens of percent run to run, so a
ratio alone would cry wolf; a point regresses only when it exceeds the
threshold AND slows down by at least --min-delta-ms in absolute terms.

A single sweep still spikes: a point's round time can swing by a third
between back-to-back runs on one host. So the gate takes several current
sweep files, normalizes each by its own reference time, and gates each
point on the median over those files of its normalized ratio and of its
absolute slowdown. A point slow in one sweep of three passes; a point
slow in most of them fails. Given one current file, the median is that
file's value and the gate is exactly the single-sweep gate.

    diff_bench.py [--threshold=0.20] [--min-delta-ms=0.25] \
        [--key=round_seconds] [--strict] baseline.json current.json \
        [current2.json ...]

Each point's line also carries the sweep's plan-quality and solver
columns when the files have them, for the reader and never gated:
stage-0 profile classes, stages the class-count quotient matched and its
uncertified fallbacks, the share of jobs grouped, and the mean γ of the
plan's groups (baseline -> current where the baseline has them).

Exit status: 0 clean, 1 regression / missing or unreadable baseline /
malformed input, 2 when the two files share no sweep points (wrong
baseline checked in). A point missing the compared metric is only a
warning — the point is skipped and the rest still gate — because an
older baseline predating a new metric must not mask regressions in the
metrics it does have. With --strict that leniency is off: a point
lacking the metric is a hard failure (exit 1), for per-PR gates where
baseline and bench were built from the same tree and a missing metric
means the instrumentation silently vanished. A missing *file* is never
soft: in CI that means the baseline was not checked in (or the bench
never wrote its output), and silently passing would disable the gate
entirely.
"""

import argparse
import json
import statistics
import sys

# Sweep columns printed beside each point's round time (see above).
COLUMNS = ("classes", "quotient_solves", "quotient_fallbacks",
           "grouped_fraction", "mean_gamma")


def load_points(path, key, strict=False):
    """Returns (points, reference_seconds or None, columns) of one sweep
    file; columns maps a point to the COLUMNS it carries."""
    with open(path) as f:
        doc = json.load(f)
    reference = doc.get("reference_seconds")
    if reference is not None and (not isinstance(reference, (int, float))
                                  or reference <= 0):
        raise ValueError(f"{path}: bad reference_seconds: {reference!r}")
    if reference is None and strict:
        raise ValueError(f"{path}: lacks reference_seconds (--strict)")
    points = {}
    columns = {}
    for p in doc.get("sweep", []):
        ident = (p["config"], p["jobs"])
        columns[ident] = {k: p[k] for k in COLUMNS if k in p}
        value = p.get(key)
        if value is None:
            if strict:
                raise ValueError(
                    f"{path}: point {ident} lacks {key!r} (--strict)")
            print(f"diff_bench: warning: {path}: point {ident} lacks "
                  f"{key!r}; skipped", file=sys.stderr)
            continue
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"{path}: point {ident} has bad {key!r}: {value!r}")
        points[ident] = float(value)
    if not points:
        raise ValueError(f"{path}: no sweep points with metric {key!r}")
    return points, reference, columns


def column_note(base, cur):
    """The COLUMNS of one point as a line suffix; empty without them."""
    if not cur:
        return ""
    parts = []
    if "classes" in cur:
        parts.append(f"classes {cur['classes']}")
    if "quotient_solves" in cur:
        parts.append(f"quotient {cur['quotient_solves']} "
                     f"({cur.get('quotient_fallbacks', 0)} fallbacks)")
    for key, label, fmt in (("grouped_fraction", "grouped", ".3f"),
                            ("mean_gamma", "mean gamma", ".4f")):
        if key in cur:
            old = f"{base[key]:{fmt}} -> " if key in base else ""
            parts.append(f"{label} {old}{cur[key]:{fmt}}")
    return "  [" + ", ".join(parts) + "]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="+",
                        help="one or more sweep files of the same tree; each "
                             "point gates on its median over them")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed normalized slowdown (default 0.20)")
    parser.add_argument("--min-delta-ms", type=float, default=0.25,
                        help="ignore regressions smaller than this many "
                             "milliseconds (default 0.25)")
    parser.add_argument("--key", default="round_seconds",
                        help="sweep field to compare (default round_seconds)")
    parser.add_argument("--strict", action="store_true",
                        help="fail (exit 1) on points missing the compared "
                             "metric instead of skipping them")
    args = parser.parse_args()

    try:
        base, base_ref, base_columns = load_points(args.baseline, args.key,
                                                   args.strict)
    except OSError as e:
        print(f"diff_bench: baseline missing or unreadable: {e}\n"
              f"diff_bench: commit a baseline at {args.baseline} "
              f"(run the sweep locally and copy its JSON)", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as e:
        print(f"diff_bench: malformed baseline: {e}", file=sys.stderr)
        return 1
    sweeps = []
    for path in args.current:
        try:
            sweeps.append(load_points(path, args.key, args.strict))
        except (OSError, ValueError, KeyError) as e:
            print(f"diff_bench: cannot read current sweep: {e}",
                  file=sys.stderr)
            return 1

    current = set().union(*(cur for cur, _, _ in sweeps))
    shared = sorted(set(base) & current)
    if not shared or any(not set(base) & set(cur) for cur, _, _ in sweeps):
        print("diff_bench: baseline and current share no sweep points "
              "(stale baseline?)", file=sys.stderr)
        return 2
    for ident in sorted(set(base) ^ current):
        side = "baseline" if ident in base else "current"
        print(f"diff_bench: note: {ident} only in {side}; skipped")

    # One machine factor per current sweep: its reference time over the
    # baseline's, or its own median ratio when a file lacks the reference.
    factors = []
    use_reference = base_ref is not None and all(
        ref is not None for _, ref, _ in sweeps)
    for cur, cur_ref, _ in sweeps:
        if use_reference:
            factors.append(cur_ref / base_ref)
        else:
            factors.append(statistics.median(
                cur[ident] / base[ident] for ident in shared if ident in cur))
    source = ("reference kernel" if use_reference else
              "median ratio (a file lacks reference_seconds)")
    limit = 1.0 + args.threshold

    regressed = []
    print(f"diff_bench: {len(shared)} shared points, machine factor "
          f"{', '.join(f'{f:.3f}' for f in factors)} from the {source}, "
          f"limit {limit:.2f}x after normalization")
    for ident in shared:
        runs = [(cur[ident], factor)
                for (cur, _, _), factor in zip(sweeps, factors)
                if ident in cur]
        seconds = statistics.median(secs for secs, _ in runs)
        normalized = statistics.median(
            secs / base[ident] / factor for secs, factor in runs)
        delta_ms = statistics.median(
            (secs - base[ident] * factor) * 1e3 for secs, factor in runs)
        config, jobs = ident
        line = (f"  {config:<9} jobs={jobs:<4}  "
                f"{base[ident] * 1e3:8.3f} ms -> {seconds * 1e3:8.3f} ms  "
                f"({normalized:.2f}x normalized)")
        if normalized > limit and delta_ms >= args.min_delta_ms:
            regressed.append(ident)
            line += "  REGRESSION"
        cur_columns = next(cols[ident] for cur, _, cols in sweeps
                           if ident in cur)
        print(line + column_note(base_columns.get(ident, {}), cur_columns))

    if regressed:
        print(f"diff_bench: {len(regressed)} point(s) regressed more than "
              f"{args.threshold:.0%} over baseline ({args.baseline})",
              file=sys.stderr)
        return 1
    print("diff_bench: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
