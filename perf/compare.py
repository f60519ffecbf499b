#!/usr/bin/env python3
"""Paired A/B comparison of perf/ result files, and the spread of one set.

    compare.py --base A1.json A2.json ... --change B1.json B2.json ...
    compare.py --spread R1.json R2.json ... [--write-baseline OUT.json]
    compare.py --self-test

A/B: the i-th base file is paired with the i-th change file (alternate
which side runs first when producing them). For every workload x end-to-end
metric of BENCHMARK.json it prints each side's median and quartiles, the
share of pairs the change won (ties count for neither), and a verdict:

  regressed   the change's median is worse than the base's by more than
              the metric's bound
  improved    the change won at least 9/10 of at least ten pairs and the
              medians differ by more than the base's own quartile distance
  unresolved  the same, but on fewer than ten pairs; or the base's quartile
              distance exceeds the bound, and not every change run reads
              better than every base run
  no change   otherwise

Exit codes: 0 no regression, 1 a regression or a run that failed its
correctness checks, 2 incomparable inputs (different host/build
fingerprints, benchmark versions, run lengths, or modes) or usage errors.

--spread prints, per workload x metric, the median and the quartile and
min-max distances as shares of the median: the run-to-run noise the bounds
in BENCHMARK.json are set against. --write-baseline stores it with the runs.
"""

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
FIXTURES = HERE / "fixtures"

# Result fields that must agree for two runs to be comparable.
COMPAT_KEYS = ("run_seconds", "smoke", "trace")
# No gain is claimed on fewer pairs than this.
MIN_PAIRS = 10


class Incomparable(Exception):
    pass


def load_bounds(path=BENCHMARK):
    spec = json.loads(pathlib.Path(path).read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_results(paths):
    runs = []
    for p in paths:
        doc = json.loads(pathlib.Path(p).read_text())
        doc["_path"] = str(p)
        runs.append(doc)
    return runs


def identity(run):
    prov = run.get("provenance", {})
    return (run.get("fingerprint"), run.get("benchmark_version"),
            tuple(prov.get(k) for k in COMPAT_KEYS))


def check_comparable(runs):
    ids = {identity(r) for r in runs}
    if len(ids) > 1:
        lines = sorted(f"  {r['_path']}: fingerprint={identity(r)[0]} "
                       f"version={identity(r)[1]} "
                       f"{dict(zip(COMPAT_KEYS, identity(r)[2]))}"
                       for r in runs)
        raise Incomparable("results from different hosts, builds, benchmark "
                           "versions or run settings:\n" + "\n".join(lines))
    run = runs[0]
    if run.get("provenance", {}).get("trace"):
        raise Incomparable(f"{run['_path']}: traced runs carry per-layer "
                           "metrics only; compare timed runs")


def incorrect(runs):
    bad = []
    for r in runs:
        for name, w in r.get("workloads", {}).items():
            if not w.get("correct", False):
                bad.append(f"{r['_path']}: {name} failed its correctness "
                           f"checks ({w.get('failed')} failed requests)")
    return bad


def values(runs, workload, metric):
    out = []
    for r in runs:
        m = r.get("workloads", {}).get(workload, {}).get("metrics", {})
        if metric in m and m[metric].get("value") is not None:
            out.append(float(m[metric]["value"]))
    return out


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def verdict(base, change, better, bound):
    """Verdict of one workload x metric; see the module docstring."""
    q1b, mb, q3b = quartiles(base)
    _, mc, _ = quartiles(change)
    lower = better == "lower"
    pairs = list(zip(base, change))
    won = sum(1 for b, c in pairs if (c < b if lower else c > b))
    worse = ((mc - mb) if lower else (mb - mc)) / mb
    spread = (q3b - q1b) / mb
    all_better = (max(change) < min(base)) if lower else \
        (min(change) > max(base))
    if worse > bound:
        v = "regressed"
    elif won >= 0.9 * len(pairs) and abs(mc - mb) > (q3b - q1b) and worse < 0:
        v = "improved" if len(pairs) >= MIN_PAIRS else "unresolved"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "no change"
    return v, won, len(pairs)


def compare(base_runs, change_runs, bounds, out=sys.stdout):
    check_comparable(base_runs + change_runs)
    if len(base_runs) != len(change_runs):
        raise Incomparable(f"{len(base_runs)} base runs but "
                           f"{len(change_runs)} change runs: pairs need "
                           "equal counts")
    bad = incorrect(base_runs + change_runs)
    for line in bad:
        print(f"INCORRECT {line}", file=out)
    workloads = sorted(set().union(*(r["workloads"] for r in base_runs))
                       & set().union(*(r["workloads"] for r in change_runs)))
    print(f"{'workload':<16} {'metric':<10} {'base median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won':>7}  verdict", file=out)
    verdicts = {}
    for w in workloads:
        for name, spec in bounds.items():
            b = values(base_runs, w, name)
            c = values(change_runs, w, name)
            if not b or len(b) != len(c):
                continue
            v, won, n = verdict(b, c, spec["better"], spec["bound"])
            q1b, mb, q3b = quartiles(b)
            q1c, mc, q3c = quartiles(c)
            print(f"{w:<16} {name:<10} "
                  f"{f'{mb:.5g} [{q1b:.5g}, {q3b:.5g}]':<34} "
                  f"{f'{mc:.5g} [{q1c:.5g}, {q3c:.5g}]':<34} "
                  f"{f'{won}/{n}':>7}  {v}", file=out)
            verdicts[(w, name)] = v
    return verdicts, bad


def spread(runs, bounds):
    """Per workload x metric: median, quartile and range distances."""
    check_comparable(runs)
    table = {}
    workloads = sorted(set().union(*(r["workloads"] for r in runs)))
    for w in workloads:
        for name in bounds:
            xs = values(runs, w, name)
            if not xs:
                continue
            q1, med, q3 = quartiles(xs)
            table.setdefault(w, {})[name] = {
                "values": xs,
                "median": med,
                "iqr_share": (q3 - q1) / med,
                "range_share": (max(xs) - min(xs)) / med,
                "bound": bounds[name]["bound"],
            }
    return table


def print_spread(table, out=sys.stdout):
    print(f"{'workload':<16} {'metric':<10} {'median':>12} {'iqr/med':>9} "
          f"{'range/med':>10} {'bound':>6}", file=out)
    for w, metrics in table.items():
        for name, s in metrics.items():
            print(f"{w:<16} {name:<10} {s['median']:>12.6g} "
                  f"{s['iqr_share']:>9.4f} {s['range_share']:>10.4f} "
                  f"{s['bound']:>6}", file=out)


def self_test():
    """Runs compare() on the committed fixtures; returns the exit code."""
    bounds = load_bounds(FIXTURES / "benchmark.json")

    def runs(side):
        # side-1 ... side-10 in numeric order: pair i is run i of each side.
        paths = sorted(FIXTURES.glob(f"{side}-*.json"),
                       key=lambda p: int(p.stem.split("-")[1]))
        return load_results(paths)

    base, change = runs("base"), runs("change")
    expected = {
        ("uds_mixed", "p50_ms"): "improved",
        ("uds_mixed", "max_rps"): "regressed",
        ("uds_mixed", "setup_s"): "unresolved",
        ("uds_mixed", "rss_mb"): "no change",
    }
    failures = []
    verdicts, bad = compare(base, change, bounds, out=sys.stderr)
    for key, want in expected.items():
        got = verdicts.get(key, "missing")
        if got != want:
            failures.append(f"{' '.join(key)}: expected {want}, got {got}")
    if bad:
        failures.append(f"fixtures flagged incorrect: {bad}")
    few, _ = compare(base[:5], change[:5], bounds, out=sys.stderr)
    if few.get(("uds_mixed", "p50_ms")) != "unresolved":
        failures.append("a gain on five pairs was not left unresolved")
    try:
        compare(base, load_results([FIXTURES / "other-host.json"] * len(base)),
                bounds, out=sys.stderr)
        failures.append("a different fingerprint was not refused")
    except Incomparable:
        pass
    for f in failures:
        print(f"compare.py self-test: FAIL {f}", file=sys.stderr)
    if not failures:
        print(f"compare.py self-test: ok ({len(verdicts)} verdicts, "
              "five pairs unresolved, fingerprint mismatch refused)")
    return 1 if failures else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", help="result files of the parent")
    ap.add_argument("--change", nargs="+", help="result files of the change")
    ap.add_argument("--spread", nargs="+", help="result files of one commit")
    ap.add_argument("--write-baseline", help="with --spread: store it here")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    try:
        bounds = load_bounds()
        if args.spread:
            runs = load_results(args.spread)
            table = spread(runs, bounds)
            print_spread(table)
            if args.write_baseline:
                doc = {
                    "fingerprint": runs[0]["fingerprint"],
                    "benchmark_version": runs[0]["benchmark_version"],
                    "provenance": runs[0]["provenance"],
                    "seeds": [r["provenance"]["seed"] for r in runs],
                    "spread": table,
                }
                pathlib.Path(args.write_baseline).write_text(
                    json.dumps(doc, indent=2) + "\n")
            return 1 if incorrect(runs) else 0
        if not args.base or not args.change:
            ap.error("give --base and --change, --spread, or --self-test")
        verdicts, bad = compare(load_results(args.base),
                                load_results(args.change), bounds)
    except Incomparable as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    return 1 if bad or "regressed" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
