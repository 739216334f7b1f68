#!/usr/bin/env python3
"""Continuous-benchmark regression gate over the schema-2 bench JSON.

The bench binaries (fig3_speedup, fig4_times, ...) emit BENCH_<name>.json
documents: {"schema": 2, "bench": ..., "rows": [{"log2_n": ..,
"seq_p50_ms": .., "par_wall_p50_ms": .., ...}]}. This script compares a
fresh run against a committed baseline and fails when any p50 series
regressed beyond a threshold.

Usage:
  regress.py summary CURRENT.json
      Print the p50 series of a result file.

  regress.py --compare BASELINE.json CURRENT.json \
      [--warn-pct 5] [--fail-pct 10] [--metrics seq_p50_ms,par_wall_p50_ms]
      Compare row-by-row (matched on log2_n). Deltas above --warn-pct are
      reported as warnings; any delta above --fail-pct makes the exit
      status non-zero. CI runs with --warn-pct 10 --fail-pct 25 so shared
      -runner noise warns early but only large regressions break the build.

  regress.py --self-test
      Exercise the compare logic on synthetic data (a 12% p50 regression
      must fail at the default 10% gate, an unchanged run must pass).
      Registered as a tier-1 ctest so the gate itself is gated.

Exit codes: 0 ok (warnings allowed), 1 regression above --fail-pct,
2 usage / malformed input.
"""

import argparse
import json
import sys

SCHEMA_SUPPORTED = (1, 2)

# Series compared by default: every "*_p50_ms" key found in both files.
# --metrics restricts this to an explicit comma-separated list.
P50_SUFFIX = "_p50_ms"


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"regress: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    schema = doc.get("schema")
    if schema not in SCHEMA_SUPPORTED:
        print(f"regress: {path}: unsupported schema {schema!r} "
              f"(supported: {SCHEMA_SUPPORTED})", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc.get("rows"), list):
        print(f"regress: {path}: missing rows[]", file=sys.stderr)
        sys.exit(2)
    return doc


def row_key(row):
    return row.get("log2_n", row.get("n"))


def p50_metrics(row):
    return sorted(k for k, v in row.items()
                  if k.endswith(P50_SUFFIX) and isinstance(v, (int, float)))


def compare_docs(baseline, current, warn_pct, fail_pct, metrics=None,
                 out=sys.stdout):
    """Compare two loaded documents. Returns (n_warn, n_fail)."""
    base_rows = {row_key(r): r for r in baseline["rows"]}
    n_warn = n_fail = 0
    header_shown = False
    for row in current["rows"]:
        key = row_key(row)
        base = base_rows.get(key)
        if base is None:
            print(f"  [new] row log2_n={key} has no baseline; skipped",
                  file=out)
            continue
        keys = metrics or [m for m in p50_metrics(row) if m in base]
        for m in keys:
            if m not in base or m not in row:
                continue
            # metrics_* keys are continuous-telemetry series (sampler
            # timestamps, pool utilization): they describe the run
            # environment, not the benchmarked figure, and are never
            # gated — even when named by --metrics.
            if m.startswith("metrics_"):
                continue
            # Schema-2 rows carry non-numeric plan_* fields (plan_drive,
            # plan_dps_reason, ...); comparison only makes sense for
            # numbers, so skip anything else even when named by --metrics.
            if not all(isinstance(v, (int, float)) and
                       not isinstance(v, bool)
                       for v in (base[m], row[m])):
                continue
            b, c = float(base[m]), float(row[m])
            if b <= 0.0:
                continue
            delta_pct = 100.0 * (c - b) / b
            status = "ok"
            if delta_pct > fail_pct:
                status = "FAIL"
                n_fail += 1
            elif delta_pct > warn_pct:
                status = "warn"
                n_warn += 1
            if not header_shown:
                print(f"  {'log2_n':>7} {'metric':<24} {'base':>10} "
                      f"{'current':>10} {'delta':>8}", file=out)
                header_shown = True
            print(f"  {key!s:>7} {m:<24} {b:>10.4f} {c:>10.4f} "
                  f"{delta_pct:>+7.1f}% {status if status != 'ok' else ''}",
                  file=out)
    return n_warn, n_fail


def cmd_compare(args):
    baseline = load(args.baseline)
    current = load(args.current)
    metrics = args.metrics.split(",") if args.metrics else None
    print(f"regress: {args.current} vs baseline {args.baseline} "
          f"(warn >{args.warn_pct}%, fail >{args.fail_pct}%)")
    n_warn, n_fail = compare_docs(baseline, current, args.warn_pct,
                                  args.fail_pct, metrics)
    if n_fail:
        print(f"regress: FAIL — {n_fail} series regressed more than "
              f"{args.fail_pct}%")
        return 1
    if n_warn:
        print(f"regress: ok with {n_warn} warning(s) above {args.warn_pct}%")
    else:
        print("regress: ok — no regressions above thresholds")
    return 0


def cmd_summary(args):
    doc = load(args.current)
    print(f"bench={doc.get('bench')} schema={doc.get('schema')} "
          f"cores={doc.get('cores')} repetitions={doc.get('repetitions')}")
    for row in doc["rows"]:
        parts = [f"log2_n={row_key(row)}"]
        parts += [f"{m}={row[m]:.4f}" for m in p50_metrics(row)]
        print("  " + "  ".join(parts))
    return 0


def synthetic_doc(p50_scale):
    rows = []
    for lg, base in ((18, 1.00), (19, 2.00)):
        rows.append({
            "log2_n": lg,
            "seq_p50_ms": base * p50_scale,
            "par_wall_p50_ms": 0.5 * base * p50_scale,
        })
    return {"schema": 2, "bench": "selftest", "rows": rows}


def cmd_self_test(_args):
    base = synthetic_doc(1.0)
    import io

    # A 12% p50 regression must trip the default 10% gate.
    _, n_fail = compare_docs(base, synthetic_doc(1.12), warn_pct=5,
                             fail_pct=10, out=io.StringIO())
    if n_fail == 0:
        print("self-test FAIL: 12% regression not detected at fail-pct=10")
        return 1

    # An unchanged run must pass cleanly.
    n_warn, n_fail = compare_docs(base, synthetic_doc(1.0), warn_pct=5,
                                  fail_pct=10, out=io.StringIO())
    if n_warn or n_fail:
        print("self-test FAIL: unchanged run reported a regression")
        return 1

    # An improvement must pass, and a 7% slip warns without failing.
    n_warn, n_fail = compare_docs(base, synthetic_doc(0.9), warn_pct=5,
                                  fail_pct=10, out=io.StringIO())
    if n_warn or n_fail:
        print("self-test FAIL: improvement reported as a regression")
        return 1
    n_warn, n_fail = compare_docs(base, synthetic_doc(1.07), warn_pct=5,
                                  fail_pct=10, out=io.StringIO())
    if n_fail or n_warn == 0:
        print("self-test FAIL: 7% slip should warn (not fail) at 5/10")
        return 1

    print("self-test ok: gate fails >10%, warns >5%, passes otherwise")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--compare", action="store_true",
                    help="compare CURRENT against BASELINE")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in gate self-test")
    ap.add_argument("--warn-pct", type=float, default=5.0,
                    help="warn when a p50 series slows by more than this %%")
    ap.add_argument("--fail-pct", type=float, default=10.0,
                    help="fail when a p50 series slows by more than this %%")
    ap.add_argument("--metrics", default=None,
                    help="comma-separated metric keys (default: all *_p50_ms)")
    ap.add_argument("files", nargs="*",
                    help="summary: CURRENT.json; --compare: BASELINE.json "
                         "CURRENT.json (or positional 'summary' CURRENT.json)")
    args = ap.parse_args(argv)

    if args.self_test:
        return cmd_self_test(args)
    if args.compare:
        if len(args.files) != 2:
            ap.error("--compare needs BASELINE.json and CURRENT.json")
        args.baseline, args.current = args.files
        return cmd_compare(args)
    files = args.files
    if files and files[0] == "summary":
        files = files[1:]
    if len(files) != 1:
        ap.error("summary mode needs exactly one CURRENT.json")
    args.current = files[0]
    return cmd_summary(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
