"""Benchmark for histroute: build, load, route and verify, per workload.

    python3 bench/run.py                      # every workload, both runs
    python3 bench/run.py --workload simple-large --seed 3 --seconds 24 --trace 0

With --workload it runs that one workload once and prints, as its last
line, one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics untraced, per-layer metrics with
--trace 1). Without it, it runs every workload untraced and then traced
and prints a table. Each run happens in a fresh process (peak RSS is a
per-process high-water mark) with the OpenMP and BLAS thread pools
pinned to one thread. The exit code is non-zero when any correctness
check fails or the library cannot be run. See bench/README.md.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simple-large", "simple-wide", "double-large", "route-heavy")
CHILD_TIMEOUT_S = 170
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_one(workload, seed, seconds, trace):
    """Run one workload in a fresh process.

    Returns (exit code, output lines, result or None).
    """
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        return 1, out.splitlines() + [f"timed out after {CHILD_TIMEOUT_S} s"], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return proc.returncode or 1, lines, None
    return proc.returncode, lines[:-1], result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run only this workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: both, when running all workloads)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "histroute").is_dir():
        print(f"error: no histroute sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    if args.workload:
        code, lines, result = run_one(args.workload, args.seed, args.seconds,
                                      args.trace or 0)
        print("\n".join(lines))
        if result is None:
            print("error: the run printed no result", file=sys.stderr)
            return code or 1
        print(json.dumps(result))
        return code if code else (0 if result["correct"] else 1)

    worst = 0
    traces = (0, 1) if args.trace is None else (args.trace,)
    for workload in WORKLOADS:
        for trace in traces:
            code, lines, result = run_one(workload, args.seed, args.seconds, trace)
            label = "traced" if trace else "untraced"
            print(f"== {workload} ({label}, seed {args.seed})")
            print("\n".join("   " + ln for ln in lines))
            if result is None:
                print("   error: no result")
                worst = worst or code or 1
                continue
            print(f"   correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']}")
            if not trace:
                frac = result["failed"] / max(result["attempted"], 1)
                print(f"   {'fail_frac':34s} {frac:>14.6g} ratio")
            for name, m in result["metrics"].items():
                print(f"   {name:34s} {m['value']:>14.6g} {m['unit']}")
            if code or not result["correct"]:
                worst = worst or code or 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
