"""The fatpoints benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # all three workloads in turn
    python3 perfbench/run.py --self-test

Run it from the root of a checkout; the package is imported from ``src/``.
Each phase runs in a fresh interpreter (``worker.py``): set-up samples, the
solve phase, and a replay phase that reads the solve phase's certificates
from files.  With ``--trace 0`` the run repeats untraced passes until
``--seconds`` have passed (at least one) and prints the end-to-end metrics;
with ``--trace 1`` it runs one untraced solve, then a traced solve and a
traced replay, and prints the per-layer metrics.  The last line of standard
output is one JSON object; the exit code is 1 when any output is wrong.
See README.md in this directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "table_oracle", "hard_cases")
SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170  # a run must end within 180 s
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)
VERDICTS = ("empty", "regular", "special_known", "unknown")
NODE_KINDS = ("no_conditions", "multiplicity_exceeds_degree", "fixed_part_removal",
              "cremona_reduction", "standard_small", "bounded_tail", "degeneration",
              "rank_oracle")
EXACT_UNITS = ("count", "ratio", "ops_computed", "bytes_computed")
# The benchmark runs "full"; the self-test runs "smoke".  None keeps everything.
SLICES = {
    "full": {"sweep_max_degree": 32, "table_rows": None, "hard_cases": None},
    "smoke": {"sweep_max_degree": 8, "table_rows": ["L(10,2,6^3)"],
              "hard_cases": ["L(8,0,6^3)", "L(9,1,6^3)"]},
}

END_TO_END = {"setup_s": "s", "solve_s": "s", "replay_s": "s", "system_ms_p50": "ms",
              "system_ms_tail": "ms", "peak_rss_mb": "MB"}
# Always zero at a correct commit, so they are reported with the layers and
# in the text summary rather than gated as end-to-end metrics.
OUTCOME_FRACTIONS = {"failed_frac": "ratio", "unknown_frac": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version()}


def worker_env() -> dict:
    """Bytecode is never written, so every set-up compiles the same sources."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    return env


def run_worker(spec: dict, env: dict, deadline: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['phase']} worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{spec['phase']} worker failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-4000:]}")
    out = json.loads(lines[-1])
    if Path(out["fatpoints_file"]).resolve().parent.parent != (ROOT / "src").resolve():
        raise BenchError(f"imported fatpoints from {out['fatpoints_file']}, not src/")
    return out


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` samples beyond it."""
    return max(p for p in TAIL_LADDER if n * (1 - p / 100) >= 10 or p == 50)


def load_reference() -> dict[str, tuple[str, int | None]]:
    with open(HERE / "sweep_reference.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {sys_: (status, None if ell == "" else int(ell)) for sys_, status, ell in rows}


def check_pass(workload: str, solved: dict, replayed: dict | None, slice_: str,
               reference: dict) -> dict:
    """Compare one pass's outputs with what they must be; counts failures."""
    outcomes = solved["outcomes"]
    failed: set[str] = set()
    improved = unknown = 0
    if workload == "sweep":
        top = SLICES[slice_]["sweep_max_degree"]
        want = {s for s in reference if int(re.match(r"L\((\d+)", s).group(1)) <= top}
        seen = [o[0] for o in outcomes]
        if sorted(seen) != sorted(want):
            raise BenchError("the sweep did not settle exactly the reference systems")
        for system, status, ell in outcomes:
            ref_status, ref_ell = reference[system]
            unknown += status == "unknown"
            if status == "error":
                failed.add(system)
            elif ref_status == "unknown" and status != "unknown":
                improved += 1  # still replayed below
            elif (status, ell) != (ref_status, ref_ell):
                failed.add(system)
    elif workload == "hard_cases":
        for system, status, ell, expected in outcomes:
            unknown += status == "unknown"
            if status != expected:
                failed.add(system)
    else:
        failed.update(system for system, passed, _, _ in outcomes if not passed)
    if replayed is not None:
        failed.update(system for system, _ in replayed["rejected"])
    return {"attempted": len(outcomes), "failed": len(failed), "unknown": unknown,
            "improved": improved, "failures": sorted(failed)[:20]}


def end_to_end(passes: list[tuple[dict, dict]], setups: list[float]) -> tuple[dict, str]:
    samples = [ms for solved, _ in passes for ms in solved["samples_ms"]]
    tail_p = tail_percentile(len(passes[0][0]["samples_ms"]))
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(s["solve_s"] for s, _ in passes),
        "replay_s": statistics.median(r["replay_s"] for _, r in passes),
        "system_ms_p50": percentile(samples, 50),
        "system_ms_tail": percentile(samples, tail_p),
        "peak_rss_mb": statistics.median(
            max(s["peak_rss_kb"], r["peak_rss_kb"]) / 1024 for s, r in passes),
    }
    note = (f"system_ms_tail is p{tail_p:g} over {len(samples)} samples "
            f"({len(passes)} passes, {passes[0][1]['replayed']} replays each); "
            f"setup_s is the median of {len(setups)} set-ups")
    return metrics, note


def per_layer(base: dict, solved: dict, replayed: dict) -> dict:
    S, R = solved["trace"]["stats"], replayed["trace"]["stats"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "childless": 0}

    def s(name):
        return S.get(name, zero)

    def r(name):
        return R.get(name, zero)

    ranks = solved["trace"]["ranks"]
    builds = solved["trace"]["builds"]
    queries = s("oracle.dimension_char_p")["calls"]
    attempts = s("degeneration.degenerate")["calls"]
    oracle_solve_s = s("oracle.rank_ff")["total_s"] + s("oracle.build_matrix")["total_s"]

    def rank_s(lo, hi):
        return sum(sec for _, cols, _, sec in ranks if lo <= cols <= hi)

    m = {
        "oracle.rank_ff.calls": (len(ranks), "count"),
        "oracle.rank_ff.s": (s("oracle.rank_ff")["total_s"], "s"),
        "oracle.rank_ff.s_cols_le300": (rank_s(0, 300), "s"),
        "oracle.rank_ff.s_cols_301_600": (rank_s(301, 600), "s"),
        "oracle.rank_ff.s_cols_gt600": (rank_s(601, float("inf")), "s"),
        "oracle.build_matrix.calls": (len(builds), "count"),
        "oracle.build_matrix.s": (s("oracle.build_matrix")["total_s"], "s"),
        "oracle.dimension_char_p.calls": (queries, "count"),
        "oracle.dimension_char_p.self_s": (s("oracle.dimension_char_p")["self_s"], "s"),
        "oracle.rank_calls_per_query": (len(ranks) / queries if queries else 0.0, "ratio"),
        "oracle.cache_hit_frac": (
            s("oracle.dimension_char_p")["childless"] / queries if queries else 0.0, "ratio"),
        "oracle.matrix_entries": (sum(a * b for a, b in builds), "count"),
        "oracle.bytes_built": (sum(8 * a * b for a, b in builds), "bytes_computed"),
        # row operations of rank_ff: each pivot updates every row below it
        "oracle.elim_ops": (sum(cols * (rk * (rows - 1) - rk * (rk - 1) // 2)
                                for rows, cols, rk, _ in ranks), "ops_computed"),
        "oracle.max_cols": (max((c for _, c in builds), default=0), "count"),
        "oracle.solve_share": (100 * oracle_solve_s / solved["solve_s"], "%"),
        "oracle.replay_s": (r("oracle.rank_ff")["total_s"]
                            + r("oracle.build_matrix")["total_s"], "s"),
        "cremona.standard_reduce.calls": (s("cremona.standard_reduce")["calls"], "count"),
        "cremona.standard_reduce.s": (s("cremona.standard_reduce")["total_s"], "s"),
        "neg_curves.hh_dimension.calls": (s("neg_curves.hh_dimension")["calls"], "count"),
        "neg_curves.hh_dimension.s": (s("neg_curves.hh_dimension")["total_s"], "s"),
        "neg_curves.is_minus_one_special.calls": (
            s("neg_curves.is_minus_one_special")["calls"], "count"),
        "neg_curves.is_minus_one_special.s": (
            s("neg_curves.is_minus_one_special")["total_s"], "s"),
        "degeneration.degenerate.calls": (attempts, "count"),
        "degeneration.recursive_dim.calls": (s("degeneration.recursive_dim")["calls"], "count"),
        "degeneration.recursive_dim.self_s": (s("degeneration.recursive_dim")["self_s"], "s"),
        "degeneration.attempt_yield": (
            solved["cert_nodes"].get("degeneration", 0) / attempts
            if attempts else 0.0, "ratio"),
        "degeneration.check_certificate.calls": (
            r("degeneration.check_certificate")["calls"], "count"),
        "degeneration.check_certificate.self_s": (
            r("degeneration.check_certificate")["self_s"], "s"),
        "cremona.replay_transcript.calls": (r("cremona.replay_transcript")["calls"], "count"),
        "cremona.replay_transcript.s": (r("cremona.replay_transcript")["total_s"], "s"),
        "core.parse_system.calls": (r("core.parse_system")["calls"], "count"),
        "core.parse_system.s": (r("core.parse_system")["total_s"], "s"),
        "cli.main.calls": (r("cli.main")["calls"], "count"),
        "cli.main.s": (r("cli.main")["total_s"], "s"),
        "neg_curves.generate_classification.s": (solved["generate_classification_s"], "s"),
        "tables.verify_table.self_s": (s("tables.verify_table")["self_s"], "s"),
        "trace.overhead_s": (solved["solve_s"] - base["solve_s"], "s"),
    }
    for status in VERDICTS:
        m[f"degeneration.verdicts.{status}"] = (solved["verdicts"].get(status, 0), "count")
    for kind in NODE_KINDS:
        m[f"degeneration.cert_nodes.{kind}"] = (solved["cert_nodes"].get(kind, 0), "count")
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, slice_: str = "full"
        ) -> tuple[dict, list[str], dict]:
    """One benchmark run: (result object, report lines, details for the self-test)."""
    if not (ROOT / "src" / "fatpoints" / "__init__.py").is_file():
        raise BenchError(f"no fatpoints sources under {ROOT / 'src'}")
    reference = load_reference()
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = worker_env()
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        def phase(name, traced=False):
            return run_worker({"phase": name, "workload": workload, "seed": seed,
                               "trace": traced, "slice": SLICES[slice_],
                               "workdir": str(workdir)}, env, deadline)

        checked = []
        if trace:
            base = phase("solve")
            checked.append(check_pass(workload, base, None, slice_, reference))
            passes = [(phase("solve", True), phase("replay", True))]
        else:
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < seconds:
                passes.append((phase("solve"), phase("replay")))
        checked += [check_pass(workload, s, r, slice_, reference) for s, r in passes]
        setups = [s["setup_s"] for s, _ in passes]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(phase("setup")["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c["attempted"] for c in checked)
    failed = sum(c["failed"] for c in checked)
    unknown = sum(c["unknown"] for c in checked)
    fractions = {"failed_frac": failed / attempted, "unknown_frac": unknown / attempted}
    info = dict(machine(), numpy=passes[0][0]["numpy"])
    lines = [f"workload {workload}, seed {seed}, trace {int(trace)}, slice {slice_}",
             f"machine {json.dumps(info)}"]
    if trace:
        layer = per_layer(base, *passes[0])
        layer.update({k: (fractions[k], u) for k, u in OUTCOME_FRACTIONS.items()})
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        values, note = end_to_end(passes, setups)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        lines.append(note)
        lines += [f"{k} = {v:.6g} {u}" for k, u in OUTCOME_FRACTIONS.items()
                  for v in [fractions[k]]]
    lines += [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    improved = sum(c["improved"] for c in checked)
    if improved:
        lines.append(f"{improved} reference 'unknown' verdicts are now conclusive "
                     "(replayed; refresh sweep_reference.csv)")
    for c in checked:
        if c["failed"]:
            lines.append(f"FAILED: {c['failures']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {"shapes": sorted(map(tuple, passes[0][0].get("trace", {}).get("builds", [])))}
    return result, lines, details


def self_test() -> int:
    """Smoke slice: every metric emitted with a unit; counts repeat across runs and seeds."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        plain, _, _ = run(workload, 1, 0, False, "smoke")
        traced = [run(workload, seed, 0, True, "smoke") for seed in (1, 1, 2)]
        got_e2e = {k: m["unit"] for k, m in plain["metrics"].items()}
        if got_e2e != want_e2e:
            problems.append(f"{workload}: end-to-end metrics {got_e2e} != {want_e2e}")
        for result, _, _ in [(plain, None, None)] + traced:
            if not result["correct"]:
                problems.append(f"{workload}: outputs wrong")
        first = traced[0][0]["metrics"]
        if {k: m["unit"] for k, m in first.items()} != want_layer:
            problems.append(f"{workload}: per-layer metrics differ from BENCHMARK.json")
        exact = {k for k, m in first.items() if m["unit"] in EXACT_UNITS}
        for result, _, details in traced[1:]:
            for k in exact:
                if result["metrics"][k]["value"] != first[k]["value"]:
                    problems.append(f"{workload}: {k} differs between runs or seeds")
            if details["shapes"] != traced[0][2]["shapes"]:
                problems.append(f"{workload}: matrix shapes differ between runs or seeds")
        print(f"self-test {workload}: {len(exact)} exact counts compared over 3 runs",
              flush=True)
    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test ok" if not problems else "self-test FAILED")
    return 0 if not problems else 1


def write_reference() -> None:
    """Regenerate sweep_reference.csv from the prover at the checked-out commit."""
    workdir = HERE / ".work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        solved = run_worker({"phase": "solve", "workload": "sweep", "seed": 0,
                             "trace": False, "slice": SLICES["full"],
                             "workdir": str(workdir)},
                            worker_env(), time.monotonic() + RUN_DEADLINE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "sweep_reference.csv", "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["system", "status", "ell"])
        out.writerows(sorted(([s, st, "" if ell is None else ell]
                              for s, st, ell in solved["outcomes"]),
                             key=lambda row: [int(x) for x in re.findall(r"\d+", row[0])]))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all three in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the smoke slice and check metrics and counts")
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate sweep_reference.csv")
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.write_reference:
            write_reference()
            return 0
        results = {}
        for workload in [args.workload] if args.workload else WORKLOADS:
            results[workload], lines, _ = run(workload, args.seed, args.seconds,
                                              bool(args.trace))
            print("\n".join(lines), flush=True)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.workload:
        result = results[args.workload]
    else:  # all workloads: metric names carry the workload as a prefix
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": m for w, r in results.items()
                              for k, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
