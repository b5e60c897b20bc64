"""One phase of one benchmark pass, in a fresh interpreter.

    python3 perfbench/worker.py '<spec json>'

The spec names the phase (``setup``, ``solve`` or ``replay``), the workload,
the seed, whether to trace, the slice of the inputs to run and the work
directory through which the solve phase hands certificates to the replay
phase.  The worker prints one JSON object as its last line.  A fresh
interpreter per phase keeps the process-global oracle cache of one phase
from turning the next phase (or the next pass) into cache lookups.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import sys  # noqa: E402

import fatpoints  # noqa: E402  (import cost belongs to set-up)
import numpy  # noqa: E402
from fatpoints import cli, degeneration, tables  # noqa: E402
from fatpoints.core import LinearSystem  # noqa: E402

from spans import Tracer  # noqa: E402

SWEEP_MAX_POINTS = 12
TABLE_E_MAX = 4
TABLE_D_CAP = 22
TABLE_REPLAY_STRIDE = 4


def make_inputs(workload: str, seed: int, slice_: dict) -> list:
    """The workload's inputs, submitted in an order drawn from ``seed``.

    ``slice_`` bounds the sweep's degree and, when not None, names the only
    table rows and hard cases to keep.
    """
    if workload == "sweep":
        top = slice_["sweep_max_degree"]
        items = [LinearSystem(d, (m0,) + (6,) * n) for d in range(top + 1)
                 for m0 in range(d + 1) for n in range(SWEEP_MAX_POINTS + 1)]
    elif workload == "table_oracle":
        keep = slice_["table_rows"]
        items = [r for r in tables.classification_table(TABLE_E_MAX)
                 if keep is None or r.system in keep]
    elif workload == "hard_cases":
        keep = slice_["hard_cases"]
        items = [(c, c.parsed()) for c in tables.known_hard_cases()
                 if keep is None or c.system in keep]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(items)
    return items


def node_kinds(trace: dict, counts: dict) -> None:
    counts[trace["kind"]] = counts.get(trace["kind"], 0) + 1
    for key in ("leaf", "removal"):
        if isinstance(trace.get(key), dict):
            node_kinds(trace[key], counts)
    for child in (trace.get("children") or {}).values():
        node_kinds(child["trace"], counts)


def solve(workload: str, items: list, seed: int, workdir: str) -> dict:
    """Settle every input; per-system milliseconds, verdicts, certificate files."""
    clock = time.perf_counter
    samples, outcomes, certs = [], [], []
    if workload == "table_oracle":
        inner = tables.dimension_char_p

        def timed(*args, **kwargs):
            t = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                samples.append((clock() - t) * 1e3)

        tables.dimension_char_p = timed
        t0 = clock()
        try:
            report = tables.verify_table(tuple(items), "oracle", e_limit=TABLE_E_MAX,
                                         d_cap=TABLE_D_CAP, seed=seed)
            outcomes = [[c.system, c.passed, c.got, c.command]
                        for row in report.results for c in row.checks]
        except Exception as err:  # reported as one failed check
            outcomes = [["verify_table", False, repr(err), ""]]
        solve_s = clock() - t0
        tables.dimension_char_p = inner
        with open(os.path.join(workdir, "table_checks.json"), "w") as fh:
            json.dump(outcomes, fh)
        return {"solve_s": solve_s, "samples_ms": samples, "outcomes": outcomes,
                "verdicts": {}, "cert_nodes": {}}

    use_oracle = workload == "hard_cases"
    t0 = clock()
    for item in items:
        system, expected = (item[1], [item[0].status]) if use_oracle else (item, [])
        t = clock()
        try:
            v = degeneration.recursive_dim(
                system, degeneration.Budget(use_oracle=use_oracle, seed=seed))
            outcome = [v.status, v.ell]
        except Exception as err:  # reported as a failed system, the pass goes on
            v, outcome = None, ["error", repr(err)]
        samples.append((clock() - t) * 1e3)
        outcomes.append([str(system)] + outcome + expected)
        if v is not None and v.conclusive:
            certs.append(v)
    solve_s = clock() - t0

    kinds: dict = {}
    for v in certs:
        node_kinds(v.trace, kinds)
    verdicts: dict = {}
    for o in outcomes:
        verdicts[o[1]] = verdicts.get(o[1], 0) + 1
    if use_oracle:
        certdir = os.path.join(workdir, "certs")
        os.makedirs(certdir, exist_ok=True)
        for i, v in enumerate(certs):
            with open(os.path.join(certdir, f"{i}.json"), "w") as fh:
                fh.write(v.dumps(indent=2))
    else:
        with open(os.path.join(workdir, "certs.jsonl"), "w") as fh:
            for v in certs:
                fh.write(v.dumps() + "\n")
    return {"solve_s": solve_s, "samples_ms": samples, "outcomes": outcomes,
            "verdicts": verdicts, "cert_nodes": kinds}


def run_cli(argv: list[str], out: io.StringIO) -> int:
    """``fatpoints ARGV`` in this interpreter; an exception is exit code 1."""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception as err:
            print(repr(err))
            return 1


def replay(workload: str, workdir: str) -> dict:
    """Replay the solve phase's evidence; returns the systems that did not replay."""
    clock = time.perf_counter
    rejected = []
    sink = io.StringIO()  # `certificate OK` lines
    if workload == "sweep":
        # check_certificate directly: 7234 trips through the argument parser
        # of `fatpoints check-certificate` would cost ten times the replay.
        t0 = clock()
        replayed = 0
        with open(os.path.join(workdir, "certs.jsonl")) as fh:
            for line in fh:
                cert = json.loads(line)
                replayed += 1
                try:
                    degeneration.check_certificate(cert)
                except Exception as err:  # a rejected certificate fails its system
                    rejected.append([cert.get("system"), repr(err)])
    elif workload == "hard_cases":
        certdir = os.path.join(workdir, "certs")
        paths = sorted(os.path.join(certdir, f) for f in os.listdir(certdir))
        replayed = len(paths)
        t0 = clock()
        for path in paths:
            code = run_cli(["check-certificate", path], sink)
            if code != 0:
                with open(path) as fh:
                    rejected.append([json.load(fh)["system"], f"exit {code}"])
    else:
        # The reproduce command of every fourth instance in system order,
        # `fatpoints oracle ...`, must give the value the report recorded.
        # A fixed quarter keeps the run within its time budget and the same
        # instances are replayed whatever the seed.
        with open(os.path.join(workdir, "table_checks.json")) as fh:
            checks = sorted(c for c in json.load(fh) if c[1])[::TABLE_REPLAY_STRIDE]
        replayed = len(checks)
        t0 = clock()
        for system, _, got, command in checks:
            out = io.StringIO()
            code = run_cli(shlex.split(command)[1:], out)
            if code != 0 or str(json.loads(out.getvalue())["ell"]) != got:
                rejected.append([system, f"exit {code}: {out.getvalue()!r}"])
    return {"replay_s": clock() - t0, "replayed": replayed, "rejected": rejected}


def main() -> None:
    spec = json.loads(sys.argv[1])
    phase, workload = spec["phase"], spec["workload"]
    tracer = Tracer()
    if spec["trace"]:
        tracer.install()
    items = make_inputs(workload, spec["seed"], spec["slice"]) if phase != "replay" else []
    out = {"setup_s": time.perf_counter() - T0,
           "numpy": numpy.__version__,
           "fatpoints_file": fatpoints.__file__,
           "generate_classification_s":
               tracer.get("neg_curves.generate_classification").total_s}
    tracer.reset()
    if phase == "solve":
        out.update(solve(workload, items, spec["seed"], spec["workdir"]))
    elif phase == "replay":
        out.update(replay(workload, spec["workdir"]))
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec["trace"]:
        out["trace"] = tracer.to_json()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
