"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite is exact (zero tolerance) and self-contained.
"""

import hashlib
import json
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DELETE, catalog_pieces, json_values, limit_value, mutant, packaged_csv,
                      positions, trace_nodes, with_transcripts)
from fatpoints.core import LinearSystem, expected_dim, parse_system, virtual_dim
from fatpoints.cremona import NegativeEntryError, cremona_vector, split_line_vector
from fatpoints.degeneration import (Budget, CertificateError, check_certificate, degenerate,
                                    recursive_dim)
from fatpoints.neg_curves import (generate_classification, hh_dimension, hh_prediction,
                                  is_minus_one_class, is_minus_one_special)
from fatpoints.oracle import dimension_char_p
from fatpoints.tables import classification_to_csv, known_hard_cases, verify_table
from fatpoints.verdict import EMPTY, REGULAR, UNKNOWN


def L(text):
    return parse_system(text)


def report(num, ok, detail):
    print(f"\nacceptance {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def rows():
    return generate_classification(4)


@pytest.fixture(scope="module")
def sweep_verdicts():
    """Prover verdicts over the exact sweep box d <= 20, m0 <= d, n <= 6."""
    budget = Budget()
    out = {}
    for d in range(0, 21):
        for n in range(0, 7):
            for m0 in range(0, d + 1):
                sys = LinearSystem(d, (m0,) + (6,) * n)
                out[sys] = recursive_dim(sys, budget)
    return out


def test_criterion_1_virtual_dimension_suite(rows):
    t0 = time.time()
    checked = 0
    for row in rows:
        for sys, v, _ell, _b in row.instances(e_limit=4):
            assert virtual_dim(sys) == v, f"{sys} from {row.system}"
            checked += 1
    elapsed = time.time() - t0
    report(1, elapsed < 1.0,
           f"v formula exact on {checked} instances of every row ({elapsed:.2f}s)")


def test_criterion_2_classification_reproduction(rows):
    t0 = time.time()
    golden_ok = classification_to_csv(rows) == packaged_csv("classification_table.csv")

    covered = {}
    for row in rows:
        if row.shape == "family":
            it = row.instances(e_limit=13, d_cap=26)
        elif row.shape == "general":
            it = row.instances(e_limit=26, d_cap=26, n_limit=9)
        else:
            it = row.instances(d_cap=26)
        for sys, _v, _ell, _b in it:
            if len(sys.tail) <= 9:
                covered[sys.normalize()] = True

    extra, not_special = [], []
    for d in range(0, 27):
        for n in range(0, 10):
            for m0 in range(0, d + 1):
                sys = LinearSystem(d, (m0,) + (6,) * n)
                if is_minus_one_special(sys)[0] and sys.normalize() not in covered:
                    extra.append(str(sys))
    for key in covered:
        if not is_minus_one_special(key)[0]:
            not_special.append(str(key))
    elapsed = time.time() - t0
    report(2, golden_ok and not extra and not not_special and elapsed < 60,
           f"byte-exact table, completeness sweep clean over d<=26, n<=9 "
           f"({len(covered)} instantiations, {elapsed:.1f}s)")


def test_criterion_3_oracle_agreement_on_table(rows):
    t0 = time.time()
    rep = verify_table(rows, "oracle", e_limit=4, d_cap=26)
    elapsed = time.time() - t0
    bad = [(c.system, c.expected, c.got)
           for r in rep.results for c in r.checks if not c.passed]
    count = sum(len(r.checks) for r in rep.results)
    report(3, rep.ok and elapsed < 300,
           f"rank oracle equals the ell column on {count} instances with d<=26 "
           f"({elapsed:.1f}s){'; first failures ' + str(bad[:3]) if bad else ''}")


# sha256 over the hard-case certificates: each verdict's dumps() in the order of
# data/hard_cases.csv, one per line, hashed like the criterion-7 box below, and
# the same with each reduction move's systems restored (``with_transcripts``).
HARD_CASE_CERTIFICATES_SHA256 = "aa78cb8b738239894d96effaf3132963cd8d81773db1d992dcc9d4fd3f84c8a2"
HARD_CASE_TRANSCRIPTS_SHA256 = "d966e5da36911a46ab0696560726e7513a138a5dd3841fc5b67d5c641be4d4d0"


def _hashed_with_transcripts(verdicts) -> tuple[str, str]:
    """sha256 of each verdict's dumps(), one per line, and of the same lines with
    each reduction move's systems restored by ``with_transcripts``."""
    raw, restored = hashlib.sha256(), hashlib.sha256()
    for verdict in verdicts:
        raw.update(verdict.dumps().encode() + b"\n")
        restored.update(json.dumps(with_transcripts(verdict.to_json())).encode() + b"\n")
    return raw.hexdigest(), restored.hexdigest()


def test_criterion_4_hard_case_regression():
    t0 = time.time()
    budget = Budget()
    bad = []
    verdicts = []
    for case in known_hard_cases():
        sys = case.parsed()
        verdict = recursive_dim(sys, budget)
        want = case.status
        if verdict.status != want:
            bad.append((case.system, case.status, verdict.status))
        check_certificate(json.loads(verdict.dumps()))
        verdicts.append(verdict)
    certs = len(verdicts)
    digests = _hashed_with_transcripts(verdicts)
    if digests != (HARD_CASE_CERTIFICATES_SHA256, HARD_CASE_TRANSCRIPTS_SHA256):
        bad.append(("certificates", "sha256", digests))
    for case in known_hard_cases():
        if case.method != "direct rank computation":
            continue
        sys = case.parsed()
        got = dimension_char_p(sys)
        want = -1 if case.status == EMPTY else expected_dim(sys)
        if got != want:
            bad.append((case.system, "oracle", got))
    elapsed = time.time() - t0
    report(4, not bad and elapsed < 900,
           f"{len(known_hard_cases())} hard cases get their recorded verdicts, "
           f"10 settled by rank alone, {certs} certificates replayed "
           f"({elapsed:.0f}s){'; ' + str(bad[:3]) if bad else ''}")


def test_criterion_5_cremona_invariance():
    rng = random.Random(101)
    # 1000 random legal transformations: v preserved, involution exact
    done = 0
    while done < 1000:
        d = rng.randint(3, 30)
        mults = tuple(rng.randint(0, d) for _ in range(rng.randint(3, 8)))
        slots = tuple(rng.sample(range(len(mults)), 3))
        sys = LinearSystem(d, mults)
        try:
            d2, m2 = cremona_vector(d, mults, *slots)
        except NegativeEntryError:
            continue
        assert virtual_dim(LinearSystem(d2, m2)) == virtual_dim(sys)
        assert cremona_vector(d2, m2, *slots) == (d, mults)
        done += 1

    # 100 random systems with d <= 15: the oracle dimension is unchanged by a
    # legal transformation and by a fixed-line split
    moved = 0
    split = 0
    while moved < 60:
        d = rng.randint(5, 15)
        mults = tuple(rng.randint(0, d - 1) for _ in range(rng.randint(3, 6)))
        sys = LinearSystem(d, mults)
        try:
            d2, m2 = cremona_vector(d, mults, *rng.sample(range(len(mults)), 3))
        except NegativeEntryError:
            continue
        if (d2, m2) == (d, mults):
            continue
        assert dimension_char_p(LinearSystem(d2, m2)) == dimension_char_p(sys)
        moved += 1
    while split < 40:
        d = rng.randint(5, 15)
        hi = rng.randint((d + 2) // 2, d)
        mults = (hi, d + 1 - hi) + tuple(rng.randint(0, 3)
                                         for _ in range(rng.randint(1, 4)))
        sys = LinearSystem(d, mults)
        out = LinearSystem(*split_line_vector(d, mults, 0, 1))
        assert dimension_char_p(out) == dimension_char_p(sys)
        split += 1
    report(5, True, f"1000 transformations v-exact and involutive; oracle dimension "
                    f"invariant under {moved} moves and {split} line splits")


def test_criterion_6_catalog_soundness():
    from itertools import combinations
    from fatpoints.core import intersect

    checked = 0
    for n in (1, 2, 3, 5, 7, 9, 12, 20):
        # the simple classes the split chain tries and the lines it writes for
        # each compound
        for total, parts in catalog_pieces(n):
            if parts == [total] and max(total.tail) == 1 and total.degree > 10:
                continue  # the L(e, e-1, 1^2e) family beyond e = 10
            assert all(is_minus_one_class(p) for p in parts)
            for a, b in combinations(parts, 2):
                assert intersect(a, b) == 0
            assert intersect(total, total) == -len(parts)
            checked += 1
    report(6, True, f"catalog sound on {checked} instantiations "
                    f"(self-intersection -1, genus 0, disjoint constituents)")


def test_criterion_7_degeneration_consistency(sweep_verdicts):
    rng = random.Random(202)
    # branch agreement of the limit formula at the overlap
    for _ in range(10_000):
        dk = rng.randint(1, 60)
        lkp, lkf = rng.randint(-1, 30), rng.randint(-1, 30)
        rp = rng.randint(-1, dk)
        rf = dk - 1 - rp
        lp, lf = rp + lkp + 1, rf + lkf + 1
        assert limit_value(dk, lp, lf, lkp, lkf) == lkp + lkf + 1 == lp + lf - dk

    # v identity over all (k, b) on 1000 random systems
    for _ in range(1000):
        d = rng.randint(2, 26)
        n = rng.randint(0, 9)
        m = rng.randint(1, 6)
        sys = LinearSystem(d, (rng.randint(0, d),) + (m,) * n)
        for k in range(1, d):
            for b in range(0, n + 1):
                s = degenerate(sys, k, b)
                assert virtual_dim(s["plane"]) + virtual_dim(s["ruled_kernel"]) == virtual_dim(sys) - 1

    # prover vs oracle over the sweep box
    unknowns, mismatches = [], []
    for sys, verdict in sweep_verdicts.items():
        if verdict.status == UNKNOWN:
            unknowns.append(str(sys))
        elif verdict.status in (EMPTY, REGULAR):
            if dimension_char_p(sys) != verdict.ell:
                mismatches.append(str(sys))
    report(7, not unknowns and not mismatches,
           f"limit formula and v identity exact; {len(sweep_verdicts)} sweep "
           f"verdicts, every regular/empty one matching the oracle "
           f"({len(unknowns)} unknown, {len(mismatches)} mismatched)")


def _frontier(d_max):
    """Each L(d,m0,6^n) with 1 <= d <= d_max and m0 <= d, n running upward from 0
    until two consecutive values of n are empty by the classifier."""
    out = []
    for d in range(1, d_max + 1):
        for m0 in range(d + 1):
            n, empties = 0, 0
            while empties < 2:
                sys = LinearSystem(d, (m0,) + (6,) * n)
                empties = empties + 1 if hh_prediction(sys)[0] == EMPTY else 0
                out.append(sys)
                n += 1
    return out


# sha256 over the frontier systems with n > 6, one str() per line, and over
# "system status ell" of the prover's verdict on each, without the oracle
FRONTIER_SYSTEMS_SHA256 = "ea04e6b5697f4ba2e38d6db35e7a78972c5cdc00ffc245bd1a28d214477399da"
FRONTIER_VERDICTS_SHA256 = "b40b5a2a0065952814ab1ffc24b5ce80c805bdd3b10c2870ec8b1ee3cdf80227"


def test_frontier_beyond_the_box_matches_the_oracle():
    # past the criterion-7 box (n <= 6): proofs there use degenerations
    frontier = _frontier(20)
    systems = [sys for sys in frontier if len(sys.tail) > 6]
    assert (len(frontier), len(systems)) == (1585, 240)
    lean = Budget(use_oracle=False)
    verdicts = [recursive_dim(sys, lean) for sys in systems]
    mismatches, unknowns, kinds = [], 0, Counter()
    for sys, verdict in zip(systems, verdicts):
        if verdict.status == UNKNOWN:
            unknowns += 1
            expected = hh_dimension(sys).ell
        else:
            expected = verdict.ell
            check_certificate(verdict.to_json())
            kinds.update(node["kind"] for node in trace_nodes(verdict.trace))
        if dimension_char_p(sys) != expected:
            mismatches.append(str(sys))
    report("7+", not mismatches and kinds["degeneration"] > 0,
           f"{len(systems)} frontier systems with n > 6: {unknowns} unknown, "
           f"{len(mismatches)} disagreeing with the oracle; nodes replayed {dict(kinds)}")
    digest = hashlib.sha256("\n".join(map(str, systems)).encode()).hexdigest()
    lines = (f"{sys} {verdict.status} {verdict.ell}" for sys, verdict in zip(systems, verdicts))
    assert (digest, hashlib.sha256("\n".join(lines).encode()).hexdigest()) == \
        (FRONTIER_SYSTEMS_SHA256, FRONTIER_VERDICTS_SHA256)


def test_criterion_8_certificate_replay(sweep_verdicts):
    t0 = time.time()
    replayed = 0
    for verdict in sweep_verdicts.values():
        if verdict.status == UNKNOWN:
            continue
        check_certificate(json.loads(verdict.dumps()))
        replayed += 1
    elapsed = time.time() - t0
    report(8, replayed == len(sweep_verdicts),
           f"all {replayed} emitted traces re-verified with search disabled "
           f"({elapsed:.0f}s); the unbounded-degree statement itself is out of "
           f"desk-scale reach and is covered by criteria 1-7")


# sha256 over the criterion-7 box: each verdict's dumps() in fixture order, one
# per line.  A change that alters a certificate on purpose records the new
# digest here and says why.  Last change: a reduction move records its kind and
# slots, no longer the systems before and after it; no verdict changed.  With
# those systems restored the certificates hash to the digest before,
# c5115934e8b7e84b…, pinned as SWEEP_TRANSCRIPTS_SHA256.
SWEEP_CERTIFICATES_SHA256 = "ed5ce9d36a90f00c3b3f7569b593be3c47c4e4fb85325ea1d24834f385626a9a"
SWEEP_TRANSCRIPTS_SHA256 = "c5115934e8b7e84bd38f48371db9a867e64bfeef8a9c468830e760a4f452df3d"


def test_sweep_certificates_byte_identical(sweep_verdicts):
    assert len(sweep_verdicts) == 1617
    assert _hashed_with_transcripts(sweep_verdicts.values()) == \
        (SWEEP_CERTIFICATES_SHA256, SWEEP_TRANSCRIPTS_SHA256)


# sha256 over the benchmark sweep (perfbench's `sweep` workload): every
# L(d,m0,6^n) with d <= 32, m0 <= d and n <= 12 under Budget(use_oracle=False),
# each verdict's dumps() in (d, m0, n) order, one per line.  Last change: a
# reduction move records its kind and slots only; no verdict changed, and with
# each move's systems restored the digest is the one before, 02b90ce1be7250ea….
BENCHMARK_SWEEP_CERTIFICATES_SHA256 = (
    "6ceea7ea2fe4f747d3e9d1211dc98c2067f28dcde54d6ab71072e1b1da8afa81")
BENCHMARK_SWEEP_TRANSCRIPTS_SHA256 = (
    "02b90ce1be7250ea6aa0e19bbc0fa3cefdecc6474cda31d6474c5bb55e3368bb")


@pytest.fixture(scope="module")
def benchmark_sweep_verdicts():
    """Prover verdicts over the benchmark sweep, in (d, m0, n) order."""
    lean = Budget(use_oracle=False)
    return [recursive_dim(LinearSystem(d, (m0,) + (6,) * n), lean)
            for d in range(33) for m0 in range(d + 1) for n in range(13)]


def test_benchmark_sweep_certificates_byte_identical(benchmark_sweep_verdicts):
    assert len(benchmark_sweep_verdicts) == 7293
    assert _hashed_with_transcripts(benchmark_sweep_verdicts) == \
        (BENCHMARK_SWEEP_CERTIFICATES_SHA256, BENCHMARK_SWEEP_TRANSCRIPTS_SHA256)


def test_accepted_degenerations_prove_the_limit_dimension(benchmark_sweep_verdicts):
    # the criterion's ell is the dimension of the limit system on the children's ells
    rules = Counter()
    for verdict in benchmark_sweep_verdicts:
        nodes = [node for node in trace_nodes(verdict.trace) if node["kind"] == "degeneration"]
        if not nodes:
            continue
        check_certificate(verdict.to_json())
        for node in nodes:
            d_minus_k = parse_system(node["system"]).degree - node["k"]
            ells = [node["children"][name]["ell"]
                    for name in ("plane", "ruled", "plane_kernel", "ruled_kernel")]
            assert limit_value(d_minus_k, *ells) == node["ell"], node["system"]
            rules[node["rule"]] += 1
    assert rules == {"nonspecial": 823, "empty": 112}


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_sampled_box_certificate_mutants(sweep_verdicts, data):
    # one field anywhere in one criterion-7 certificate, replaced or deleted
    verdict = data.draw(st.sampled_from(list(sweep_verdicts.values())), label="verdict")
    original = json.loads(verdict.dumps())
    fields = list(positions(original))
    path = data.draw(st.sampled_from([path for path, _ in fields]), label="path")
    texts = sorted({value for _, value in fields if isinstance(value, str)})
    value = DELETE if data.draw(st.booleans(), label="delete") else \
        data.draw(json_values(texts), label="value")
    cert = mutant(original, path, value)
    try:
        check_certificate(cert)
    except CertificateError:
        return
    claim = ("system", "status", "ell")
    assert [cert[key] for key in claim] == [original[key] for key in claim], (path, value)
