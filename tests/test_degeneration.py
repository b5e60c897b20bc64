"""Degeneration splits, the limit combiner, criteria, and the recursive prover."""

import json
import random
from sys import getrecursionlimit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DELETE, NON_SPECIAL_REMOVALS, catalog_pieces, json_values, limit_value,
                      mutant, positions, trace_nodes, with_transcripts)
from fatpoints import degeneration, oracle
from fatpoints.cli import main
from fatpoints.core import LinearSystem, expected_dim, intersect, parse_system, virtual_dim
from fatpoints.cremona import STANDARD_MOVES, Move, cremona_vector, replay_transcript
from fatpoints.degeneration import (Budget, CertificateError, DegenerationSplit, _Ctx,
                                    _is_minus_one_curve, _try, check_certificate,
                                    criterion_failure, degenerate, recursive_dim)
from fatpoints.neg_curves import hh_dimension, is_catalog_curve
from fatpoints.oracle import dimension_char_p
from fatpoints.verdict import EMPTY, REGULAR, SPECIAL, UNKNOWN, DimVerdict


def L(text):
    return parse_system(text)


def _no_sampling(*args):
    raise AssertionError("points were sampled")


# an oracle leaf is checked alike as the whole proof and inside a degeneration:
# L(24,4,6^16) degenerates with one child, L(18,4,6^9), proved by the rank oracle
ORACLE_LEAF_PLACES = ("root", "nested")


def _oracle_leaf_certificate(name, where):
    """A certificate and the rank-oracle leaf in it to tamper with."""
    cert = json.loads(recursive_dim(L(name if where == "root" else "L(24,4,6^16)")).dumps())
    check_certificate(cert)
    if where == "root":
        assert cert["trace"]["kind"] == "rank_oracle"
        return cert, cert["trace"]
    assert cert["trace"]["kind"] == "degeneration"
    [leaf] = [n for n in trace_nodes(cert) if n["kind"] == "rank_oracle"]
    return cert, leaf


class TestDegenerate:
    def test_large_example(self):
        s = degenerate(L("L(141,100,6^50)"), 5, 13)
        assert s["plane"] == L("L(136,100,6^37)")
        assert s["ruled"] == L("L(141,136,6^13)")
        assert s["plane_kernel"] == L("L(135,100,6^37)")
        assert s["ruled_kernel"] == L("L(141,137,6^13)")

    @pytest.mark.parametrize("base", [LinearSystem(14, (0, 0, 6, 6, 6)),  # v was 119, not 56
                                      LinearSystem(14, (0, 6, 6, 6, 0)),
                                      LinearSystem(14, (3, 0, 0)),
                                      LinearSystem(14, (0, 5, 6, 6)),
                                      L("L(14,0,6^2,5)")])
    def test_split_refuses_a_base_not_normalized_or_not_quasi_homogeneous(self, base):
        with pytest.raises(ValueError, match="degeneration needs a quasi-homogeneous system"):
            DegenerationSplit(base, 5, 1)

    @pytest.mark.parametrize("k, b, reason", [
        (0, 3, r"need 1 <= k < d, got k=0, d=14"), (14, 3, r"need 1 <= k < d, got k=14, d=14"),
        (5, -1, r"need 0 <= b <= n, got b=-1, n=6"), (5, 7, r"need 0 <= b <= n, got b=7, n=6"),
    ])
    def test_split_refuses_a_degeneration_that_does_not_exist(self, k, b, reason):
        # no virtual dimension is read off a degeneration that does not exist
        base = L("L(14,0,6^6)")
        for build in (DegenerationSplit, degenerate):
            with pytest.raises(ValueError, match=f"^{reason}$"):
                build(base, k, b)

    def test_small_example(self):
        s = degenerate(L("L(14,0,6^6)"), 5, 3)
        assert (s["plane"], s["ruled"]) == (L("L(9,0,6^3)"), L("L(14,9,6^3)"))
        assert (s["plane_kernel"], s["ruled_kernel"]) == (L("L(8,0,6^3)"), L("L(14,10,6^3)"))
        v = virtual_dim(L("L(14,0,6^6)"))
        assert virtual_dim(s["plane"]) + virtual_dim(s["ruled_kernel"]) == v - 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            degenerate(L("L(14,0,6^6)"), 14, 3)
        with pytest.raises(ValueError):
            degenerate(L("L(14,0,6^6)"), 5, 7)
        with pytest.raises(ValueError):
            degenerate(L("L(14,0,6,5)"), 5, 1)

    def test_v_identity_on_randoms(self):
        rng = random.Random(31)
        for _ in range(1000):
            d = rng.randint(2, 30)
            n = rng.randint(0, 10)
            m = rng.randint(1, 6)
            m0 = rng.randint(0, d)
            sys = LinearSystem(d, (m0,) + (m,) * n)
            k = rng.randint(1, d - 1)
            b = rng.randint(0, n)
            s = degenerate(sys, k, b)
            assert virtual_dim(s["plane"]) + virtual_dim(s["ruled_kernel"]) == virtual_dim(sys) - 1

    def test_closed_form_dims_match_the_split(self):
        # the numbers the prover judges an attempt on are those of the split it would build
        rng = random.Random(41)
        for _ in range(1000):
            d = rng.randint(2, 40)
            n = rng.randint(0, 12)
            m = rng.randint(1, 6)
            sys = LinearSystem(d, (rng.randint(0, d + 3),) + (m,) * n)
            k, b = rng.randint(1, d - 1), rng.randint(0, n)
            split = DegenerationSplit(sys, k, b)
            parts = degenerate(sys, k, b)
            assert split.v == virtual_dim(sys)
            assert split.dims == {name: virtual_dim(s) for name, s in parts.items()}


class TestLimitValue:
    def test_empty_kernels_transversal(self):
        # r_plane + r_ruled = (3+1) + (2+1) = 7 <= d-k-1
        assert limit_value(10, 3, 2, -1, -1) == -1

    def test_overlap_identity(self):
        rng = random.Random(37)
        for _ in range(2000):
            dk = rng.randint(1, 40)
            lkp, lkf = rng.randint(-1, 20), rng.randint(-1, 20)
            rp = rng.randint(0, dk - 1)
            rf = dk - 1 - rp
            lp, lf = rp + lkp + 1, rf + lkf + 1
            assert limit_value(dk, lp, lf, lkp, lkf) == lkp + lkf + 1 == lp + lf - dk

    def test_combined_with_oracle_values(self):
        # the four restricted dimensions of the (5,3)-degeneration, computed
        # by the rank oracle, give a limit far above the true dimension -1:
        # this split does not settle L(14,0,6^6)
        s = degenerate(L("L(14,0,6^6)"), 5, 3)
        ells = [dimension_char_p(x) for x in s.values()]
        assert ells == [0, 11, -1, 4]
        d_minus_k = 14 - 5
        assert limit_value(d_minus_k, *ells) == 4
        assert limit_value(d_minus_k, *ells) >= dimension_char_p(L("L(14,0,6^6)"))


def _no_child(name):
    raise AssertionError(f"the criterion looked up {name}")


class _ReachedChild(Exception):
    pass


def _passes_numbers(split, rule):
    """Whether the conditions of ``rule`` that need no child hold for ``split``."""
    def child(name):
        raise _ReachedChild
    try:
        criterion_failure(rule, split.dims, split.v, child)
    except _ReachedChild:
        return True
    return False


def _count_splits(monkeypatch):
    """The ``(system, k, b)`` of each later ``degeneration.degenerate`` call."""
    calls = []
    split = degeneration.degenerate

    def counted(system, k, b):
        calls.append((system, k, b))
        return split(system, k, b)
    monkeypatch.setattr(degeneration, "degenerate", counted)
    return calls


def proves(system, k, b, rule):
    """Whether the prover's (k, b)-degeneration attempt at ``rule`` succeeds."""
    return _try(DegenerationSplit(L(system), k, b), rule, _Ctx(Budget())) is not None


class TestCriteria:
    def test_emptiness(self):
        assert proves("L(12,0,6^10)", 5, 3, "empty")

    def test_emptiness_fails_on_all_small_splits(self):
        # every (k, b) fails here: the plane restriction L(9,0,6^3) is special
        # for b = 3, and other choices break a kernel or restriction condition
        for k in (5, 6):
            for b in range(6):
                assert not proves("L(14,0,6^6)", k, b, "empty")

    def test_nonspeciality(self):
        assert proves("L(19,0,6^9)", 5, 5, "nonspecial")
        assert proves("L(18,0,6^8)", 5, 4, "nonspecial")
        assert proves("L(6,0,1^3)", 1, 1, "nonspecial")

    def test_special_system_never_certified(self):
        for k in (2, 5, 6):
            for b in range(2):
                assert not proves("L(10,8,6^2)", k, b, "empty")
                assert not proves("L(10,8,6^2)", k, b, "nonspecial")

    def test_emptiness_needs_a_ruled_kernel_of_negative_v_before_any_child(self):
        # v = -21 and v(plane_kernel) = -36, but the ruled kernel L(18,14,6^4) has v = 0
        split = DegenerationSplit(L("L(18,0,6^10)"), 5, 4)
        assert criterion_failure("empty", split.dims, -21, _no_child) == \
            "emptiness rule needs v(ruled_kernel) <= -1"

    def test_predictions_refute_before_any_child_is_solved(self, monkeypatch):
        # the restrictions L(5,0,6) and L(10,5,6) are non-special, but the ruled
        # kernel L(10,6,6) is predicted special (24 > 23), so the kernels are too large
        solved = []
        solve = degeneration._solve
        monkeypatch.setattr(degeneration, "_solve",
                            lambda system, ctx: solved.append(system) or solve(system, ctx))
        split = DegenerationSplit(L("L(10,0,6^2)"), 5, 1)
        assert _try(split, "nonspecial", _Ctx(Budget())) is None
        assert solved == []

    def test_attempt_refuted_on_numbers_builds_no_split(self, monkeypatch):
        # each attempt builds its split once if the numbers of either rule pass, else never
        box = [LinearSystem(d, (m0,) + (6,) * n)
               for d in range(2, 13) for m0 in range(d + 1) for n in range(1, 7)]
        calls = _count_splits(monkeypatch)
        tried = refuted = 0
        for system in box:
            ctx = _Ctx(Budget())
            for k in (5, 6):
                for b in range(len(system.tail)):
                    if k >= system.degree:
                        continue
                    calls.clear()
                    split = DegenerationSplit(system, k, b)
                    for rule in ("empty", "nonspecial"):
                        _try(split, rule, ctx)
                    viable = any(_passes_numbers(split, rule)
                                 for rule in ("empty", "nonspecial"))
                    assert [c for c in calls if c[0] == system] == \
                        ([(system, k, b)] if viable else []), (str(system), k, b)
                    tried += 1
                    refuted += not viable
        assert 0 < refuted < tried

    def test_never_both(self):
        assert virtual_dim(L("L(12,0,6^10)")) < -1
        assert not proves("L(12,0,6^10)", 5, 3, "nonspecial")
        assert virtual_dim(L("L(19,0,6^9)")) > -1
        assert not proves("L(19,0,6^9)", 5, 5, "empty")


class TestRecursiveDim:
    def test_reductions_share_the_seven_move_dicts(self, capsys):
        # a trace is read-only: every reduction records the table's own JSON forms
        shared = {id(data) for data in STANDARD_MOVES.values()}
        ids = {id(move) for d in range(13) for m0 in range(d + 1) for n in range(13)
               for node in trace_nodes(recursive_dim(LinearSystem(d, (m0,) + (6,) * n),
                                                     Budget(use_oracle=False)).to_json())
               if node["kind"] == "cremona_reduction" for move in node["moves"]}
        assert ids and ids <= shared  # six of the seven occur here
        for argv in (["cremona", "L(14,0,6^6)"], ["--json", "cremona", "L(20,18,6^5)"],
                     ["dim", "--json", "L(14,0,6^6)"], ["dim", "--json", "L(21,0,6^10)"]):
            assert main(argv) == 0
        capsys.readouterr()
        for (kind, slots), data in STANDARD_MOVES.items():
            assert data == {"move": kind, "slots": list(slots)} == Move(kind, slots).to_json()

    def test_recorded_moves_read_back_and_replay(self):
        # a move is the pair (kind, slots): either finds its one JSON form
        assert STANDARD_MOVES[("line", (0, 1))] is STANDARD_MOVES[Move("line", (0, 1))]
        nodes = [node for d in range(13) for m0 in range(d + 1) for n in range(13)
                 for node in trace_nodes(recursive_dim(LinearSystem(d, (m0,) + (6,) * n),
                                                       Budget(use_oracle=False)).to_json())
                 if node["kind"] == "cremona_reduction"]
        assert nodes
        for node in nodes:
            moves = tuple(Move.from_json(data) for data in node["moves"])
            assert replay_transcript(moves, L(node["system"])) == L(node["final"])

    def test_special(self):
        v = recursive_dim(L("L(10,2,6^3)"))
        assert (v.status, v.ell) == (SPECIAL, 2)

    def test_regular_via_oracle(self):
        v = recursive_dim(L("L(19,5,6^9)"))
        assert (v.status, v.ell) == (REGULAR, 5)
        assert v.trace["kind"] == "rank_oracle"

    def test_regular_via_degeneration(self):
        v = recursive_dim(L("L(21,0,6^10)"))
        assert (v.status, v.ell) == (REGULAR, 42)
        assert v.trace["kind"] == "degeneration"

    def test_empty(self):
        assert recursive_dim(L("L(14,0,6^6)")).status == EMPTY

    def test_trivial(self):
        v = recursive_dim(L("L(0)"))
        assert (v.status, v.ell) == (REGULAR, 0)

    def test_one_degeneration_per_k_and_b(self, monkeypatch):
        # v = -1: both rules apply, and each (k, b) split is built once for both;
        # a (k, b) that both rules refute on virtual dimensions builds none
        calls = _count_splits(monkeypatch)
        system = L("L(19,0,6^10)")
        assert virtual_dim(system) == -1
        recursive_dim(system, Budget(use_oracle=False))
        assert len(calls) == len(set(calls))
        viable = [(5, 5), (6, 5)]
        assert sorted((k, b) for s, k, b in calls if s == system) == viable
        refuted = [(k, b) for k in (5, 6) for b in range(10) if (k, b) not in viable]
        for k, b in refuted:
            split = DegenerationSplit(system, k, b)
            assert not any(_passes_numbers(split, rule) for rule in ("empty", "nonspecial"))
            assert (system, k, b) not in calls
        assert all(_passes_numbers(DegenerationSplit(system, k, b), "empty") for k, b in viable)

    def test_classifier_trace_only_for_special_verdicts(self, monkeypatch):
        # over the criterion-7 box, hh_dimension runs only on systems proved special
        traced = []
        real = degeneration.hh_dimension

        def recorded(S):
            traced.append(real(S))
            return traced[-1]
        monkeypatch.setattr(degeneration, "hh_dimension", recorded)
        budget = Budget()
        special = set()
        for d in range(21):
            for n in range(7):
                for m0 in range(d + 1):
                    verdict = recursive_dim(LinearSystem(d, (m0,) + (6,) * n), budget)
                    if verdict.status == SPECIAL:
                        special.add(verdict.system)
        assert traced and all(v.status == SPECIAL for v in traced)
        assert special <= {v.system for v in traced}

    def test_out_of_methods_without_oracle_is_unknown(self):
        v = recursive_dim(L("L(19,5,6^9)"), Budget(use_oracle=False))
        assert v.status == UNKNOWN and v.ell is None
        assert v.trace["reason"] == "out of methods"

    def test_beyond_the_oracle_cap(self):
        # too many columns for the rank oracle: the degeneration induction proves it alone
        system = L("L(150,10,6^120)")
        assert oracle.monomial_count(system) > oracle.ORACLE_COLS_CAP
        v = recursive_dim(system)
        assert (v.status, v.ell) == (REGULAR, 8900)
        check_certificate(json.loads(v.dumps()))

    @pytest.mark.parametrize("cap,status,kind", [(277, UNKNOWN, "unknown"),
                                                 (278, EMPTY, "rank_oracle")])
    def test_oracle_needs_a_matrix_within_the_entry_cap(self, monkeypatch, cap, status, kind):
        # 280 conditions x 276 monomials: within a column cap of 277, over 277^2 entries
        monkeypatch.setattr(oracle, "ORACLE_COLS_CAP", cap)
        if status == UNKNOWN:
            monkeypatch.setattr(oracle, "_sample_points", _no_sampling)
        v = recursive_dim(L("L(22,7,6^12)"))
        assert (v.status, v.trace["kind"]) == (status, kind)

    def test_node_budget_exhaustion_is_unknown(self, monkeypatch):
        # regular with the full budget (test_beyond_the_oracle_cap), too large for the oracle
        solved = []
        fresh = degeneration._solve_fresh

        def counted(system, ctx):
            solved.append(system)
            return fresh(system, ctx)
        monkeypatch.setattr(degeneration, "_solve_fresh", counted)
        monkeypatch.setattr(degeneration, "_MAX_NODES", 3)
        v = recursive_dim(L("L(150,10,6^120)"))
        assert v.status == UNKNOWN and v.ell is None
        assert v.trace["reason"] == "budget exhausted"
        assert len(solved) == 3

    def test_hard_case_solves_six_systems(self, monkeypatch):
        # L(46,36,6^22) reduces to L(24,14,4^22), whose (5, 13)-degeneration
        # proves it empty; the predictions refute every attempt before that one
        solved = []
        fresh = degeneration._solve_fresh
        monkeypatch.setattr(degeneration, "_solve_fresh",
                            lambda system, ctx: solved.append(str(system)) or fresh(system, ctx))
        v = recursive_dim(L("L(46,36,6^22)"))
        assert (v.status, v.trace["kind"]) == (EMPTY, "cremona_reduction")
        assert solved == ["L(46,36,6^22)", "L(24,14,4^22)", "L(19,14,4^9)", "L(24,19,4^13)",
                          "L(18,14,4^9)", "L(24,20,4^13)"]

    def test_verdict_independent_of_context(self):
        # the L(7,3,2^11) subproof of L(31,23,6^12) is the proof of L(7,3,2^11) itself
        lean = Budget(use_oracle=False)
        outer = json.loads(recursive_dim(L("L(31,23,6^12)"), lean).dumps())
        inner = [child for node in trace_nodes(outer) if node["kind"] == "degeneration"
                 for child in node["children"].values() if child["system"] == "L(7,3,2^11)"]
        own = recursive_dim(L("L(7,3,2^11)"), lean).to_json()
        assert inner and all(node == own for node in inner)

    def test_regime_enforced(self):
        with pytest.raises(ValueError):
            recursive_dim(L("L(20,1,7^5)"))

    @pytest.mark.parametrize("setting", [{"trials": True}, {"trials": 2.0}, {"seed": True},
                                         {"seed": 1.5}], ids=str)
    def test_oracle_seed_and_trials_are_plain_integers(self, monkeypatch, setting):
        # the checker refuses an oracle leaf whose seed or trials is no integer
        monkeypatch.setattr(degeneration, "_solve", lambda *_: pytest.fail("a node was solved"))
        name = next(iter(setting))
        with pytest.raises(ValueError, match=f"{name} must be an integer, got "):
            recursive_dim(L("L(40,27,6^23)"), Budget(**setting))

    def test_seed_and_trials_unread_without_the_oracle(self):
        assert recursive_dim(L("L(14,0,6^6)"), Budget(use_oracle=False, seed=1.5)).ell == -1


class TestCertificates:
    @pytest.mark.parametrize("name", [
        "L(10,2,6^3)",    # fixed-part removal
        "L(14,0,6^6)",    # reduction to a small standard system
        "L(21,0,6^10)",   # degeneration rule
        "L(19,5,6^9)",    # rank oracle leaf
        "L(46,36,6^22)",  # reduction concluding from a degeneration of its final system
    ])
    def test_round_trip(self, name):
        verdict = recursive_dim(L(name))
        cert = json.loads(verdict.dumps())
        check_certificate(cert)

    def test_tampered_ell_detected(self):
        cert = json.loads(recursive_dim(L("L(10,2,6^3)")).dumps())
        cert["ell"] += 1
        with pytest.raises(CertificateError):
            check_certificate(cert)

    def test_tampered_trace_detected(self):
        cert = json.loads(recursive_dim(L("L(21,0,6^10)")).dumps())
        cert["trace"]["b"] += 1
        with pytest.raises(CertificateError):
            check_certificate(cert)

    @pytest.mark.parametrize("prime", [32004, 4294967311, "32003"])
    @pytest.mark.parametrize("where", ORACLE_LEAF_PLACES)
    def test_oracle_leaf_with_bad_prime_rejected(self, prime, where):
        cert, leaf = _oracle_leaf_certificate("L(19,5,6^9)", where)
        leaf["prime"] = prime
        with pytest.raises(CertificateError):
            check_certificate(cert)

    @pytest.mark.parametrize("trials", ["x", 0, -1, True, 1.5, None])
    def test_oracle_leaf_with_bad_trials_rejected(self, monkeypatch, trials):
        cert = json.loads(recursive_dim(L("L(19,5,6^9)")).dumps())
        cert["trace"]["trials"] = trials
        monkeypatch.setattr(oracle, "_sample_points", _no_sampling)
        with pytest.raises(CertificateError, match="trials"):
            check_certificate(cert)

    @pytest.mark.parametrize("seed", ["0", True, 0.0])
    @pytest.mark.parametrize("where", ORACLE_LEAF_PLACES)
    def test_oracle_leaf_with_bad_seed_rejected(self, monkeypatch, seed, where):
        cert, leaf = _oracle_leaf_certificate("L(20,8,6^9)", where)
        leaf["seed"] = seed
        monkeypatch.setattr(oracle, "_sample_points", _no_sampling)
        with pytest.raises(CertificateError, match="seed"):
            check_certificate(cert)

    def test_oracle_leaf_with_a_seed_too_long_to_write_rejected(self):
        # only in process: JSON cannot carry an int of more than 4300 digits
        cert = json.loads(recursive_dim(L("L(19,0,6^10)")).dumps())
        assert cert["trace"]["kind"] == "rank_oracle"
        cert["trace"]["seed"] = 10 ** 5000
        with pytest.raises(CertificateError, match="rank oracle leaf"):
            check_certificate(cert)

    @pytest.mark.parametrize("field,value", [("trials", 17), ("prime", 7), ("prime", 701)])
    @pytest.mark.parametrize("where", ORACLE_LEAF_PLACES)
    def test_oracle_leaf_out_of_bounds_rejected(self, monkeypatch, field, value, where):
        # 7 is below the degree, 701 too small for a point of multiplicity 6
        cert, leaf = _oracle_leaf_certificate("L(20,8,6^9)", where)
        leaf[field] = value
        monkeypatch.setattr(oracle, "_sample_points", _no_sampling)
        with pytest.raises(CertificateError, match=field):
            check_certificate(cert)

    @pytest.mark.parametrize("status", ["bogus", None, "Regular", ["empty"]])
    def test_unknown_status_rejected(self, status):
        cert = json.loads(recursive_dim(L("L(10,2,6^3)")).dumps())
        check_certificate(cert)
        cert["status"] = status
        with pytest.raises(CertificateError, match="bad status"):
            check_certificate(cert)

    def test_oracle_leaf_over_the_column_cap_rejected(self, monkeypatch):
        sys = L("L(101,1)")  # 5253 monomials, over the default cap of 5151
        e = expected_dim(sys)
        leaf = {"kind": "rank_oracle", "system": str(sys), "prime": 32003, "seed": 0,
                "trials": 3, "ell": e, "expected": e}
        monkeypatch.setattr(oracle, "_sample_points", _no_sampling)
        with pytest.raises(CertificateError, match="cap"):
            check_certificate({"system": str(sys), "status": REGULAR, "ell": e, "trace": leaf})

    def test_oracle_leaf_over_the_entry_cap_rejected(self, monkeypatch):
        sys = L("L(100,0,6^10000)")  # 210000 x 5151 entries, over 5151^2
        leaf = {"kind": "rank_oracle", "system": str(sys), "prime": 32003, "seed": 0,
                "trials": 3, "ell": -1, "expected": -1}
        monkeypatch.setattr(oracle, "_sample_points", _no_sampling)
        with pytest.raises(CertificateError, match="rank oracle leaf: .* entries"):
            check_certificate({"system": str(sys), "status": EMPTY, "ell": -1, "trace": leaf})

    @pytest.mark.parametrize("cert", [
        [], "L(2,1)", {"system": 5, "status": REGULAR, "ell": 4, "trace": {}},
        {"system": "L(2,1)", "status": REGULAR, "ell": 4, "trace": ["no_conditions"]},
    ])
    def test_badly_shaped_certificate_rejected(self, cert):
        with pytest.raises(CertificateError):
            check_certificate(cert)

    @pytest.mark.parametrize("name,path", [
        ("L(10,2,6^3)", "system"),
        ("L(10,2,6^3)", "trace.system"),
        ("L(14,0,6^6)", "trace.leaf.system"),
        ("L(21,0,6^10)", "trace.children.plane.system"),
        ("L(10,2,6^3)", "trace.steps.0.curve"),
        ("L(10,2,6^3)", "trace.residual"),
    ])
    @pytest.mark.parametrize("value", ["L(1,", 5])
    def test_malformed_system_string_raises_certificate_error(self, name, path, value):
        cert = json.loads(recursive_dim(L(name)).dumps())
        *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        node = cert
        for key in parents:
            node = node[key]
        assert isinstance(node[last], str)
        node[last] = value
        with pytest.raises(CertificateError, match="malformed system"):
            check_certificate(cert)

    @pytest.mark.parametrize("value", ["L(1,", 5])
    def test_malformed_rejected_curve_raises_certificate_error(self, value):
        removal = hh_dimension(L("L(6,6,6^2)"))
        cert = json.loads(removal.dumps())
        check_certificate(cert)
        cert["trace"]["rejected"]["curve"] = value
        with pytest.raises(CertificateError, match="malformed system"):
            check_certificate(cert)

    def test_million_point_curve_refused(self):
        removal = json.loads(hh_dimension(L("L(6,6,6^2)")).dumps())
        removal["trace"]["rejected"]["curve"] = "L(5" + ",1^10000" * 100 + ")"
        with pytest.raises(CertificateError, match="more than 10001 multiplicities"):
            check_certificate(removal)

    @pytest.mark.parametrize("name,k,b,rule,flipped", [
        ("L(12,0,6^10)", 5, 3, "empty", "nonspecial"),
        ("L(21,0,6^10)", 5, 5, "nonspecial", "empty"),
    ])
    def test_flipped_rule_rejected(self, name, k, b, rule, flipped):
        node = _try(DegenerationSplit(L(name), k, b), rule, _Ctx(Budget()))
        status = EMPTY if rule == "empty" else REGULAR
        cert = json.loads(DimVerdict(status, node["ell"], L(name), node).dumps())
        check_certificate(cert)
        cert["trace"]["rule"] = flipped
        with pytest.raises(CertificateError):
            check_certificate(cert)

    @pytest.mark.parametrize("name,path,value", [
        ("L(14,0,6^6)", "moves", 5),
        ("L(14,0,6^6)", "leaf", 5),
        ("L(14,0,6^6)", "moves.0", 5),
        ("L(14,0,6^6)", "moves.0.slots", 5),
        ("L(14,0,6^6)", "moves.0.slots.0", "1"),
        ("L(14,0,6^6)", "moves.0.slots", [1, 2]),
        ("L(46,36,6^22)", "leaf.children", 5),
        ("L(10,2,6^3)", "steps", 5),
        ("L(10,2,6^3)", "steps.0", 5),
        ("L(10,2,6^3)", "steps.0.n", "x"),
        ("L(10,2,6^3)", "rejected", 5),
        ("L(21,0,6^10)", "children", 5),
        ("L(21,0,6^10)", "children.plane", 5),
        ("L(21,0,6^10)", "k", "5"),
        ("L(21,0,6^10)", "b", None),
    ])
    def test_malformed_field_raises_certificate_error(self, name, path, value):
        cert = json.loads(recursive_dim(L(name)).dumps())
        *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        node = cert["trace"]
        for key in parents:
            node = node[key]
        assert node[last] != value  # the field exists and changes
        node[last] = value
        with pytest.raises(CertificateError):
            check_certificate(cert)

    @pytest.mark.parametrize("value", [True, 1.0])
    @pytest.mark.parametrize("path", ["ell", "trace.ell", "trace.leaf.ell", "every"])
    def test_ell_that_is_no_integer_rejected(self, path, value):
        # L(2,1,1^3) reduces to L(1,0,1); the verdict, the reduction and its leaf carry ell 1
        cert = json.loads(recursive_dim(L("L(2,1,1^3)")).dumps())
        check_certificate(cert)
        nodes = [cert, cert["trace"], cert["trace"]["leaf"]]
        assert [node["ell"] for node in nodes] == [1, 1, 1]
        for node, where in zip(nodes, ["ell", "trace.ell", "trace.leaf.ell"]):
            if path in (where, "every"):
                node["ell"] = value
        with pytest.raises(CertificateError, match="ell .* is an integer"):
            check_certificate(cert)

    @pytest.mark.parametrize("name,path,value", [
        ("L(2,1,1^3)", "leaf.points", True),    # standard_small on one point
        ("L(2,1,1^3)", "leaf.points", 1.0),
        # standard_small on one point, inside a degeneration
        ("L(4,0,1^13)", "children.ruled_kernel.trace.leaf.points", True),
        ("L(4,0,1^13)", "children.ruled_kernel.trace.leaf.points", 1.0),
        ("L(19,5,6^9)", "expected", 5.0),       # rank_oracle, expected dimension 5
    ])
    def test_leaf_field_that_is_no_integer_rejected(self, name, path, value):
        cert = json.loads(recursive_dim(L(name)).dumps())
        *parents, last = path.split(".")
        node = cert["trace"]
        for key in parents:
            node = node[key]
        assert node[last] == value and type(node[last]) is int
        node[last] = value
        with pytest.raises(CertificateError, match=f"differs from its recomputation in {last}"):
            check_certificate(cert)

    def test_missing_ell_raises_certificate_error(self):
        cert = json.loads(recursive_dim(L("L(10,2,6^3)")).dumps())
        del cert["ell"]
        with pytest.raises(CertificateError, match="ell"):
            check_certificate(cert)

    def test_truncated_reduction_rejected(self):
        # without its last move the replay stops short of the recorded final system
        cert = json.loads(recursive_dim(L("L(14,0,6^6)")).dumps())
        assert len(cert["trace"]["moves"]) == 9
        check_certificate(cert)
        del cert["trace"]["moves"][-1]
        with pytest.raises(CertificateError, match="malformed system"):
            check_certificate(cert)

    @pytest.mark.parametrize("name", ["L(14,0,6^6)", "L(46,36,6^22)", "L(6,6,6^2)"])
    def test_moves_recording_their_systems_accepted(self, name):
        # as certificates were written while each move recorded its before and after
        cert = json.loads(recursive_dim(L(name)).dumps())
        old = with_transcripts(cert)
        moves = [m for n in trace_nodes(old) if n["kind"] == "cremona_reduction" for m in n["moves"]]
        assert moves and all(list(m) == ["move", "slots", "before", "after"] for m in moves)
        check_certificate(old)

    def test_move_without_slots_raises_certificate_error(self):
        cert = json.loads(recursive_dim(L("L(14,0,6^6)")).dumps())
        del cert["trace"]["moves"][0]["slots"]
        with pytest.raises(CertificateError, match="slots"):
            check_certificate(cert)

    @pytest.mark.parametrize("first,second,message", [
        (None, 1.0, "missing field 'move'"),
        ("1", None, "a move slot is an integer, got str"),
        ("1", 1.0, "a move slot is an integer, got str"),
    ])
    def test_first_of_two_defective_moves_reported(self, first, second, message):
        # the moves are read in one pass, so the earlier defect is the one reported;
        # a defect is a slot of another type, or None: the move's kind deleted
        cert = json.loads(recursive_dim(L("L(14,0,6^6)")).dumps())
        for move, defect in zip(cert["trace"]["moves"], (first, second)):
            if defect is None:
                del move["move"]
            else:
                move["slots"][0] = defect
        with pytest.raises(CertificateError) as err:
            check_certificate(cert)
        assert str(err.value) == message

    @pytest.mark.parametrize("field,value", [("k", 0), ("k", 21), ("b", -1), ("b", 10),
                                             ("b", 11)])
    def test_out_of_range_k_or_b_raises_certificate_error(self, field, value):
        cert = json.loads(recursive_dim(L("L(21,0,6^10)")).dumps())
        assert cert["trace"]["kind"] == "degeneration"
        cert["trace"][field] = value
        # b = n = 10 splits, but a degeneration the checker accepts moves fewer points
        reason = "needs b < n" if (field, value) == ("b", 10) else f"need .*{field}"
        with pytest.raises(CertificateError, match=reason):
            check_certificate(cert)

    def test_degeneration_of_a_system_not_quasi_homogeneous_rejected(self):
        # L(21,0,6^9,5,3) has the expected dimension 42 of L(21,0,6^10), so only
        # the degeneration node itself can refuse it, before reading any number
        cert = json.loads(recursive_dim(L("L(21,0,6^10)")).dumps())
        assert cert["trace"]["kind"] == "degeneration"
        cert["system"] = cert["trace"]["system"] = "L(21,0,6^9,5,3)"
        with pytest.raises(CertificateError, match="degeneration: .*quasi-homogeneous"):
            check_certificate(cert)

    def test_too_deep_a_chain_raises_certificate_error(self):
        # a reduction with no moves, its leaf another one, nested past the stack
        node = {"kind": "no_conditions", "system": "L(1)", "ell": 2}
        for _ in range(3 * getrecursionlimit()):
            node = {"kind": "cremona_reduction", "system": "L(1)", "moves": [],
                    "final": "L(1)", "leaf": node, "ell": 2}
        with pytest.raises(CertificateError, match="nested too deeply"):
            check_certificate({"system": "L(1)", "status": REGULAR, "ell": 2, "trace": node})

    def test_unknown_has_no_certificate(self):
        cert = json.loads(recursive_dim(L("L(19,5,6^9)"), Budget(use_oracle=False)).dumps())
        with pytest.raises(CertificateError):
            check_certificate(cert)


# L(2,1,1) has dimension 3; L(1,3) meets it in -1 but is no curve (C.C = -8).
FORGED_REJECTED_SPLIT = {
    "system": "L(2,1,1)", "status": "empty", "ell": -1,
    "trace": {"kind": "fixed_part_removal", "system": "L(2,1,1)", "steps": [],
              "rejected": {"curve": "L(1,3)", "n": 1}, "ell": -1}}

# L(3,3,2) has dimension 1; the "line" L(1,0,2) with a double point is no curve.
FORGED_SPLIT_STEP = {
    "system": "L(3,3,2)", "status": "empty", "ell": -1,
    "trace": {"kind": "fixed_part_removal", "system": "L(3,3,2)",
              "steps": [{"curve": "L(1,0,2)", "n": 1}], "residual": "L(2,3)", "ell": -1}}


class TestRemovalProvesOnlySpecialityOrEmptiness:
    @pytest.mark.parametrize("name,match", [
        ("zero-steps-empty", "removal proves no speciality"),
        ("zero-steps-regular", "removal proves no speciality"),
        ("one-step", "removal proves no speciality"),
        ("bounded-tail", "unknown trace node kind 'bounded_tail'"),
    ])
    def test_non_special_removal_rejected(self, name, match):
        with pytest.raises(CertificateError, match=match):
            check_certificate(json.loads(json.dumps(NON_SPECIAL_REMOVALS[name])))

    @pytest.mark.parametrize("rejected", [None, 0, [], {}, False],
                             ids=["missing", "zero", "empty-list", "empty-object", "false"])
    def test_rejected_field_is_null_or_a_split(self, rejected):
        cert = json.loads(recursive_dim(L("L(12,0,6^5)")).dumps())
        assert cert["status"] == SPECIAL and cert["trace"]["rejected"] is None
        check_certificate(cert)
        if rejected is None:
            del cert["trace"]["rejected"]
        else:
            cert["trace"]["rejected"] = rejected
        with pytest.raises(CertificateError):
            check_certificate(cert)

    def test_the_prover_writes_none(self):
        # hh_dimension still reports a non-special removal, but no certificate rests on it
        removal = json.loads(hh_dimension(L("L(2,0,1^5)")).dumps())
        assert removal == NON_SPECIAL_REMOVALS["one-step"]
        verdict = recursive_dim(L("L(2,0,1^5)"))
        assert (verdict.status, verdict.ell) == (REGULAR, 0)
        assert not any(n["kind"] == "fixed_part_removal" for n in trace_nodes(verdict.to_json()))
        check_certificate(json.loads(verdict.dumps()))


def _walked_line(moves):
    """The line through two of nine points, moved by ``moves`` quadratic
    transformations on the three lightest points: checking it takes as many back."""
    d, m = 1, (1, 1) + (0,) * 7
    for _ in range(moves):
        d, m = cremona_vector(d, m, *sorted(range(9), key=m.__getitem__)[:3])
    return LinearSystem(d, m)


WALKED_LINE = _walked_line(2000)


def _count_walk(monkeypatch):
    """The argument tuples of every ``next_move`` call the checker makes from now on."""
    calls = []
    walk = degeneration.next_move
    monkeypatch.setattr(degeneration, "next_move", lambda *args: calls.append(args) or walk(*args))
    return calls


def _removal_rejecting(system, curve):
    """An ``empty`` certificate of ``system`` whose removal rejects ``curve`` at once."""
    rejected = {"curve": str(curve), "n": -intersect(system, curve)}
    return {"system": str(system), "status": EMPTY, "ell": -1,
            "trace": {"kind": "fixed_part_removal", "system": str(system), "steps": [],
                      "residual": None, "rejected": rejected, "special": False, "ell": -1}}


class TestMinusOneCurves:
    @pytest.mark.parametrize("cert", [FORGED_REJECTED_SPLIT, FORGED_SPLIT_STEP],
                             ids=["rejected", "step"])
    def test_forged_curve_rejected(self, cert):
        assert dimension_char_p(L(cert["system"])) > -1
        with pytest.raises(CertificateError, match="not a \\(-1\\)-curve"):
            check_certificate(cert)

    def test_split_meets_its_system_before_the_curve_is_walked(self, monkeypatch):
        calls = _count_walk(monkeypatch)
        assert _is_minus_one_curve(WALKED_LINE) and len(calls) == 2000
        cert = json.loads(recursive_dim(L("L(10,2,6^3)")).dumps())
        cert["trace"]["steps"][0]["curve"] = str(WALKED_LINE)
        calls.clear()
        with pytest.raises(CertificateError, match="does not meet its system in -n"):
            check_certificate(cert)
        assert calls == []

    @pytest.mark.parametrize("curve", [WALKED_LINE, L("L(5,2^6,1^2)")], ids=["walked", "quintic"])
    def test_non_catalog_curve_refused_before_the_walk(self, monkeypatch, curve):
        # (-1)-curves both, meeting L(10,10^9) in -20040010 and -90, and not subtractable
        cert = _removal_rejecting(L("L(10,10^9)"), curve)
        calls = _count_walk(monkeypatch)
        with pytest.raises(CertificateError, match="not a \\(-1\\)-curve of the catalog"):
            check_certificate(cert)
        assert calls == []

    @pytest.mark.parametrize("name", [
        "L(1,1,1)", "L(1,0,1^2)", "L(2,0,1^5)", "L(3,2,1^6)", "L(6,3,2^7)",
        "L(12,8,3^9)", "L(1,0,0,1,0,1)", "L(5,2^6,1^2)",
    ])
    def test_minus_one_curves_accepted(self, name):
        assert _is_minus_one_curve(L(name))

    @pytest.mark.parametrize("name", [
        "L(1,3)",          # C.C = -8
        "L(1,0,2)",        # C.C = -3
        "L(1,1)",          # C.C = 0
        "L(0,1)",          # -E: C.C = -1 but C.K = 1
        "L(3,1^10)",       # C.C = -1 but C.K = 1
        "L(3,2,1^4)",      # C.C = -1, C.K = -5
        "L(4,2^4,1)",      # C.C = -1, C.K = -3
    ])
    def test_other_classes_rejected(self, name):
        assert not _is_minus_one_curve(L(name))

    @pytest.mark.parametrize("n", [2, 5, 9, 14])
    def test_catalog_constituents_accepted(self, n):
        pieces = [piece for _, parts in catalog_pieces(n) for piece in parts]
        assert pieces and all(_is_minus_one_curve(c) and is_catalog_curve(c) for c in pieces)


LEAF_KINDS = ("no_conditions", "multiplicity_exceeds_degree", "standard_small", "rank_oracle")
# the oracle leaf's inputs: another valid choice replays to another valid leaf
ORACLE_INPUTS = ("prime", "seed", "trials")


def _mutated(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value + " "  # a system string that parses to the same system


class TestLeafMutations:
    """Every field of a leaf is rebuilt by the checker, so changing one is caught."""

    @pytest.mark.parametrize("prove,name,kind,field,value", [
        (recursive_dim, "L(6,0,6)", "standard_small", "points", 2),
        (recursive_dim, "L(14,0,6^6)", "multiplicity_exceeds_degree", "ell", 0),
        (recursive_dim, "L(19,5,6^9)", "rank_oracle", "expected", 6),
        (recursive_dim, "L(10,2,6^3)", "fixed_part_removal", "special", False),
        (hh_dimension, "L(6,6,6^2)", "fixed_part_removal", "special", True),
        (recursive_dim, "L(20,8,6^9)", "rank_oracle", "seed", "0"),
        (recursive_dim, "L(10,2,6^3)", None, "status", "bogus"),
        # empty systems whose expected dimension is -1: "regular" claims no value
        (hh_dimension, "L(6,6,6^2)", None, "status", REGULAR),
        (recursive_dim, "L(16,5,6^8)", None, "status", REGULAR),
    ])
    def test_named_mutation_rejected(self, prove, name, kind, field, value):
        cert = json.loads(prove(L(name)).dumps())
        check_certificate(cert)
        node = cert if kind is None else next(n for n in trace_nodes(cert) if n["kind"] == kind)
        assert node[field] != value or type(node[field]) is not type(value)
        node[field] = value
        with pytest.raises(CertificateError):
            check_certificate(cert)

    @pytest.mark.parametrize("prove,name", [
        (recursive_dim, "L(0)"), (recursive_dim, "L(3,4)"), (recursive_dim, "L(6,0,6)"),
        (recursive_dim, "L(10,2,6^3)"), (recursive_dim, "L(14,0,6^6)"),
        (recursive_dim, "L(19,5,6^9)"), (recursive_dim, "L(21,0,6^10)"),
        (recursive_dim, "L(46,36,6^22)"), (hh_dimension, "L(6,6,6^2)"),
    ])
    def test_every_leaf_field_is_checked(self, prove, name):
        text = prove(L(name)).dumps()
        check_certificate(json.loads(text))
        mutants = 0
        for i, node in enumerate(trace_nodes(json.loads(text))):
            if node["kind"] in LEAF_KINDS:
                fields = [f for f in node if f not in ("kind", *ORACLE_INPUTS)]
            elif node["kind"] == "fixed_part_removal":
                fields = ["special"]
            else:
                continue
            for field in fields:
                cert = json.loads(text)
                target = list(trace_nodes(cert))[i]
                target[field] = _mutated(target[field])
                with pytest.raises(CertificateError):
                    check_certificate(cert)
                mutants += 1
        assert mutants > 0


# one certificate for each kind of inner node, at its root, and beside the
# reduction of one move a reduction of nine; L(6,6,6^2) is empty and has
# expected dimension -1
INNER_PROOFS = {"fixed_part_removal": "L(10,2,6^3)", "cremona_reduction": "L(6,6,6^2)",
                "cremona_reduction_nine_moves": "L(14,0,6^6)", "degeneration": "L(24,1,6^9)"}


@pytest.fixture(scope="module")
def inner_certificates():
    return {kind: json.loads(recursive_dim(L(name)).dumps())
            for kind, name in INNER_PROOFS.items()}


def test_to_json_shares_the_trace():
    # a trace is read-only, so a degeneration node holds its children's traces
    # without copying them
    v = hh_dimension(L("L(10,2,6^3)"))
    assert v.to_json()["trace"] is v.trace


def _refused_or_same_claim(original, value):
    """Put ``value`` in each field of ``original`` in turn (or delete the field):
    the checker refuses each such certificate or accepts the claim unchanged."""
    claim = ("system", "status", "ell")
    for path, _ in positions(original):
        cert = mutant(original, path, value)
        try:
            check_certificate(cert)
        except CertificateError:
            continue
        assert [cert[key] for key in claim] == [original[key] for key in claim], (path, value)


class TestOneFieldMutants:
    """A certificate with one field replaced or deleted, anywhere in its tree, is
    refused with a CertificateError or still claims what it claimed."""

    def test_regular_needs_a_nonnegative_dimension(self):
        with pytest.raises(ValueError, match="expected_dim >= 0"):
            DimVerdict(REGULAR, -1, L("L(6,6,6^2)"))

    def test_roots(self, inner_certificates):
        roots = [cert["trace"] for cert in inner_certificates.values()]
        assert [root["kind"] for root in roots] == \
            ["fixed_part_removal", "cremona_reduction", "cremona_reduction", "degeneration"]
        assert [len(root["moves"]) for root in roots[1:3]] == [1, 9]

    @pytest.mark.parametrize("kind", INNER_PROOFS)
    def test_every_field_deleted(self, inner_certificates, kind):
        _refused_or_same_claim(inner_certificates[kind], DELETE)

    @pytest.mark.parametrize("kind", INNER_PROOFS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_field_replaced(self, inner_certificates, kind, data):
        original = inner_certificates[kind]
        texts = sorted({value for _, value in positions(original) if isinstance(value, str)})
        _refused_or_same_claim(original, data.draw(json_values(texts), label="value"))


def _spaced(text):
    return text.replace(",", ", ")


def _expanded(text):
    """``text`` with every run-length group written out, e.g. L(3,1^2) as L(3,1,1)."""
    S = parse_system(text)
    return f"L({','.join(map(str, (S.degree, *S.mults)))})"


class TestCanonicalRestatements:
    """A system string the checker can derive must be its canonical form, unparsed."""

    @pytest.mark.parametrize("name,path,restate", [
        ("L(10,2,6^3)", "system", _spaced),
        ("L(10,2,6^3)", "trace.system", _expanded),
        ("L(14,0,6^6)", "trace.leaf.system", _expanded),
        ("L(14,0,6^6)", "trace.final", _spaced),
        ("L(21,0,6^10)", "trace.children.plane.system", _spaced),
        ("L(21,0,6^10)", "trace.children.plane.trace.system", _spaced),
        # the prover keeps the emptied slot; the normalized residual drops it
        ("L(7,7,6)", "trace.residual", lambda text: str(parse_system(text).normalize())),
    ])
    def test_non_canonical_restatement_rejected(self, name, path, restate):
        cert = json.loads(recursive_dim(L(name)).dumps())
        check_certificate(cert)
        *parents, last = path.split(".")
        node = cert
        for key in parents:
            node = node[key]
        value = restate(node[last])
        assert value != node[last]
        assert parse_system(value).normalize() == parse_system(node[last]).normalize()
        node[last] = value
        with pytest.raises(CertificateError, match="malformed system"):
            check_certificate(cert)

    def test_only_supplied_systems_are_parsed(self, monkeypatch):
        cert = json.loads(recursive_dim(L("L(24,0,6^11)")).dumps())
        assert cert["trace"]["kind"] == "degeneration"
        removals = [n for n in trace_nodes(cert) if n["kind"] == "fixed_part_removal"]
        curves = [s["curve"] for n in removals for s in n["steps"]]
        curves += [n["rejected"]["curve"] for n in removals if n["rejected"]]
        assert curves
        calls = []

        def counting(text):
            calls.append(text)
            return parse_system(text)

        monkeypatch.setattr(degeneration, "parse_system", counting)
        check_certificate(cert)
        assert len(calls) == 1 + len(curves)
