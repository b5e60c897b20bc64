"""Suite-wide settings and helpers.

Every Hypothesis test draws the same examples on every run,
``packaged_csv`` reads a data file as the package ships it, ``positions``,
``trace_nodes``, ``mutant`` and ``json_values`` serve the certificate
mutation fuzzes, ``with_transcripts`` writes a certificate as certificates
were written while each reduction move recorded the systems around it,
``limit_value`` is the reference formula for the dimension of a
degeneration's limit system, and ``reference_catalog`` states the (-1)-curve
catalog in the split chain's order, independently of the package's lists;
``catalog_pieces`` builds the package's classes for the soundness tests.
"""

import json
from importlib import resources
from typing import NamedTuple

from hypothesis import settings
from hypothesis import strategies as st

from fatpoints.cli import transcript
from fatpoints.core import LinearSystem, parse_system
from fatpoints.cremona import Move
from fatpoints.neg_curves import _compound_lines, _curve, _simple_classes
from fatpoints.verdict import EMPTY, REGULAR, SPECIAL, UNKNOWN

# derandomize=True seeds each test from a hash of the test itself (and implies
# database=None), so a run never depends on examples saved by an earlier one.
# Tests keep their own max_examples and deadline.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


def packaged_csv(name: str) -> str:
    """The text of ``fatpoints/data/<name>``."""
    return resources.files("fatpoints.data").joinpath(name).read_text()


def positions(doc, prefix=()):
    """(path, value) of every value inside the JSON document ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) \
        else ()
    for key, value in items:
        yield prefix + (key,), value
        yield from positions(value, prefix + (key,))


def trace_nodes(tree):
    """Every trace node inside a certificate, depth first, as often as it occurs."""
    if isinstance(tree, dict):
        if "kind" in tree:
            yield tree
        for value in tree.values():
            yield from trace_nodes(value)
    elif isinstance(tree, list):
        for value in tree:
            yield from trace_nodes(value)


DELETE = object()  # as the value of ``mutant``: delete the field


def mutant(doc, path, value):
    """A copy of the JSON document ``doc`` with the field at ``path`` set to
    ``value``, or deleted when ``value`` is ``DELETE``."""
    copy = json.loads(json.dumps(doc))
    *parents, last = path
    node = copy
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return copy


def json_values(texts: list[str]):
    """Small JSON values to put in a certificate: a status name, a string of
    ``texts``, a system string, any scalar, or a short list or object of them."""
    scalars = (st.none() | st.booleans() | st.integers(-2, 40) | st.floats()
               | st.text(max_size=4)
               | st.sampled_from(texts + ["L(0)", "L(3,0,6^10000)", "L(1,"]))
    return st.sampled_from([EMPTY, REGULAR, SPECIAL, UNKNOWN]) | st.recursive(
        scalars, lambda kids: st.lists(kids, max_size=2)
        | st.dictionaries(st.sampled_from(["curve", "n", "kind", "system"]), kids, max_size=2),
        max_leaves=3)


def with_transcripts(doc):
    """A copy of the JSON document ``doc`` whose every ``cremona_reduction`` move
    also records the canonical systems before and after it, as the CLI prints them."""
    if isinstance(doc, list):
        return [with_transcripts(value) for value in doc]
    if not isinstance(doc, dict):
        return doc
    copy = {key: with_transcripts(value) for key, value in doc.items()}
    if copy.get("kind") == "cremona_reduction":
        moves = tuple(Move.from_json(data) for data in copy["moves"])
        copy["moves"] = transcript(parse_system(copy["system"]), moves)
    return copy


def limit_value(d_minus_k: int, ell_plane: int, ell_ruled: int,
                ell_plane_kernel: int, ell_ruled_kernel: int) -> int:
    """Dimension of the limit system of a (k, b)-degeneration from the four
    restricted dimensions.

    With r = ell - kernel ell - 1 on each piece: if the two restricted series
    on the double curve are short enough to be transversal
    (r_plane + r_ruled <= d - k - 1) the kernels control the answer,
    otherwise the restrictions do.  At the overlap both formulas must agree.
    """
    r_plane = ell_plane - ell_plane_kernel - 1
    r_ruled = ell_ruled - ell_ruled_kernel - 1
    if r_plane + r_ruled <= d_minus_k - 1:
        out = ell_plane_kernel + ell_ruled_kernel + 1
        if r_plane + r_ruled == d_minus_k - 1 and out != ell_plane + ell_ruled - d_minus_k:
            raise ValueError("limit formulas disagree at the overlap; inconsistent input")
        return out
    return ell_plane + ell_ruled - d_minus_k


class CatalogEntry(NamedTuple):
    """One catalog class with a uniform tail multiplicity: a simple (-1)-class,
    or a compound made of lines."""

    kind: str  # "simple" | "compound"
    degree: int
    m0: int
    tail_mult: int
    tail_points: int


def reference_catalog(t):
    """The catalog on ``t`` tail slots in the order in which the split chain
    tries it: the compounds L(k,k,1^k) for k = t..2, then L(3,0,2^3), so that
    symmetric fixed parts are removed as units; then the simple classes sorted
    by descending degree, m0 and tail multiplicity, each list built afresh."""
    compounds = [CatalogEntry("compound", k, k, 1, k) for k in range(t, 1, -1)]
    if t >= 3:
        compounds.append(CatalogEntry("compound", 3, 0, 2, 3))
    simples = []
    if t >= 9:
        simples.append(CatalogEntry("simple", 12, 8, 3, 9))
    if t >= 7:
        simples.append(CatalogEntry("simple", 6, 3, 2, 7))
    simples.extend(CatalogEntry("simple", e, e - 1, 1, 2 * e) for e in range(1, t // 2 + 1))
    if t >= 5:
        simples.append(CatalogEntry("simple", 2, 0, 1, 5))
    if t >= 1:
        simples.append(CatalogEntry("simple", 1, 1, 1, 1))
    simples.sort(key=lambda E: (-E.degree, -E.m0, -E.tail_mult))
    return compounds + simples


def catalog_pieces(t):
    """``(curve, pieces)`` for each catalog class on the first of ``t`` tail
    slots, as the split chain writes it: each compound of ``reference_catalog``
    is the sum of its ``_compound_lines``, and each class of
    ``_simple_classes(t)`` is its own one piece.  Both are ``LinearSystem``s."""
    width = t + 1
    classes = [(entry[1:], _compound_lines(entry.m0 > 0, range(1, entry.tail_points + 1), width))
               for entry in reference_catalog(t) if entry.kind == "compound"]
    classes += [(c, [_curve(*c[:3], range(1, c[3] + 1), width)]) for c in _simple_classes(t)]
    return [(LinearSystem(*_curve(e, a, mu, range(1, r + 1), width)),
             [LinearSystem(*piece) for piece in pieces])
            for (e, a, mu, r), pieces in classes]


def _removal(system, status, ell, steps, residual):
    """A certificate whose whole proof is a fixed-part removal that is not special."""
    return {"system": system, "status": status, "ell": ell, "trace": {
        "kind": "fixed_part_removal", "system": system, "steps": steps, "residual": residual,
        "rejected": None, "special": False, "ell": ell}}


# Certificates resting on a fixed-part removal that is neither special nor
# rejected, which proves no dimension.  The checker rejects each.  The first two
# are false: the rank oracle gives 0 for L(4,0,2^5) (twice the conic through the
# five points) and 5 for L(10,0,6^3).  The third is hh_dimension(L(2,0,1^5)),
# one simple split.  The last is the certificate of L(4,0,1^13) with a
# bounded_tail leaf, which trusted such a removal for tail multiplicity <= 5.
NON_SPECIAL_REMOVALS = {
    "zero-steps-empty": _removal("L(4,0,2^5)", "empty", -1, [], "L(4,0,2^5)"),
    "zero-steps-regular": _removal("L(10,0,6^3)", "regular", 2, [], "L(10,0,6^3)"),
    "one-step": _removal("L(2,0,1^5)", "regular", 0, [{"curve": "L(2,0,1^5)", "n": 1}],
                         "L(0,0,0^5)"),
    "bounded-tail": {
        "system": "L(4,0,1^13)", "status": "regular", "ell": 1, "trace": {
            "kind": "cremona_reduction", "system": "L(4,0,1^13)", "moves": [],
            "final": "L(4,0,1^13)", "ell": 1, "leaf": {
                "kind": "bounded_tail", "system": "L(4,0,1^13)", "tail": 1, "ell": 1,
                "removal": _removal("L(4,0,1^13)", "regular", 1, [], "L(4,0,1^13)")["trace"]}}},
}
