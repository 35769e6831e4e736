"""Convex representatives in every conjugacy class.

The geometric path follows the inductive proof shape: pick the smallest
rotation angle with a nonzero eigenspace inside the current parabolic
span, move one of its regular points into the closed dominant chamber by
the dominance algorithm, cut the parabolic down to the stabilizer of the
point, and repeat until the remaining subsystem is fixed pointwise.

The output is always verified exactly by the sign-stability analysis.  If
the geometric path was misguided (possible only through the float
fallback for high rotation orders), an exhaustive scan of the class takes
over; that scan failing too would contradict the existence theorem and
raises the loud inconsistency error on purpose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .convexity import ConvexityReport, analyze, phi_of
from .errors import InconsistencyError, InputError
from .geometry import (
    angle_list,
    angle_perp_roots,
    exact_angle_basis,
    float_angle_basis,
    is_good_position,
    FLOAT_MARGIN,
)
from .quadfield import sign_of, two_cos_exact
from .weyl import ConjugacyClass, TwistedElement, fixed_roots, is_elliptic


@dataclass(frozen=True)
class StageRecord:
    angle: Fraction
    conjugator_word: Tuple[int, ...]
    parabolic_labels: Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class RepresentativeResult:
    input_class: ConjugacyClass
    representative: TwistedElement
    method: str  # "geometric" or "exhaustive"
    stage_log: Tuple[StageRecord, ...]
    report: ConvexityReport


def _verified(x: TwistedElement) -> Optional[ConvexityReport]:
    rep = analyze(x)
    if rep.convex and phi_of(x) == fixed_roots(x):
        return rep
    return None


def _restricted_angle_basis(x: TwistedElement, angle: Fraction, labels):
    """Basis of V_x^theta inside the span of the parabolic, exact or float."""
    if two_cos_exact(angle) is not None:
        return exact_angle_basis(x, angle, labels), True
    return float_angle_basis(x, angle, labels), False


def _geometric_convex(
    x: TwistedElement, rng: random.Random
) -> Tuple[TwistedElement, List[StageRecord]]:
    rs = x.rs
    labels: Tuple[int, ...] = tuple(range(rs.rank))
    log: List[StageRecord] = []
    guard = 0
    while True:
        guard += 1
        if guard > rs.rank + 2:
            raise InconsistencyError("parabolic descent failed to terminate")
        sub_roots = rs.parabolic_closure(labels)
        if all(x.perm[g] == g for g in sub_roots):
            return x, log
        angles = angle_list(x, labels)
        if not angles:
            raise InconsistencyError(
                "element moves the parabolic but has no rotation angle in it"
            )
        angle = angles[0][0]  # ascending order: smallest theta first
        basis, exact = _restricted_angle_basis(x, angle, labels)
        point = _regular_in_restricted(rs, x, angle, basis, labels, exact, rng)
        x, point, word = _dominate(rs, x, point, labels, exact)
        next_labels = tuple(
            lab
            for lab in labels
            if _is_zero(rs.pair_with_root(point, rs.simple_indices[lab]), exact)
        )
        if next_labels == labels:
            raise InconsistencyError("dominance step made no parabolic progress")
        log.append(StageRecord(angle, tuple(word), next_labels))
        labels = next_labels


def _pad(vec, labels, rank):
    out = [Fraction(0) if not isinstance(vec[0], float) else 0.0] * rank
    for t, lab in enumerate(labels):
        out[lab] = vec[t]
    return out


def _is_zero(v, exact: bool) -> bool:
    return sign_of(v) == 0 if exact else abs(v) < FLOAT_MARGIN


def _is_negative(v, exact: bool) -> bool:
    return sign_of(v) < 0 if exact else v < -FLOAT_MARGIN


def _regular_in_restricted(rs, x, angle, basis, labels, exact, rng):
    """Random point of the restricted eigenspace off the relevant hyperplanes."""
    if not basis:
        raise InconsistencyError("empty eigenspace basis for a present angle")
    sub_roots = rs.parabolic_closure(labels)
    perp = angle_perp_roots(x, angle, sub_roots, labels)
    off = [g for g in sub_roots if rs.is_positive(g) and g not in perp]
    padded = [_pad(b, labels, rs.rank) for b in basis]
    for _ in range(256):
        coefs = [rng.randint(-9, 9) for _ in padded]
        if all(c == 0 for c in coefs):
            continue
        point = [
            sum(c * b[t] for c, b in zip(coefs, padded))
            for t in range(rs.rank)
        ]
        if all(not _is_zero(rs.pair_with_root(point, g), exact) for g in off):
            return point
    raise InconsistencyError("regular point sampling failed in the eigenspace")


def _dominate(rs, x, point, labels, exact):
    """Reflect the point into the closed dominant chamber of the parabolic.

    Ties (pairings that are already zero) are left alone: boundary points
    are allowed in the closed chamber.
    """
    word: List[int] = []
    guard = 0
    bound = 4 * len(rs.parabolic_closure(labels)) + 8
    while True:
        guard += 1
        if guard > bound:
            raise InconsistencyError("dominance loop exceeded its bound")
        for lab in labels:
            g = rs.simple_indices[lab]
            if _is_negative(rs.pair_with_root(point, g), exact):
                point = _reflect(rs, point, lab)
                x = x.conj_by_simple(lab)
                word.append(lab)
                break
        else:
            return x, point, word


def _reflect(rs, point, lab):
    """Apply the simple reflection s_lab to a vector in simple coordinates."""
    g = rs.simple_indices[lab]
    coef = rs.pair_with_root(point, g) * 2 / rs.gram()[lab][lab]
    out = list(point)
    out[lab] = out[lab] - coef
    return out


def find_convex_representative(
    cls: ConjugacyClass, seed: int = 0
) -> RepresentativeResult:
    """A class member that is convex with phi equal to its fixed roots.

    Geometric construction first, exhaustive scan as the correctness
    anchor; both failing contradicts the existence theorem.
    """
    rng = random.Random(seed)
    x = cls.representative
    try:
        y, log = _geometric_convex(x, rng)
        report = _verified(y)
        if report is not None:
            return RepresentativeResult(
                input_class=cls,
                representative=y,
                method="geometric",
                stage_log=tuple(log),
                report=report,
            )
    except InputError:
        pass
    for y in cls.elements:  # already sorted by (length, permutation)
        report = _verified(y)
        if report is not None:
            return RepresentativeResult(
                input_class=cls,
                representative=y,
                method="exhaustive",
                stage_log=(),
                report=report,
            )
    raise InconsistencyError(
        "theorem violated: no convex element with phi = fixed roots in class "
        f"of {cls.representative.word()}"
    )


def find_good_position_conjugate(
    x: TwistedElement,
    sequence: Sequence[Fraction],
    budget: Optional[int] = None,
) -> Optional[TwistedElement]:
    """First class member at good position for the sequence.

    Returns None only when the scan budget cuts the search short; a full
    scan with no hit contradicts the conjugation lemma and errors out.
    """
    from .geometry import is_admissible
    from .weyl import class_of

    if not is_admissible(x, sequence):
        raise InputError("sequence is not admissible for this element")
    cls = class_of(x)
    scanned = 0
    for y in cls.elements:
        if budget is not None and scanned >= budget:
            return None
        scanned += 1
        if is_good_position(y, sequence) is not None:
            return y
    raise InconsistencyError(
        "full class scan found no good-position conjugate; this contradicts "
        "the existence of good-position representatives"
    )


def elliptic_min_convex(cls: ConjugacyClass) -> TwistedElement:
    """A convex minimal-length element reachable by downward cyclic shifts."""
    if not is_elliptic(cls.representative):
        raise InputError("class is not elliptic")
    from .weyl import _shift_reachable_set

    reachable = _shift_reachable_set(cls.representative)
    candidates = [
        y
        for y in reachable
        if y.length() == cls.min_length and analyze(y).convex
    ]
    if not candidates:
        raise InconsistencyError(
            "no convex element in the reachable minimal-length set of an "
            "elliptic class; this contradicts the minimal-length theorem"
        )
    return min(candidates, key=lambda e: (e.word(), e.weyl.root_perm))
