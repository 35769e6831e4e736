"""Convex representatives in every conjugacy class.

The geometric path follows the inductive proof shape: pick the smallest
rotation angle with a nonzero eigenspace inside the current parabolic
span, move one of its regular points into the closed dominant chamber by
the dominance algorithm, cut the parabolic down to the stabilizer of the
point, and repeat until the remaining subsystem is fixed pointwise.

Each stage runs on integer vectors over Z[c_L], c_L = 2cos 2pi/L, for the
field K_L of its angle (see `quadfield`), so every zero test and every
dominance sign is exact.  The output is verified exactly by the
sign-stability analysis all the same.  The paper proves that every
conjugacy class of W x <delta> holds a convex element whose sign-stable
roots are its fixed roots, and the induction above is its proof.  So the
geometric path is the only construction: if it raises an InputError or
its result fails verification, that contradicts the existence theorem,
and `find_convex_representative` raises InconsistencyError (exit 3).  No
class member other than the representative is read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .convexity import ConvexityReport, analyze
from .errors import InconsistencyError, InputError
from .geometry import (
    _admissible_mults,
    _good_position,
    angle_list,
    exact_angle_basis,
    regular_point,
)
from .quadfield import array_dot, field_for
from .weyl import (
    ConjugacyClass,
    TwistedElement,
    class_of,
    fixed_roots,
)


@dataclass(frozen=True)
class StageRecord:
    angle: Fraction
    conjugator_word: Tuple[int, ...]
    parabolic_labels: Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class RepresentativeResult:
    representative: TwistedElement
    stage_log: Tuple[StageRecord, ...]
    report: ConvexityReport
    # Always "geometric"; no report prints it, and only the benchmark's
    # trace reads it (ROADMAP item 3 drops it).
    method: str = "geometric"


def _verified(x: TwistedElement) -> Optional[ConvexityReport]:
    rep = analyze(x)
    if rep.convex and rep.phi_x == fixed_roots(x):
        return rep
    return None


def _geometric_convex(
    x: TwistedElement, rng: random.Random
) -> Tuple[TwistedElement, List[StageRecord]]:
    """The geometric path: a conjugate of x fixing its final parabolic
    pointwise, with one StageRecord per cut.

    Each pass returns or strictly shrinks `labels` (equal labels raise),
    so it returns within rank + 1 passes.
    """
    rs = x.rs
    labels: Tuple[int, ...] = tuple(range(rs.rank))
    log: List[StageRecord] = []
    while True:
        sub_roots, sub_positives = rs.parabolic(labels)
        # x(-g) = -x(g), so x fixes the parabolic once it fixes its positives.
        if all(x.perm[g] == g for g in sub_positives):
            return x, log
        angles = angle_list(x, labels)
        if not angles:
            raise InconsistencyError(
                "element moves the parabolic but has no rotation angle in it"
            )
        angle = angles[0][0]  # ascending order: smallest theta first
        field = field_for([angle])
        _, basis = exact_angle_basis(x, angle, labels, field)
        if not basis:
            raise InconsistencyError("empty eigenspace basis for a present angle")
        point, _ = regular_point(basis, rs, sub_roots, rng)
        x, word, next_labels = _dominate(rs, x, point, labels, field)
        if next_labels == labels:
            raise InconsistencyError("dominance step made no parabolic progress")
        log.append(StageRecord(angle, tuple(word), next_labels))
        labels = next_labels


def _dominate(rs, x, point, labels, field):
    """Reflect the point into the closed dominant chamber of the parabolic.

    Returns the conjugated x, the word of reflections, and the labels
    whose simple roots the final point is orthogonal to.  The point is an
    integer array over Z[c], as `regular_point` returns it; a positive
    scalar changes no sign the walk reads.  Ties (pairings that are
    already zero) are left alone: boundary points are allowed in the
    closed chamber.

    The walk keeps only the pairings c_j of the point with the simple
    roots alpha_j of the labels, as rows of `int_pairing_rows` pair (a
    positive multiple of the true pairing).  s_i moves the point by
    <p, alpha_i^vee> alpha_i, so it moves each c_j by <alpha_j, alpha_i^vee>
    c_i, the Cartan entry cartan[j][i] (Humphreys, Reflection Groups and
    Coxeter Groups, 1990, ch. 1): c_j <- c_j - cartan[j][i] c_i, c_i <- -c_i.
    These are integer identities over Z[c], so every sign is the one the
    reflected point would give.  A sign is decided again only where a
    reflection moved its pairing, and x is conjugated once, by the whole
    word.
    """
    rows = rs.int_pairing_rows
    pairings = [array_dot(point, rows[rs.simple_indices[lab]]) for lab in labels]
    signs = [field.sign(c) for c in pairings]
    word: List[int] = []
    bound = 4 * len(rs.parabolic_closure(labels)) + 8
    while -1 in signs:
        if len(word) >= bound:
            raise InconsistencyError("dominance loop exceeded its bound")
        # The first label, in order, whose pairing is negative.
        k = signs.index(-1)
        lab, ci = labels[k], pairings[k]
        for m, j in enumerate(labels):
            a = rs.cartan[j][lab]
            if a:
                pairings[m] = tuple(u - a * v for u, v in zip(pairings[m], ci))
                signs[m] = field.sign(pairings[m])
        word.append(lab)
    zero_labels = tuple(lab for lab, sign in zip(labels, signs) if not sign)
    return x.conj_by_word(word), word, zero_labels


def find_convex_representative(
    cls: ConjugacyClass, seed: int = 0
) -> RepresentativeResult:
    """A class member that is convex with phi equal to its fixed roots,
    built by the geometric path from the class representative.

    Its failure contradicts the existence theorem, so it raises
    InconsistencyError.
    """
    x = cls.representative
    try:
        y, log = _geometric_convex(x, random.Random(seed))
    except InputError as exc:
        failure = f"the geometric path raised {exc}"
    else:
        report = _verified(y)
        if report is not None:
            return RepresentativeResult(
                representative=y, stage_log=tuple(log), report=report
            )
        failure = f"its geometric representative {y.word()} failed verification"
    raise InconsistencyError(
        "existence theorem violated: every class holds a convex element with "
        f"phi = fixed roots, but in the class of {x.word()} {failure}"
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
    # The characteristic polynomial is a class invariant, and so is
    # admissibility: conjugating by w moves both the roots orthogonal to
    # the eigenspaces and the fixed roots by w.  One check for the scan.
    mults = _admissible_mults(x, sequence)
    cls = class_of(x)
    scanned = 0
    for y in cls.elements:
        if budget is not None and scanned >= budget:
            return None
        scanned += 1
        if _good_position(y, sequence, mults) is not None:
            return y
    raise InconsistencyError(
        "full class scan found no good-position conjugate; this contradicts "
        "the existence of good-position representatives"
    )
