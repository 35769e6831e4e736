"""JSON-friendly views of the analysis objects.

Everything is rendered deterministically: roots as 1-based coefficient
strings, words as 1-based comma lists, infinite levels as the string
"inf".  Reports round-trip byte-identically for a fixed command and seed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List

from .convexity import INFINITY, ConvexityReport
from .coxeter import CoxeterReport
from .errors import InputError
from .geometry import GoodPositionCertificate


def word_str(word) -> str:
    return ",".join(str(lab + 1) for lab in word)


def parse_word(text: str) -> List[int]:
    text = text.strip()
    if not text:
        return []
    try:
        labels = [int(tok) - 1 for tok in text.split(",")]
    except ValueError:
        raise InputError(f"cannot parse word {text!r}; expected comma-separated integers")
    if any(lab < 0 for lab in labels):
        raise InputError("word letters are 1-based and must be positive")
    return labels


def angle_str(angle: Fraction) -> str:
    num, den = angle.numerator, angle.denominator
    head = "pi" if num == 1 else f"{num}pi"
    return head if den == 1 else f"{head}/{den}"


# k*pi/d with k and d optional, or the multiple of pi as a/b or a.
_ANGLE = re.compile(r"(?:(\d*)pi|(\d+))(?:/(\d+))?")


def parse_angle(token: str) -> Fraction:
    m = _ANGLE.fullmatch(token.strip().lower().replace(" ", ""))
    if m is None:
        raise InputError(f"cannot parse angle {token!r}; expected e.g. pi/2, 2pi/5 or 1/2")
    try:
        num = int(m[1] or m[2] or 1)
        den = int(m[3] or 1)
    except ValueError:  # more digits than int() reads
        raise InputError(f"angle {token!r} has too many digits") from None
    if num <= 0 or den <= 0:
        raise InputError(f"angle {token!r} must lie in (0, pi]")
    out = Fraction(num, den)
    if out > 1:
        raise InputError(f"angle {token!r} exceeds pi")
    return out


def parse_sequence(text: str) -> List[Fraction]:
    text = text.strip()
    if not text:
        return []
    return [parse_angle(tok) for tok in text.split(",")]


def level_str(v) -> object:
    return "inf" if v is INFINITY else int(v)


def _witness_dicts(rs, triples) -> List[Dict]:
    return [
        {
            "alpha": rs.root_str(a),
            "beta": rs.root_str(b),
            "n_alpha": level_str(na),
            "n_beta": level_str(nb),
            "n_sum": level_str(ns),
        }
        for (a, b, na, nb, ns) in triples
    ]


def convexity_dict(rep: ConvexityReport, strict: bool = False) -> Dict:
    """The report of one element; `strict` adds the audited triples."""
    rs = rep.x.rs
    out = {
        "word": word_str(rep.x.word()),
        "twist_power": rep.x.twist_power,
        "length": rep.x.length(),
        "phi": sorted(rs.root_str(i) for i in rep.phi_x if rs.is_positive(i)),
        "parabolic_simples": (
            sorted(lab + 1 for lab in rep.parabolic_J)
            if rep.parabolic_J is not None
            else None
        ),
        "levels": {
            rs.root_str(i): level_str(rep.n_table[i])
            for i in range(rs.positive_count)
        },
        "max_level": rep.max_level,
        "condition1_ok": rep.condition1_ok,
        "condition2_ok": rep.condition2_ok,
        "quasi_convex": rep.quasi_convex,
        "inverse_quasi_convex": rep.inverse_quasi_convex,
        "convex": rep.convex,
        "violations": _witness_dicts(rs, rep.violations),
        "inverse_violations": _witness_dicts(rs, rep.inverse_violations),
    }
    if strict:
        out["audit_flags"] = _witness_dicts(rs, rep.audit_flags)
    return out


def certificate_dict(cert: GoodPositionCertificate) -> Dict:
    return {
        "sequence": [angle_str(a) for a in cert.sequence],
        "h_values": list(cert.h_values),
        "parabolic_sizes": [len(s) for s in cert.parabolic_chain],
        "stage_points": [[str(v) for v in p] for p in cert.stage_points],
    }


def coxeter_dict(report: CoxeterReport) -> Dict:
    return {
        "cartan": report.cartan,
        "delta": report.delta_label,
        "coxeter_number": report.coxeter_number,
        "conjecture_status": report.conjecture_status,
        "counterexamples": [word_str(w) for w in report.counterexamples],
        "elements": [
            {
                "word": word_str(e.word),
                "twist_power": e.twist_power,
                "convex": e.convex,
                "quasi_convex": e.quasi_convex,
                "half_turn_condition": e.w0_condition,
                "phi_empty": e.phi_empty,
            }
            for e in report.entries
        ],
    }
