"""The built-in worked-example manifest.

Every item re-runs one of the pinned desk examples end to end and reports
an exact pass/fail verdict; the reproduce command and the acceptance suite
both drive this list.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List

from .construction import find_good_position_conjugate
from .convexity import analyze, n_of
from .geometry import (
    admissible_enumerations,
    good_position_length,
    is_good_position,
)
from .roots import CartanType, build_root_system
from .weyl import (
    class_of,
    cyclic_shift_class,
    from_one_line,
    from_word,
    is_elliptic,
)

@lru_cache(maxsize=None)
def _rs(name: str):
    return build_root_system(CartanType.parse(name))


def _root_index(rs, labels) -> int:
    coef = [0] * rs.rank
    for lab in labels:
        coef[lab - 1] += 1
    return rs.coeff_index[tuple(coef)]


def _item(item_id: str, description: str, passed: bool, details: Dict) -> Dict:
    return {
        "id": item_id,
        "description": description,
        "passed": bool(passed),
        "details": details,
    }


def check_a4_quasi_convex_only() -> Dict:
    rs = _rs("A4")
    x = from_word(rs, None, [0, 1, 2, 3, 0, 1])
    rep = analyze(x)
    xi = x.inverse()
    values = (
        n_of(xi, _root_index(rs, [2])),
        n_of(xi, _root_index(rs, [3, 4])),
        n_of(xi, _root_index(rs, [2, 3, 4])),
    )
    ok = rep.quasi_convex and not rep.inverse_quasi_convex and values == (1, 2, 3)
    return _item(
        "a4-quasi-convex-inverse-not",
        "A4 s1s2s3s4s1s2 is quasi-convex, its inverse is not; inverse levels 1,2,3",
        ok,
        {"quasi_convex": rep.quasi_convex,
         "inverse_quasi_convex": rep.inverse_quasi_convex,
         "inverse_levels": list(values)},
    )


def check_a3_good_position_table() -> Dict:
    rs = _rs("A3")
    seq_a = [Fraction(1, 2), Fraction(1)]
    seq_b = [Fraction(1), Fraction(1, 2)]
    x = from_word(rs, None, [1, 0, 2])
    xp = from_word(rs, None, [0, 1, 2])
    cert = is_good_position(x, seq_a)
    table = {
        "s2s1s3 (pi/2,pi)": cert is not None,
        "s2s1s3 (pi,pi/2)": is_good_position(x, seq_b) is not None,
        "s1s2s3 (pi/2,pi)": is_good_position(xp, seq_a) is not None,
        "s1s2s3 (pi,pi/2)": is_good_position(xp, seq_b) is not None,
    }
    ok = (
        table["s2s1s3 (pi/2,pi)"]
        and not table["s2s1s3 (pi,pi/2)"]
        and not table["s1s2s3 (pi/2,pi)"]
        and not table["s1s2s3 (pi,pi/2)"]
        and cert is not None
        and good_position_length(cert) == 3
    )
    return _item(
        "a3-good-position-table",
        "A3 good-position verdicts for s2s1s3 and s1s2s3 over both sequences",
        ok,
        {"table": table},
    )


def check_a2_min_length_class() -> Dict:
    rs = _rs("A2")
    refl = class_of(from_word(rs, None, [0]))
    omin = refl.min_length_set()
    omin_words = sorted(y.word() for y in omin)
    none_convex = all(not analyze(y).convex for y in omin)
    w0 = from_word(rs, None, [0, 1, 0])
    ok = (
        omin_words == [(0,), (1,)]
        and none_convex
        and analyze(w0).convex
        and is_good_position(w0, [Fraction(1)]) is not None
    )
    return _item(
        "a2-no-convex-minimal-length",
        "A2 reflection class: no convex element among {s1, s2}; s1s2s1 is convex",
        ok,
        {"min_length_words": ["1", "2"], "w0_convex": analyze(w0).convex},
    )


def check_c3_elliptic_not_convex() -> Dict:
    rs = _rs("C3")
    x = from_word(rs, None, [2, 1, 2, 0, 1])
    cls = class_of(x)
    rep = analyze(x)
    ok = (
        is_elliptic(x)
        and x.length() == cls.min_length == 5
        and not rep.convex
    )
    return _item(
        "c3-elliptic-minimal-not-convex",
        "C3 s3s2s3s1s2 is elliptic and minimal length but not convex",
        ok,
        {"elliptic": is_elliptic(x), "length": x.length(),
         "min_length": cls.min_length, "convex": rep.convex},
    )


def check_gl6_levels() -> Dict:
    rs = _rs("A5")
    x = from_one_line(rs, [6, 3, 1, 5, 2, 4])  # the 6-cycle (1 6 4 5 2 3)
    values = (
        n_of(x, _root_index(rs, [2])),
        n_of(x, _root_index(rs, [3])),
        n_of(x, _root_index(rs, [2, 3])),
    )
    rep = analyze(x)
    ok = values == (1, 2, 3) and not rep.quasi_convex
    return _item(
        "gl6-cycle-levels",
        "GL6 six-cycle: levels 1,2,3 on a2, a3, a2+a3; not quasi-convex",
        ok,
        {"levels": list(values), "quasi_convex": rep.quasi_convex},
    )


def check_a4_good_position_lengths() -> Dict:
    rs = _rs("A4")
    c = from_word(rs, None, [0, 1, 2, 3])
    enums = admissible_enumerations(c)
    seq_a = (Fraction(2, 5), Fraction(4, 5))
    seq_b = (Fraction(4, 5), Fraction(2, 5))
    y1 = find_good_position_conjugate(c, list(seq_a))
    y2 = find_good_position_conjugate(c, list(seq_b))
    cert1 = is_good_position(y1, list(seq_a))
    cert2 = is_good_position(y2, list(seq_b))
    ok = (
        enums == [seq_a, seq_b]
        and y1.length() == 4 == good_position_length(cert1)
        and y2.length() == 8 == good_position_length(cert2)
    )
    return _item(
        "a4-good-position-lengths",
        "A4 Coxeter class: two admissible enumerations with lengths 4 and 8",
        ok,
        {"enumerations": len(enums), "length_a": y1.length(), "length_b": y2.length()},
    )


def check_a4_convex_not_shift_of_good() -> Dict:
    rs = _rs("A4")
    x = from_word(rs, None, [1, 2, 3, 0, 1, 2])  # s2 s3 s4 s1 s2 s3
    rep = analyze(x)
    peers = cyclic_shift_class(x)
    seqs = ([Fraction(2, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(2, 5)])
    shift_good = any(
        is_good_position(y, seq) is not None for y in peers for seq in seqs
    )
    ok = rep.convex and x.length() == 6 and not shift_good
    return _item(
        "a4-convex-beyond-good-position",
        "A4 s2s3s4s1s2s3 is convex of length 6 and no cyclic shift of it is "
        "at good position",
        ok,
        {"convex": rep.convex, "length": x.length(),
         "shift_class_size": len(peers), "any_shift_good": shift_good},
    )


MANIFEST: List[Callable[[], Dict]] = [
    check_a4_quasi_convex_only,
    check_a3_good_position_table,
    check_a2_min_length_class,
    check_c3_elliptic_not_convex,
    check_gl6_levels,
    check_a4_good_position_lengths,
    check_a4_convex_not_shift_of_good,
]


def run_manifest() -> List[Dict]:
    return [check() for check in MANIFEST]
