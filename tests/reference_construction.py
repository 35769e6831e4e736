"""Reference code the construction tests compare the engine against.

`reference_dominate` is the dominance walk as the engine ran it before it
kept only the simple-root pairings: it reflects the whole point, an
integer array over Z[c] in simple-root coordinates, by s_i(p) = p -
<p, alpha_i^vee> alpha_i, pairs it again with every simple root of the
labels after each reflection, and conjugates the element one simple
reflection at a time.  `reference_regular_point` is the regular point as
the engine drew it before it judged a draw by its zero set: the moved
roots found first, by their pairings with every basis vector, and each
draw paired with all of them.
"""

import random

from weylconvex.quadfield import array_combination, array_dot


def _reflect(rs, point, i):
    """s_i on an array: <p, alpha_i^vee> = sum_t p_t <alpha_t, alpha_i^vee>
    per power of c, subtracted at coordinate i."""
    out = []
    for p in point:
        d = sum(p[t] * rs.cartan[t][i] for t in range(rs.rank))
        q = list(p)
        q[i] -= d
        out.append(tuple(q))
    return tuple(out)


def reference_dominate(rs, x, point, labels, field):
    """(x conjugated along the walk, the word, the labels whose simple roots
    pair to zero with the final point)."""
    word = []
    while True:
        for lab in labels:
            row = rs.int_pairing_rows[rs.simple_indices[lab]]
            if field.sign(array_dot(point, row)) < 0:
                point = _reflect(rs, point, lab)
                x = x.conj_by_simple(lab)
                word.append(lab)
                break
        else:
            break
        if len(word) > rs.positive_count:
            raise AssertionError("the walk reflected more often than there are positive roots")
    zeros = tuple(
        lab for lab in labels
        if not any(array_dot(point, rs.int_pairing_rows[rs.simple_indices[lab]]))
    )
    return x, word, zeros


def reference_regular_point(basis, rs, root_subset, rng, retries=64):
    """(point, perp set) from the first draw off every moved root, or None
    when every draw misses."""
    rows = rs.int_pairing_rows
    pc = rs.positive_count
    moved = {
        p: any(any(array_dot(B, rows[p])) for B in basis)
        for p in {g % pc for g in root_subset}
    }
    perp = frozenset(g for g in root_subset if not moved[g % pc])
    off = [rows[g] for g in root_subset if g < pc and moved[g]]
    rng = rng or random.Random(7)
    for _ in range(retries):
        coefs = [rng.randint(-9, 9) for _ in basis]
        if all(c == 0 for c in coefs):
            continue
        point = array_combination(coefs, basis)
        if all(any(array_dot(point, r)) for r in off):
            return point, perp
    return None
