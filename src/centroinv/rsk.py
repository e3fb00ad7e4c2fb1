"""The rectangle embedding of 321-avoiding involutions.

A 321-avoiding involution p of [m] is a non-nesting matching: its arcs are
the pairs (i, p(i)) with i < p(i), and no fixed point lies under an arc.  Its
path has an N step at each i with p(i) >= i (an arc opens, or a fixed point)
and an E step where an arc closes.  The path never dips below the diagonal;
its peaks are the descents of p and its height surplus is the number of
fixed points.  This is the top row of the two-row tableau that p
row-inserts into; tests/oracles.py keeps the row insertion as the reference
the direct rule is checked against.

theta_rect then carries p into the a x b rectangle (b >= a, a+b = m,
requiring at least b-a fixed points): flip the steps at the leftmost
(fp+b-a)/2 fixed points from N to E, and apply the peak/hook bijection.  The
composite sends the descent set of p onto the hook decomposition of the image
diagram, which is what makes the fixed-point-refined major index formulas
below work.  The inverse pairs up the steps like facing parentheses (N opens,
E closes): every unmatched step is a fixed point, and the matched N steps pair
in order with the matched E steps, because non-nesting arcs close in the order
they open.

Distinct error types tell apart the ways input can be rejected: not an
involution, containing 321, too few fixed points, wrong size or shape.
"""

from __future__ import annotations

from centroinv.paths import g_inverse, g_map, path_counts
from centroinv.perms import Perm, check_perm, contains_321, is_involution
from centroinv.qpoly import QPoly, pmul, pshift, psub, q_binomial


class NotInvolutionError(ValueError):
    pass


class Contains321Error(ValueError):
    pass


class TooFewFixedPointsError(ValueError):
    pass


class ShapeMismatchError(ValueError):
    pass


def involution_path(p: Perm) -> str:
    """Path of length m with an N at each i where p(i) >= i, an E where an
    arc of p closes.

    Never dips below the diagonal; the height surplus at the end is the
    number of fixed points and the peaks are the descents of p.

    >>> involution_path((2, 1, 4, 3))
    'NENE'
    """
    check_perm(p)
    if not is_involution(p):
        raise NotInvolutionError(f"not an involution: {p!r}")
    if contains_321(p):
        raise Contains321Error(f"contains 321: {p!r}")
    return "".join("N" if v >= i else "E" for i, v in enumerate(p, start=1))


def _facing_scan(word: str) -> tuple[list[int], list[int]]:
    # N opens, E closes, matched LIFO; returns the 1-based indices of the
    # unmatched N steps and of the unmatched E steps, each ascending
    stack: list[int] = []
    unmatched_e = []
    for idx, s in enumerate(word, start=1):
        if s == "N":
            stack.append(idx)
        elif stack:
            stack.pop()
        else:
            unmatched_e.append(idx)
    return stack, unmatched_e


def theta_rect(p: Perm, a: int, b: int) -> str:
    """Embed a 321-avoiding involution with enough fixed points into the
    a x b rectangle; the hook decomposition of the result is the descent set
    of p.

    >>> theta_rect((2, 1, 4, 3), 2, 2)
    'EENN'
    >>> theta_rect((1, 3, 2), 1, 2)
    'EEN'
    """
    if a < 0 or b < a:
        raise ShapeMismatchError(f"need 0 <= a <= b, got a={a}, b={b}")
    if len(p) != a + b:
        raise ShapeMismatchError(f"size {len(p)} does not split as {a}+{b}")
    path = involution_path(p)
    fixed = [i for i, v in enumerate(p, start=1) if i == v]
    if len(fixed) < b - a:
        raise TooFewFixedPointsError(
            f"{len(fixed)} fixed points, need at least b-a = {b - a}"
        )
    out = list(path)
    for i in fixed[: (len(fixed) + b - a) // 2]:
        out[i - 1] = "E"
    return g_map("".join(out))


def theta_rect_inverse(word: str, a: int, b: int) -> Perm:
    """Inverse embedding: undo the peak/hook bijection, then pair up the
    steps like facing parentheses.  Every unmatched step, N or E, is a fixed
    point; the matched N steps pair in order with the matched E steps.

    >>> theta_rect_inverse("EENN", 2, 2)
    (2, 1, 4, 3)
    """
    if a < 0 or b < a:
        raise ShapeMismatchError(f"need 0 <= a <= b, got a={a}, b={b}")
    if path_counts(word) != (a, b):
        raise ShapeMismatchError(
            f"path does not fit a {a} x {b} rectangle: {word!r}"
        )
    path = g_inverse(word)
    unmatched_n, unmatched_e = _facing_scan(path)
    fixed = set(unmatched_n + unmatched_e)
    steps = [(i, s) for i, s in enumerate(path, start=1) if i not in fixed]
    opens = [i for i, s in steps if s == "N"]
    closes = [i for i, s in steps if s == "E"]
    out = list(range(1, len(path) + 1))
    # non-nesting arcs close in the order they open
    for i, j in zip(opens, closes):
        out[i - 1], out[j - 1] = j, i
    return tuple(out)


# ---------- fixed-point-refined major index polynomials ----------


def maj_poly_by_fixed_points(n: int, l: int) -> QPoly:
    """Major index distribution over 321-avoiding involutions of [n] with
    exactly l fixed points: a difference of two Gaussian binomials."""
    if l < 0 or l > n or (n - l) % 2:
        raise ValueError(f"fixed point count {l} impossible for size {n}")
    h = (n - l) // 2
    return psub(q_binomial(n, h), q_binomial(n, h - 1))


def maj_poly_by_fixed_points_and_des(n: int, l: int, k: int) -> QPoly:
    """As maj_poly_by_fixed_points, further refined by descent count k."""
    if l < 0 or l > n or (n - l) % 2:
        raise ValueError(f"fixed point count {l} impossible for size {n}")
    if k < 0:
        raise ValueError("negative descent count")
    h = (n - l) // 2
    first = pmul(q_binomial(h, k), q_binomial(n - h, k))
    second = pmul(q_binomial(h - 1, k), q_binomial(n - h + 1, k))
    return pshift(psub(first, second), k * k)
