"""Row insertion for 321-avoiding involutions and the rectangle embedding.

A 321-avoiding involution p of [m] row-inserts into a standard tableau with
at most two rows, and because p is an involution the recording tableau is the
same, so the tableau alone remembers p.  Reading which letters landed in the
top row gives an N/E path of length m that never dips below the diagonal;
its peaks are the descents of p and its height surplus is the number of
fixed points.

theta_rect then carries p into the a x b rectangle (b >= a, a+b = m,
requiring at least b-a fixed points): pair up the path steps like facing
parentheses (N opens, E closes), flip the leftmost (fp+b-a)/2 unmatched N
steps to E, and apply the peak/hook bijection.  The composite sends the
descent set of p onto the hook decomposition of the image diagram, which is
what makes the fixed-point-refined major index formulas below work.

Distinct error types tell apart the ways input can be rejected: not an
involution, containing 321, too few fixed points, wrong size or shape.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from centroinv.paths import g_inverse, g_map
from centroinv.perms import Perm, check_perm, fixed_point_count, is_involution
from centroinv.qpoly import QPoly, pmul, pshift, psub, q_binomial


class NotInvolutionError(ValueError):
    pass


class Contains321Error(ValueError):
    pass


class TooFewFixedPointsError(ValueError):
    pass


class ShapeMismatchError(ValueError):
    pass


class TwoRowTableau(NamedTuple):
    top: tuple[int, ...]
    bottom: tuple[int, ...]


def check_tableau(t: TwoRowTableau) -> None:
    """Standardness: rows increase, columns increase, entries are 1..m."""
    m = len(t.top) + len(t.bottom)
    if sorted(t.top + t.bottom) != list(range(1, m + 1)):
        raise ShapeMismatchError(f"entries must be exactly 1..{m}")
    if len(t.bottom) > len(t.top):
        raise ShapeMismatchError("bottom row longer than top row")
    for row in (t.top, t.bottom):
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            raise ShapeMismatchError("rows must increase")
    if any(b <= a for a, b in zip(t.top, t.bottom)):
        raise ShapeMismatchError("columns must increase")


def rsk_tableau(p: Perm) -> TwoRowTableau:
    """Row-insert an involution; a bump out of the second row would need a
    third row, which is exactly a 321 witness."""
    check_perm(p)
    if not is_involution(p):
        raise NotInvolutionError(f"not an involution: {p!r}")
    top: list[int] = []
    bottom: list[int] = []
    for x in p:
        i = bisect_right(top, x)
        if i == len(top):
            top.append(x)
            continue
        top[i], x = x, top[i]
        j = bisect_right(bottom, x)
        if j < len(bottom):
            raise Contains321Error(f"contains 321: {p!r}")
        bottom.append(x)
    return TwoRowTableau(tuple(top), tuple(bottom))


def tableau_involution(t: TwoRowTableau) -> Perm:
    """Inverse row insertion.  The recording side equals the insertion side
    for involutions, so one tableau drives both: remove the largest label
    where the recording copy shows it and reverse-bump the insertion copy."""
    check_tableau(t)
    p_rows = [list(t.top), list(t.bottom)]
    q_rows = [list(t.top), list(t.bottom)]
    m = len(t.top) + len(t.bottom)
    out = [0] * m
    for k in range(m, 0, -1):
        row = 1 if q_rows[1] and q_rows[1][-1] == k else 0
        q_rows[row].pop()
        v = p_rows[row].pop()
        if row == 1:
            j = bisect_left(p_rows[0], v) - 1
            v, p_rows[0][j] = p_rows[0][j], v
        out[k - 1] = v
    return tuple(out)


def involution_path(p: Perm) -> str:
    """Path of length m with an N at each letter of the top row.

    Never dips below the diagonal; the height surplus at the end is the
    number of fixed points and the peaks are the descents of p.

    >>> involution_path((2, 1, 4, 3))
    'NENE'
    """
    t = rsk_tableau(p)
    in_top = set(t.top)
    return "".join("N" if i in in_top else "E" for i in range(1, len(p) + 1))


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
    fp = fixed_point_count(p)
    if fp < b - a:
        raise TooFewFixedPointsError(
            f"{fp} fixed points, need at least b-a = {b - a}"
        )
    flips = (fp + b - a) // 2
    unmatched_n, _ = _facing_scan(path)
    out = list(path)
    for idx in unmatched_n[:flips]:
        out[idx - 1] = "E"
    return g_map("".join(out))


def theta_rect_inverse(word: str, a: int, b: int) -> Perm:
    """Inverse embedding: undo the peak/hook bijection, flip every unmatched
    E step back to N, and reverse the row insertion."""
    if a < 0 or b < a:
        raise ShapeMismatchError(f"need 0 <= a <= b, got a={a}, b={b}")
    if word.count("N") != a or word.count("E") != b:
        raise ShapeMismatchError(
            f"path does not fit a {a} x {b} rectangle: {word!r}"
        )
    path = g_inverse(word)
    _, unmatched_e = _facing_scan(path)
    steps = list(path)
    for idx in unmatched_e:
        steps[idx - 1] = "N"
    top = tuple(i for i, s in enumerate(steps, start=1) if s == "N")
    bottom = tuple(i for i, s in enumerate(steps, start=1) if s == "E")
    return tableau_involution(TwoRowTableau(top, bottom))


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
