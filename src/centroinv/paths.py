"""Lattice paths, Young diagrams in a box, hook decompositions.

A path is a word over the alphabet {N, E}, read as unit north/east steps from
(0,0).  A word with a letters N and b letters E lives in the a x b rectangle
and ends at (b, a); the boxes northwest of the path form a Young diagram with
at most a rows of length at most b (rows listed top-down, longest first).

Statistics and maps:

* area: number of boxes of that diagram, i.e. one box per (E step, later N
  step) pair, counted in one pass from the end of the word;
* peaks: vertices where an N step is followed immediately by an E step,
  labelled by the number of steps taken so far (so labels lie in 1..len-1);
  the starred variant appends a virtual E step, adding the label len when the
  word ends with N;
* hook decomposition: sizes of the hooks peeled repeatedly off the top-left
  corner of the diagram, listed ascending; their number is the Durfee side
  and their sum is the area;
* g: the bijection of the rectangle that turns peak labels into hook sizes.

A subset of [n], the pair (n, mask) of matchings, embeds as the path of
length n whose step i is N iff i is a member; this transports descent
statistics on the involution side to peak statistics here.
"""

from __future__ import annotations

_BIT_STEP = str.maketrans("01", "EN")


def check_path(word: str) -> None:
    # strip stops at the first letter other than N or E, so any such letter
    # is left over
    if word.strip("NE"):
        raise ValueError(f"path must use letters N and E only: {word!r}")


def path_counts(word: str) -> tuple[int, int]:
    """(number of N steps, number of E steps)."""
    return word.count("N"), word.count("E")


def subset_path(e: tuple[int, int]) -> str:
    """Path of length n whose N steps sit at the members of the subset
    e = (n, mask)."""
    n, mask = e
    # bin() writes bit n-1 first; the sentinel bit n keeps the leading zeros
    # and goes, with the "0b" prefix, when the digits are read backwards
    return bin(mask | 1 << n)[:2:-1].translate(_BIT_STEP)


def peak_set(word: str) -> tuple[int, ...]:
    """Labels of NE corners.

    >>> peak_set("NENE")
    (1, 3)
    """
    check_path(word)
    # two NE corners never overlap, so each search starts past the last one
    peaks = []
    i = word.find("NE")
    while i >= 0:
        peaks.append(i + 1)
        i = word.find("NE", i + 2)
    return tuple(peaks)


def peak_star(word: str, peaks: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Peaks after appending a virtual E step: peak_set(word), or peaks if
    the caller has it, plus the label len(word) when the word ends with N."""
    if peaks is None:
        peaks = peak_set(word)
    return peaks + (len(word),) if word.endswith("N") else peaks


def area(word: str) -> int:
    """Boxes northwest of the path: one per (E step, later N step) pair,
    counted in one pass from the end of the word.

    >>> area("EENN")
    4
    >>> area("NENE")
    1
    """
    check_path(word)
    total = 0
    ns_after = 0
    for step in reversed(word):
        if step == "N":
            ns_after += 1
        else:
            total += ns_after
    return total


# ---------- Young diagrams ----------


def hook_decomposition(word: str) -> tuple[int, ...]:
    """Hook sizes peeled off the top-left corner of the diagram, ascending.

    Peeling removes the first row and first column; the count of peels is the
    Durfee side and the sizes sum to the area.  Peel i takes the hook of
    diagonal box i, whose row ends at the i-th N step from the end of the
    word and whose column ends at the i-th E step from the start: its size
    is the difference of the two steps' positions, and the box exists while
    that E step comes first.

    >>> hook_decomposition("EENN")
    (1, 3)
    """
    check_path(word)
    hooks = []
    n_at, e_at = len(word), -1
    while True:
        n_at = word.rfind("N", 0, n_at)
        e_at = word.find("E", e_at + 1)
        if e_at < 0 or n_at < e_at:
            return tuple(reversed(hooks))
        hooks.append(n_at - e_at)


def hd_star(word: str, hooks: tuple[int, ...]) -> tuple[int, ...]:
    """The hook sizes hooks = hook_decomposition(word), which the caller
    has, plus the label len(word) when the word starts with N (the
    counterpart of peak_star under g)."""
    return hooks + (len(word),) if word.startswith("N") else hooks


# ---------- the peak/hook bijection ----------


def g_map(word: str) -> str:
    """Rectangle bijection sending peak labels to hook sizes.

    With peaks at coordinates (x_j, y_j), the image is R_a ... R_1 S_1 ... S_b
    where the R run carries an E at each height y_j (N elsewhere) and the S
    run an N at each offset x_j + 1 (E elsewhere); the hook sizes of the image
    are then the x_j + y_j, i.e. the peak labels of the input.

    >>> g_map("NENE")
    'EENN'
    >>> hook_decomposition("EENN") == peak_set("NENE")
    True
    """
    check_path(word)
    a, b = path_counts(word)
    r_run = ["N"] * a  # read left to right: height a down to 1
    s_run = ["E"] * b
    # the NE corner at j has y = the N steps up to j and x = j + 1 - y;
    # two corners never overlap, so each search starts past the last one
    y = counted = 0
    j = word.find("NE")
    while j >= 0:
        y += word.count("N", counted, j + 1)
        counted = j + 1
        r_run[a - y] = "E"
        s_run[j + 1 - y] = "N"
        j = word.find("NE", j + 2)
    return "".join(r_run) + "".join(s_run)


def g_inverse(word: str) -> str:
    """Inverse of g_map: read off peak coordinates from the two runs and
    rebuild the unique path with exactly those peaks."""
    check_path(word)
    a, b = path_counts(word)
    # the peaks in ascending order: the E steps of the R run word[:a] from
    # the right give the heights y, the N steps of the S run word[a:] from
    # the left the offsets x; the shorter run ends the walk
    out = []
    px = py = 0
    e_at, n_at = a, a - 1
    while (e_at := word.rfind("E", 0, e_at)) >= 0 and (n_at := word.find("N", n_at + 1)) >= 0:
        x, y = n_at - a, a - e_at
        out.append("E" * (x - px) + "N" * (y - py))
        px, py = x, y
    out.append("E" * (b - px) + "N" * (a - py))
    return "".join(out)
