"""Operational measurement side: peak extraction and visibilities from
sampled patterns, plus CSV re-import for offline analysis."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from duality_lab.coherence import CoherenceMatrix
from duality_lab.engine import _CSV_COLUMNS, _CSV_HEADERS, InterferencePattern, SlitArray, mutual_intensity
from duality_lab.measures import michelson

MIN_SAMPLES_PER_FRINGE = 64
PHASE_TOL = 1e-9  # largest wrapped pair phase, in radians, counted as aligned
VC_MATCH_TOL = 1e-6  # largest |operational - analytic V_C| that `analyze` counts as a match


class EmptyWindow(ValueError):
    """No grid samples inside the requested search window."""


class UndersampledGrid(ValueError):
    """Grid too coarse for reliable peak extraction."""


class ZeroIncoherentIntensity(ValueError):
    """Incoherent reference vanishes at the primary maximum."""


class NonIncreasingGrid(ValueError):
    """Pattern CSV whose x column does not strictly increase."""


@dataclass(frozen=True)
class PeakEstimate:
    """Refined primary-maximum location and height.

    x_star lies within one grid step of the argmax sample; i_max is never
    below any sample in the search window (the parabolic vertex through the
    top three samples can only sit above the middle one).
    """

    x_star: float
    i_max: float
    grid_index: int


def find_primary_max(
    pat: InterferencePattern, window: tuple[float, float] | None = None
) -> PeakEstimate:
    """Locate the primary maximum inside `window` (default: the central
    fringe, |x| <= w/2) and refine it with a 3-point parabolic fit.

    Requires at least 64 samples per fringe width; raises UndersampledGrid
    otherwise, and EmptyWindow when no samples fall inside the window.
    """
    x = pat.grid
    if x.size < 2:
        raise UndersampledGrid("pattern has fewer than 2 samples")
    step = x[1] - x[0]
    w = pat.fringe_width
    if w / step < MIN_SAMPLES_PER_FRINGE:
        raise UndersampledGrid(
            f"{w / step:.1f} samples per fringe, need >= {MIN_SAMPLES_PER_FRINGE}"
        )
    lo, hi = window if window is not None else (-w / 2.0, w / 2.0)
    inside = np.flatnonzero((x >= lo) & (x <= hi))
    if inside.size == 0:
        raise EmptyWindow(f"no samples in window ({lo}, {hi})")
    idx = int(inside[np.argmax(pat.total[inside])])
    x_star = float(x[idx])
    i_max = float(pat.total[idx])
    if 0 < idx < x.size - 1:
        y0, y1, y2 = pat.total[idx - 1], pat.total[idx], pat.total[idx + 1]
        curv = y0 - 2.0 * y1 + y2
        if curv < 0.0:
            delta = 0.5 * (y0 - y2) / curv
            x_star = float(x[idx] + delta * step)
            i_max = float(y1 - 0.25 * (y0 - y2) * delta)
    return PeakEstimate(x_star=x_star, i_max=i_max, grid_index=idx)


def extract_vc(pat: InterferencePattern) -> float:
    """Operational corrected visibility from a sampled pattern:
    (I_max - I_inc) / ((n - 1) * I_inc), with I_inc the incoherent reference
    interpolated at the refined primary-maximum position.

    Matches the analytic value only when the pair phases are aligned (all
    interference cosines peak together, see aligned_phases()) and the 3-point
    parabola is exact at the peak, as when x = 0 is a sample (an odd sample
    count over a symmetric window).  Otherwise the parabola misses a peak
    that sharpens with n: with aligned phases, rank-4 modes and 4096 samples
    over +-0.04 m, |extract_vc - V_C| is about 2e-9 at n=3, 2e-6 at n=16 and
    5e-4 at n=64, so `analyze`'s match within VC_MATCH_TOL fails from about
    n=16 at an even sample count; with 4097 samples it is at most a few
    1e-16.  With misaligned phases the value falls below the analytic one.
    """
    peak = find_primary_max(pat)
    i_inc = float(np.interp(peak.x_star, pat.grid, pat.incoherent))
    if i_inc <= 0.0:
        raise ZeroIncoherentIntensity("incoherent reference vanishes at the peak")
    return (peak.i_max - i_inc) / i_inc / (pat.n - 1)


def extract_michelson(pat: InterferencePattern) -> float:
    """Michelson contrast from a sampled pattern: refined central maximum
    against the minimum sample between it and the adjacent primary maximum.

    Exact for two-slit uniform-envelope patterns; under a gaussian envelope
    the extrema are position-biased and the result is approximate.
    """
    w = pat.fringe_width
    first = find_primary_max(pat)
    second = find_primary_max(pat, window=(first.x_star + 0.5 * w, first.x_star + 1.5 * w))
    lo, hi = sorted((first.grid_index, second.grid_index))
    between = pat.total[lo + 1 : hi]
    if between.size == 0:
        raise UndersampledGrid("no samples between adjacent primary maxima")
    return michelson(first.i_max, float(between.min()))


def aligned_phases(slits: SlitArray, coh: CoherenceMatrix) -> bool:
    """True when every nonzero entry of A = mutual_intensity(slits, coh) has
    |arctan2(Im A_ij, Re A_ij)| <= PHASE_TOL: every pair phase alpha_i -
    alpha_j + arg(g_ij) is a multiple of 2*pi, so all cosines peak together
    at x = 0.  The operational visibility then reproduces the analytic one
    only as far as extract_vc's 3-point parabola is exact at that peak: to
    rounding when x = 0 is a sample, but off by about 5e-4 at n=64 with an
    even sample count (see extract_vc)."""
    a_re, a_im = mutual_intensity(slits, coh)
    nonzero = (a_re != 0.0) | (a_im != 0.0)
    return bool(np.all(np.abs(np.arctan2(a_im[nonzero], a_re[nonzero])) <= PHASE_TOL))


def _is_number(cell: str) -> bool:
    """Whether np.loadtxt reads cell as a float: float() does, less the digit
    separators and non-ASCII digits that only float() accepts."""
    try:
        float(cell)
    except ValueError:
        return False
    return cell.isascii() and "_" not in cell


def _bad_row(path, numbers, rows) -> ValueError | None:
    """The error naming the file line of the first row that is not three
    numbers, or None when every row is."""
    for number, row in zip(numbers, rows):
        cells = row.split(",")
        if len(cells) != len(_CSV_COLUMNS):
            return ValueError(
                f"{path}: line {number}: expected {len(_CSV_COLUMNS)} columns, got {len(cells)}"
            )
        for column, cell in zip(_CSV_COLUMNS, cells):
            if not _is_number(cell):
                return ValueError(f"{path}: line {number}, column {column}: not a number {cell!r}")
    return None


def load_pattern_csv(path, n: int, fringe_width: float) -> InterferencePattern:
    """Re-import an `x,total,incoherent` CSV written by the engine.

    The caller supplies the slit count and the fringe width in metres,
    engine.fringe_width; a header `x_w` in place of `x` marks x in fringe
    widths and sets the fringe width to 1.0.  x is returned as written.  At
    least one data row must follow the header; every cell must be a finite
    number and x must strictly increase (NonIncreasingGrid otherwise).
    Errors name the line of the file, blank lines counted.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    metres, widths = _CSV_HEADERS
    if lines[:1] == [widths]:
        fringe_width = 1.0
    elif lines[:1] != [metres]:
        raise ValueError(f"{path}: first line is not the header {metres} or {widths}")
    # the file's line number of each data row: blank lines are skipped here
    # rather than by np.loadtxt, which would lose the count
    numbers, rows = [], []
    for number, line in enumerate(lines[1:], start=2):
        if line.strip():
            numbers.append(number)
            rows.append(line)
    if not rows:
        raise ValueError(f"{path}: no data rows after the header")
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError as exc:
        # numpy's message counts rows from 0 or 1 by cause and omits the file
        raise _bad_row(path, numbers, rows) or ValueError(f"{path}: {exc}") from exc
    if data.shape[1] != len(_CSV_COLUMNS):
        raise _bad_row(path, numbers, rows)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0].tolist()
        column = _CSV_COLUMNS[col]
        raise ValueError(
            f"{path}: line {numbers[row]}, column {column}: non-finite value {data[row, col]}"
        )
    x = data[:, 0]
    stalls = np.flatnonzero(~(x[1:] > x[:-1]))
    if stalls.size:
        row = int(stalls[0]) + 1
        raise NonIncreasingGrid(
            f"{path}: line {numbers[row]}: x {float(x[row])!r} does not exceed the "
            f"previous row's {float(x[row - 1])!r}"
        )
    return InterferencePattern(
        grid=x, total=data[:, 1], incoherent=data[:, 2], n=n, fringe_width=fringe_width
    )
