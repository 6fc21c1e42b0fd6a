"""The lockstep safeguarded Newton solver shared by the package's
inversions: the CSI threshold C_n and the QAM power root of the union
bound (bep_analysis), and the switch time t_n of the wobble ACF
(channel)."""

from typing import NamedTuple

import numpy as np

from .errors import DivergenceError

__all__ = ["LockstepRoots", "newton_lockstep"]

_MAX_ITER = 100  # of newton_lockstep


class LockstepRoots(NamedTuple):
    root: np.ndarray
    iterations: np.ndarray  # evaluations of u in each cell
    newton: np.ndarray  # True where the last step was Newton's


def newton_lockstep(uv, beta, x, lo, hi, tol,
                    ftol: float | None = None) -> LockstepRoots:
    """Solve u(x) = beta in every cell at once, for a positive u that falls
    in x, by safeguarded Newton on f(x) = ln u(x) - ln(beta).

    uv(cells, x) returns u and its slope -du/dx >= 0 at x for the cells
    indexed by `cells`. Each cell starts at x inside a bracket [lo, hi]
    with u(lo) > beta >= u(hi). Either end may be -inf or +inf, and u
    there is taken as its limit, never evaluated; an open bracket relies on
    Newton steps from a start near the root to close it. Every iteration
    evaluates u once, moves lo or hi to x by the sign of u - beta (ln could
    round it to 0), and takes the Newton step x + f u / (-du/dx) when it is
    finite and inside the bracket, but not onto its other end, else
    bisects: that end's side of the root is known, and where rounding noise
    in u sets the step, two steps onto the ends could cycle. Cells never
    mix: each keeps its own bracket, iterate and count, and all run in
    lockstep. tol is one tolerance for every cell, one per cell, or a
    function tol(cells, x) of the cells indexed by `cells` and their
    iterates, taken at each iteration. A cell is done:

    - without ftol, when it takes a Newton step of at most tol or its
      bracket is narrower than tol; its root is the iterate that step (or
      the bisection) gives;
    - with ftol, when its bracket is at most tol wide, or has no float
      between its ends, and |f(hi)| <= ftol; its root is hi, where
      u <= beta. To close the bracket, a Newton step
      shorter than s = min(tol, ftol / |f'|) / 2, or than one ulp of x
      where that is longer, becomes a step of s toward the root, on the
      side that u - beta gives (the Newton step is 0 where f = 0), so that
      the next evaluation lands across the root.

    Raises DivergenceError when a bracket can no longer be split (as when
    the Newton step is not finite and an end is still infinite), or after
    _MAX_ITER iterations. Its `cells` holds the indices of the cells that
    failed: those whose bracket can no longer be split, or every cell
    still unconverged after _MAX_ITER iterations.
    """
    x, lo, hi, beta = (np.array(a, dtype=np.float64) for a in
                       np.broadcast_arrays(x, lo, hi, beta))
    if not callable(tol):
        tol = np.broadcast_to(np.asarray(tol, dtype=np.float64), x.shape)
    ln_beta = np.log(beta)
    f_hi = np.full(x.shape, -np.inf)  # f(hi), once evaluated there
    iterations = np.zeros(x.shape, dtype=np.int64)
    newton = np.zeros(x.shape, dtype=bool)
    live = np.arange(x.size)
    for _ in range(_MAX_ITER):
        if not live.size:
            return LockstepRoots(x if ftol is None else hi, iterations,
                                 newton)
        xl = x[live]
        tol_l = tol(live, xl) if callable(tol) else tol[live]
        u, v = uv(live, xl)
        iterations[live] += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.log(u) - ln_beta[live]
            step = f * u / v
            # the closing step: at least one ulp, or it could round to none
            s = (np.fmax(0.5 * np.fmin(tol_l, ftol * u / v),
                         np.spacing(np.abs(xl))) if ftol else None)
        above = u > beta[live]  # the root lies above x
        lo[live[above]] = xl[above]
        hi[live[~above]] = xl[~above]
        if ftol:
            f_hi[live[~above]] = f[~above]
            lo_l, hi_l = lo[live], hi[live]
            # a bracket with no float inside it cannot narrow any further
            on = (((hi_l - lo_l > tol_l) & (np.nextafter(lo_l, hi_l) < hi_l))
                  | (-f_hi[live] > ftol))
            live, xl, step, s, above = (a[on] for a in
                                        (live, xl, step, s, above))
            step = np.where(np.abs(step) < s, np.where(above, s, -s), step)
        lo_l, hi_l = lo[live], hi[live]
        x_new = xl + step  # a non-finite one fails the bracket test
        if ftol:  # both ends are evaluated: land strictly inside
            ok = (lo_l < x_new) & (x_new < hi_l)
        else:  # x is one end; landing on the other, known end could cycle
            ok = ((lo_l <= x_new) & (x_new <= hi_l)
                  & (x_new != np.where(above, hi_l, lo_l)))
        mid = 0.5 * (lo_l + hi_l)
        x[live] = np.where(ok, x_new, mid)
        newton[live] = ok
        split = ok | ((lo_l < mid) & (mid < hi_l))
        if not ftol:
            done = np.where(ok, np.abs(step) <= tol_l, hi_l - lo_l < tol_l)
            live, split = live[~done], split[~done]
        if not split.all():
            raise DivergenceError("root bracket can no longer be split",
                                  cells=live[~split])
    raise DivergenceError(f"root not found in {_MAX_ITER} iterations",
                          cells=live)
