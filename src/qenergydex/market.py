"""Stackelberg-constrained bilateral market clearing.

Followers (prosumers) hold quadratic costs C_i(p) = p^2 / (2 alpha_i) and
respond to bus prices with the capped affine rule

    p_i(u) = clip( alpha_i (pi_i - (H^T u)_i), -p_max_i, +p_max_i ).

H is the lines x prosumers PTDF, but it has one column per bus: prosumer i
injects at bus b_i, so H = H_bus[:, b] and every product with H goes
through the buses (Schweppe, Caramanis, Tabors & Bohn, Spot Pricing of
Electricity, 1988: nodal prices). Prices are (H_bus^T u)[b], flows are
H_bus times the per-bus sums of the injections (`np.bincount`), and the
flow sensitivity H diag(w) H^T is H_bus diag(w summed per bus) H_bus^T
(`GridModel.prices`, `flows` and `sensitivity`). Responses stay per
prosumer, since each has its own cap kink; no solver forms H itself.

The leader picks line shadow prices u >= 0 minimizing its strictly convex
cost 0.5 u^T Q u + c^T u subject to the followers' induced line flows
H p(u) staying inside the thermal limits. The social-welfare benchmark is
solved through its Lagrangian dual with projected Newton steps (the dual
gradient is the line slack, with the capped response as the inner argmax).
The leader problem is nonconvex, but on each cap pattern (which followers
sit at +-p_max) the flows are affine in u and it is a convex QP; the
leader solver descends over cap patterns, one exact QP per step, checking
each step against the true capped response. Each QP is solved through its
NNLS dual by an in-house Lawson-Hanson active-set method (`_nnls`, numpy
only), warm-started from the constraints active at the QP before it, and
the first QP from SOCIAL's price pattern. The NNLS returns the least
squares on its final passive set, so where it starts changes its work,
not its result. SOCIAL's dual price is always a feasible leader price and
is one of its start points, so STACK never costs the leader more than
SOCIAL's price does.

Scenario set:

  SOCIAL  welfare maximum subject to caps and line limits,
  STACK   leader-follower equilibrium as above,
  BASE    congestion-blind response, uniformly rescaled onto the worst
          violated line,
  WBASE   congestion-blind response with welfare-aware curtailment
          (relief direction proportional to alpha_i H_bi, the least
          welfare-loss direction in the 1/alpha metric), rescaled the same
          way when targeted relief is insufficient; of it and BASE the
          better one is kept, so WBASE never does worse than BASE.

BASE and WBASE come from one congestion-blind pass (`solve_base`). Every
scenario's `feasible` is one rule: `GridModel.overload` of its line flows,
the worst overload relative to 1 + |limit|, is at most the clear's tol
(`DEFAULT_TOL` for BASE and WBASE, which take no tol).

Security coupling: a node participates when its sampled handshake latency
meets the deadline and the cumulative key cost fits the entropy budget
(admission in index order); clearing then runs on the admitted subset.
Clears are memoized per instance by admitted set, in a dict the caller
creates and passes to each `security_coupled_clearing` call on that
instance: `cmd_market` keeps one per run, so its two stacks share one clear
when they admit the same nodes. Outcome arrays are read-only, since one
outcome can then serve both stacks.

Followers are one structured array of dtype `PROSUMER` (f8 `alpha`, `pi`,
`p_max`, i8 `bus`). `_draw_prosumers` draws the four fields prosumer by
prosumer in that order, so a seed keeps its instance and every output byte.
A structured array, not four arrays: an integer index gives one prosumer
(the record `follower_response` takes), `prosumers[keep]` is the admitted
subset, and a list of records turns back into the array with
`np.asarray(records, dtype=PROSUMER)`, as every entry point does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .rng import substream

__all__ = [
    "PROSUMER",
    "GridModel",
    "MarketOutcome",
    "NoConvergence",
    "follower_response",
    "aggregate_response",
    "grid_response",
    "welfare",
    "leader_cost",
    "solve_social",
    "solve_stackelberg",
    "solve_base",
    "security_coupled_clearing",
    "random_instance",
    "synthetic_grid_instance",
    "SCENARIOS",
]

SCENARIOS = ("SOCIAL", "STACK", "BASE", "WBASE")
DEFAULT_TOL = 1e-6
_NEWTON_STEPS = 400             # projected Newton steps of solve_social
_QP_STEPS_PER_START = 100_000   # bounds solve_stackelberg's descent from each start
_NNLS_SOLVES_PER_COLUMN = 3     # _nnls gives up after 3n least-squares solves, as scipy's nnls


class NoConvergence(RuntimeError):
    """Iteration cap reached before the tolerance was met."""


PROSUMER = np.dtype([("alpha", "f8"), ("pi", "f8"), ("p_max", "f8"), ("bus", "i8")])


@dataclass(frozen=True)
class GridModel:
    """Shift factors by bus, each prosumer's bus, line limits and the leader's cost.

    `bus_ptdf` is the lines x buses PTDF and `bus` the integer map from
    prosumer to bus column: prosumer i injects at column `bus[i]`. A map
    that is not a 1-D integer array, or has an entry outside
    [0, n_buses), is refused. `ptdf`, the lines x prosumers matrix
    `bus_ptdf[:, bus]`, is formed each time it is read, for oracles; the
    solvers go through `prices`, `flows` and `sensitivity` instead.
    `restrict` subsets the map and shares `bus_ptdf`.
    """

    bus_ptdf: np.ndarray
    bus: np.ndarray
    line_limits: np.ndarray
    leader_q_diag: np.ndarray
    leader_c: np.ndarray

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.bus_ptdf, dtype=float))
        bus = np.asarray(self.bus)
        if bus.ndim != 1 or not np.issubdtype(bus.dtype, np.integer):
            raise ValueError("bus must be a 1-D integer array")
        if ((bus < 0) | (bus >= h.shape[1])).any():
            raise ValueError(f"bus entries must lie in [0, {h.shape[1]})")
        limits = np.asarray(self.line_limits, dtype=float)
        q = np.asarray(self.leader_q_diag, dtype=float)
        c = np.asarray(self.leader_c, dtype=float)
        object.__setattr__(self, "bus_ptdf", h)
        object.__setattr__(self, "bus", np.ascontiguousarray(bus, dtype=np.intp))
        object.__setattr__(self, "line_limits", limits)
        object.__setattr__(self, "leader_q_diag", q)
        object.__setattr__(self, "leader_c", c)
        for name, v in (("line_limits", limits), ("leader_q_diag", q), ("leader_c", c)):
            if v.shape != (h.shape[0],):
                raise ValueError(f"{name} must have one entry per line")
        if not np.isfinite(h).all():
            raise ValueError("bus_ptdf entries must be finite")
        if not (np.isfinite(limits) & (limits > 0)).all():
            raise ValueError("line limits must be finite and positive")
        if not (np.isfinite(q) & (q > 0)).all():
            raise ValueError("leader cost must be finite and strictly convex (q > 0)")
        if not np.isfinite(c).all():
            raise ValueError("leader_c entries must be finite")

    @property
    def n_lines(self) -> int:
        return self.bus_ptdf.shape[0]

    @property
    def n_buses(self) -> int:
        return self.bus_ptdf.shape[1]

    @property
    def ptdf(self) -> np.ndarray:
        """The lines x prosumers PTDF H = bus_ptdf[:, bus], a new array each read."""
        return self.bus_ptdf[:, self.bus]

    def prices(self, u: np.ndarray) -> np.ndarray:
        """Each prosumer's congestion price (H^T u)_i: its bus's entry of H_bus^T u."""
        return (self.bus_ptdf.T @ u)[self.bus]

    def flows(self, p: np.ndarray) -> np.ndarray:
        """Line flows H p of the prosumers' injections p, summed per bus first."""
        return self.bus_ptdf @ np.bincount(self.bus, weights=p, minlength=self.n_buses)

    def sensitivity(self, w: np.ndarray) -> np.ndarray:
        """H diag(w) H^T for per-prosumer weights w, summed per bus first."""
        w_bus = np.bincount(self.bus, weights=w, minlength=self.n_buses)
        return (self.bus_ptdf * w_bus) @ self.bus_ptdf.T

    def overload(self, flows: np.ndarray) -> float:
        """The worst line overload max(0, flow - limit) / (1 + |limit|) of
        line flows ``flows``; 0 when no line is over its limit."""
        limits = self.line_limits
        return float((np.maximum(0.0, flows - limits) / (1.0 + np.abs(limits))).max(initial=0.0))

    def restrict(self, keep: np.ndarray) -> "GridModel":
        """Grid of the prosumers ``keep``: their map entries, the same bus PTDF."""
        return replace(self, bus=self.bus[keep])


@dataclass(frozen=True)
class MarketOutcome:
    """One scenario's clearing; `u` and `p` are read-only views."""

    u: np.ndarray
    p: np.ndarray
    welfare: float
    scenario: str
    feasible: bool
    iterations: int = 0
    kkt_residual: float = 0.0

    def __post_init__(self):
        for name in ("u", "p"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)


def _records(prosumers) -> np.ndarray:
    """The followers as a `PROSUMER` array: alpha, p_max > 0 and alpha, pi, p_max finite."""
    prosumers = np.asarray(prosumers, dtype=PROSUMER)
    if not (prosumers["alpha"] > 0).all():
        raise ValueError("alpha must be positive")
    if not (prosumers["p_max"] > 0).all():
        raise ValueError("p_max must be positive")
    for name in ("alpha", "pi", "p_max"):
        if not np.isfinite(prosumers[name]).all():
            raise ValueError(f"{name} must be finite")
    return prosumers


def _vectors(prosumers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of the followers' alpha, pi and p_max, checked by `_records`."""
    prosumers = _records(prosumers)
    return prosumers["alpha"], prosumers["pi"], prosumers["p_max"]


def _response(alpha, pi, pmax, price):
    """Capped responses clip(alpha (pi - price), +-p_max) of stacked followers."""
    return np.clip(alpha * (pi - price), -pmax, pmax)


def follower_response(prosumer: np.void, u: np.ndarray, h_column: np.ndarray) -> float:
    """Capped best response clip(alpha (pi - u . H_col), +-p_max) of one `PROSUMER` record."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if (u < 0).any():
        raise ValueError("prices must be non-negative")
    raw = prosumer["alpha"] * (prosumer["pi"] - float(np.dot(u, np.atleast_1d(h_column))))
    return float(np.clip(raw, -prosumer["p_max"], prosumer["p_max"]))


def aggregate_response(prosumers: np.ndarray, u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Stacked follower responses to line prices u through a prosumer-space
    PTDF h (lines x prosumers, such as `GridModel.ptdf`); equals
    diag(alpha)(pi - H^T u) when no cap binds. An oracle: `grid_response`
    gives the same through the buses."""
    alpha, pi, pmax = _vectors(prosumers)
    h = np.atleast_2d(np.asarray(h, dtype=float))
    return _response(alpha, pi, pmax, h.T @ np.atleast_1d(u))


def grid_response(grid: GridModel, prosumers: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Stacked follower responses to line prices u, each at its bus's price."""
    alpha, pi, pmax = _vectors(prosumers)
    return _response(alpha, pi, pmax, grid.prices(np.atleast_1d(u)))


def welfare(prosumers: np.ndarray, p: np.ndarray) -> float:
    """Social welfare sum(pi_i p_i - p_i^2 / (2 alpha_i))."""
    alpha, pi, _ = _vectors(prosumers)
    return _welfare(alpha, pi, np.asarray(p, dtype=float))


def _welfare(alpha, pi, p) -> float:
    """``welfare`` over the stacked prosumer arrays the solvers hold."""
    return float(np.sum(pi * p - p * p / (2.0 * alpha)))


def leader_cost(grid: GridModel, u: np.ndarray) -> float:
    """The leader's cost 0.5 u^T Q u + c^T u of a price vector."""
    u = np.asarray(u, dtype=float)
    return 0.5 * float(grid.leader_q_diag @ (u * u)) + float(grid.leader_c @ u)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _kkt_residual_social(grid, u, flows) -> float:
    """The larger of the worst line overload and the worst complementary
    slackness u (limit - flow), each relative to 1 + |limit|."""
    limits = grid.line_limits
    slack = np.maximum(0.0, limits - flows)
    cs = (u * slack) / ((1.0 + np.abs(limits)) * (1.0 + np.abs(u)))
    return max(grid.overload(flows), float(cs.max(initial=0.0)))


def solve_social(
    grid: GridModel,
    prosumers: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> MarketOutcome:
    """Welfare maximum under caps and line limits, via the projected dual.

    The dual function g(u) = max_p [W(p) - u.(Hp - limits)] has the capped
    response as inner argmax and gradient limits - H p(u); it is minimized
    over u >= 0 from u = 0 with at most ``_NEWTON_STEPS`` projected Newton
    steps (the dual Hessian is the line-flow sensitivity of the active
    prosumers) guarded by Armijo backtracking on the dual value.

    Each Newton direction is a descent direction. On the free lines it is
    d = -S^-1 g with S = M + ridge I, where M = H diag(act alpha) H^T, with
    act the 0/1 indicator of the prosumers inside their caps, is positive
    semidefinite (act >= 0, alpha > 0) and ridge > 0, so S is
    symmetric positive definite: the solve cannot fail, and the slope
    g.d = -g^T S^-1 g is negative unless g = 0 on the free lines, when d
    is 0. Capping |d| scales it by a positive factor and keeps that sign.
    """
    alpha, pi, pmax = _vectors(prosumers)
    limits = grid.line_limits

    def g_val(u):
        p = _response(alpha, pi, pmax, grid.prices(u))
        return _welfare(alpha, pi, p) - float(u @ (grid.flows(p) - limits))

    u = np.zeros(grid.n_lines)
    g_u = g_val(u)
    iterations = 0
    residual = math.inf
    for iterations in range(1, _NEWTON_STEPS + 1):
        raw = alpha * (pi - grid.prices(u))
        flows = grid.flows(np.clip(raw, -pmax, pmax))
        residual = _kkt_residual_social(grid, u, flows)
        if residual <= tol:
            break
        grad = limits - flows
        m = grid.sensitivity((np.abs(raw) < pmax) * alpha)
        ridge = 1e-10 * (1.0 + float(np.trace(m)) / len(limits))
        free = (u > 0) | (grad < 0)
        d = np.zeros_like(u)
        idx = np.nonzero(free)[0]
        if idx.size == 0:
            break
        # symmetric positive definite (see the docstring), so the solve
        # succeeds and d is a descent direction
        sub = m[np.ix_(idx, idx)] + ridge * np.eye(idx.size)
        d[idx] = np.linalg.solve(sub, -grad[idx])
        cap = 1e3 * (1.0 + float(np.abs(u).max()))
        dmax = float(np.abs(d).max(initial=0.0))
        if dmax > cap:
            d *= cap / dmax
        slope = float(grad @ d)
        t_step = 1.0
        accepted = False
        for _bt in range(60):
            u_try = np.maximum(0.0, u + t_step * d)
            g_try = g_val(u_try)
            if g_try <= g_u + 1e-4 * t_step * slope + 1e-15:
                accepted = True
                break
            t_step *= 0.5
        if not accepted:
            break
        u, g_u = u_try, g_try
    p = _response(alpha, pi, pmax, grid.prices(u))
    flows = grid.flows(p)
    residual = _kkt_residual_social(grid, u, flows)
    if residual > tol:
        raise NoConvergence(f"social solver residual {residual:.2e} after {iterations} iterations")
    return MarketOutcome(
        u=u,
        p=p,
        welfare=_welfare(alpha, pi, p),
        scenario="SOCIAL",
        feasible=grid.overload(flows) <= tol,
        iterations=iterations,
        kkt_residual=residual,
    )


_RAY_KAPPAS = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 36)))


def _uniform_price_ray(grid, alpha, pi, pmax):
    """Yield (u, line flows) at each probe price u = kappa * 1 of the uniform-price ray."""
    for kappa in _RAY_KAPPAS:
        u = np.full(grid.n_lines, kappa)
        yield u, grid.flows(_response(alpha, pi, pmax, grid.prices(u)))


def _nnls(a, b, passive):
    """argmin |a z - b| over z >= 0, by Lawson & Hanson's active-set method.

    Lawson & Hanson, Solving Least Squares Problems (1974), ch. 23: the
    column with the largest positive gradient w = a^T (b - a z) joins the
    passive set P, unless the least squares on P then gives it a
    nonpositive weight (their independence test); a step back into z >= 0
    drops the columns that reach zero. Each least squares on P is solved
    from the Gram submatrix a_P^T a_P (Bro & De Jong, J. Chemometrics 11,
    1997) and corrected once from its residual (Bjorck, Numerical Methods
    for Least Squares Problems, 1996, 2.2.4). The residual then agrees
    with a QR solve's to rounding on well-conditioned passive sets, such as
    the leader QPs' (cond(a_P) near 20); on nearly dependent columns
    (cond(a_P) of 1e5 and more) it can end above scipy's.

    `passive` (a column mask) warm-starts the method: the least squares on
    that set, re-solved with its nonpositive entries dropped until the rest
    are positive, is a feasible start; the empty set is a cold start. A set
    whose Gram submatrix is not clearly positive definite is replaced by
    the empty set; otherwise that Gram serves the first least squares. The
    result is the least squares on the final passive set, so a warm start
    saves solves without moving it. Raises NoConvergence after 3n
    least-squares solves, the cap of scipy.optimize.nnls.
    """
    n = a.shape[1]
    max_iter = _NNLS_SOLVES_PER_COLUMN * n
    # gradients below this are rounding (Bro & De Jong's tolerance, scaled by |b|)
    tol = 10 * np.finfo(float).eps * max(a.shape) * np.linalg.norm(a, axis=0).max()
    tol *= np.linalg.norm(b)
    solves = 0

    def lstsq(p, gram=None):
        """The least squares on the columns p; `gram`, if given, is a_p^T a_p."""
        nonlocal solves
        solves += 1
        if solves > max_iter:
            raise NoConvergence(f"NNLS not solved in {max_iter} iterations")
        s = np.zeros(n)
        ap = a[:, p]
        if gram is None:
            gram = ap.T @ ap
        s[p] = np.linalg.solve(gram, ap.T @ b)
        s[p] += np.linalg.solve(gram, ap.T @ (b - ap @ s[p]))
        return s

    p = np.zeros(n, dtype=bool)
    gram = None
    if passive.any():
        # a squared Cholesky pivot is the squared distance of its column
        # from the span of the columns before it
        ap = a[:, passive]
        gram = ap.T @ ap
        try:
            if (np.diag(np.linalg.cholesky(gram)) ** 2 > 1e-8 * np.diag(gram)).all():
                p = passive.copy()
        except np.linalg.LinAlgError:
            pass
    x = np.zeros(n)
    while p.any():
        s = lstsq(p, gram)                   # the first solve takes the check's Gram
        gram = None
        if (s[p] > 0).all():
            x = s
            break
        p &= s > 0
    w = a.T @ (b - a @ x)
    while True:
        w[p] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            return x
        p[j] = True
        s = lstsq(p)
        if s[j] <= 0:                        # the independence test
            p[j], w[j] = False, -np.inf
            continue
        while (s[p] <= 0).any():             # step back to z >= 0, drop the zeros
            neg = np.flatnonzero(p & (s <= 0))
            ratio = x[neg] / (x[neg] - s[neg])
            k = np.argmin(ratio)
            x += ratio[k] * (s - x)
            x[neg[k]] = 0.0
            p &= x > 0
            x[~p] = 0.0
            s = lstsq(p)
        x = s
        w = a.T @ (b - a @ x)


def _leader_qp(m, b, q, c, passive):
    """min 0.5 u^T diag(q) u + c^T u  s.t.  m u >= b, u >= 0 (must be feasible).

    With w = sqrt(q) u + c / sqrt(q) the objective is |w|^2 / 2 plus a
    constant and the constraints stay linear, E w >= f. That least-distance
    problem is solved through its NNLS dual (Lawson & Hanson, Solving Least
    Squares Problems, 1974, ch. 23): minimize |[E^T; f^T] z - e_last| over
    z >= 0 with `_nnls`; with residual r, w = -r[:-1] / r[-1]. The NNLS
    residual is unique, so the QP point is unique up to rounding, whatever
    the dual z and however the NNLS is started.

    The NNLS matrix is written from its blocks, one column per kept row of
    [m; I] / sqrt(q): the normalized rows of m / sqrt(q), exact unit
    columns for the u >= 0 rows (such a row's norm is 1 / sqrt(q_j)), and
    f over the same norms in the last row. It is held in Fortran order, as
    the memory order of the matrix moves the descent at rounding level.

    `passive` marks the rows of [m; I] to warm-start the NNLS from, such
    as those whose multipliers z were positive in an earlier QP. Returns
    the point and the mask of this QP's positive multipliers.
    """
    n = len(q)
    rq = np.sqrt(q)
    inv = 1.0 / rq                   # row j of I / sqrt(q) holds inv[j] alone: its norm
    e = m / rq
    norms = np.linalg.norm(e, axis=1)
    # rows of lines no free follower loads read 0 >= f, which the caller's
    # feasible point already satisfies; drop them and normalize the rest
    floor = 1e-12 * max(norms.max(), inv.max())
    rows = np.concatenate((norms > floor, inv > floor))
    lines, bounds = np.flatnonzero(rows[:n]), np.flatnonzero(rows[n:])
    k = len(lines)
    # row i of `at` is column i of a: the i-th kept row of [m; I] / sqrt(q)
    # and its entry of f, both over that row's norm
    at = np.zeros((k + len(bounds), n + 1))
    np.divide(e[lines], norms[lines, None], out=at[:k, :n])
    at[k + np.arange(len(bounds)), bounds] = 1.0
    cq = c / q
    at[:k, n] = (b + m @ cq)[lines] / norms[lines]
    at[k:, n] = cq[bounds] / inv[bounds]
    a = at.T
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    z = _nnls(a, rhs, passive[rows])
    r = a @ z - rhs
    w = -r[:-1] / r[-1]
    active = np.zeros_like(rows)
    active[rows] = z > 0
    return np.maximum(0.0, (w - c / rq) / rq), active


def solve_stackelberg(
    grid: GridModel,
    prosumers: np.ndarray,
    tol: float = DEFAULT_TOL,
    social: MarketOutcome | None = None,
) -> MarketOutcome:
    """Leader problem min C_grid(u) s.t. H p(u) <= limits, u >= 0.

    A descent over cap patterns. With the pattern of capped followers
    fixed, flows are f0 - M u with M = H_F diag(alpha_F) H_F^T over the
    free followers F (formed as H_bus diag(w) H_bus^T, w the free
    followers' alpha summed at each bus), and the leader problem on that
    piece is the convex QP min C_grid(u) s.t. M u >= f0 - limits, u >= 0
    (solved exactly by `_leader_qp`; lines already overloaded at the
    current price may not get worse). One NNLS warm start serves the whole
    call: the first QP starts from SOCIAL's price pattern (the rows of
    lines with a positive price, the bound rows of the others), and every
    later QP, the first of the second start included, from the constraints
    active at the QP before it. Each step solves the QP of the current
    piece, then walks the segment toward its solution under the true
    capped response and stops at the first line overload (flows are
    piecewise linear along the segment, so the crossing is located over
    the cap breakpoints and solved exactly). The cost is convex along the
    segment and no larger at its end, so it never increases; the next
    piece is the one the segment was in when it stopped. Steps repeat
    until the cost stops decreasing, at most `_QP_STEPS_PER_START` QP
    solves per start.

    Starts: SOCIAL's dual price (always feasible, p(u) is then the social
    optimum) and the cheapest feasible point of the uniform-price ray; the
    cheapest result is kept. `social`, `solve_social`'s outcome on the same
    instance and tol, saves solving SOCIAL again for the first start. The
    problem is nonconvex across patterns, so this certifies feasibility and
    the SOCIAL-price bound, not global optimality.

    `iterations` counts QP solves over all starts. `kkt_residual` is the
    primal part of the KKT residual: `GridModel.overload` of the returned
    prices' flows, recomputed from the capped response. `feasible` is that
    residual <= tol. Raises NoConvergence when `solve_social` does.
    """
    if social is None:
        social = solve_social(grid, prosumers, tol)
    alpha, pi, pmax = _vectors(prosumers)
    limits = grid.line_limits
    q = grid.leader_q_diag
    c = grid.leader_c
    scale = 1.0 + np.abs(limits)

    def first_overload(raw, draw, bound):
        """(t, piece): how far along raw + t draw, t in [0, 1], flows stay
        under bound, and the responses of the piece where they stop."""
        def flows_at(t):
            return grid.flows(np.clip(raw + t * draw, -pmax, pmax))

        def over(flows):
            return bool((flows > bound + 1e-12 * scale).any())

        f_hi = flows_at(1.0)
        if not over(f_hi):
            return 1.0, raw + draw
        with np.errstate(divide="ignore", invalid="ignore"):
            kinks = np.concatenate(((pmax - raw) / draw, (-pmax - raw) / draw))
        ts = np.concatenate(([0.0], np.unique(kinks[(kinks > 0.0) & (kinks < 1.0)]), [1.0]))
        lo, hi = 0, len(ts) - 1
        f_lo = flows_at(0.0)
        while hi - lo > 1:                   # keep: flows at ts[lo] fit, at ts[hi] not
            mid = (lo + hi) // 2
            f_mid = flows_at(ts[mid])
            if over(f_mid):
                hi, f_hi = mid, f_mid
            else:
                lo, f_lo = mid, f_mid
        rise = f_hi - f_lo                   # flows are affine between adjacent kinks
        up = rise > 0
        frac = min(1.0, max(0.0, float(np.min((bound[up] - f_lo[up]) / rise[up], initial=1.0))))
        return ts[lo] + frac * (ts[hi] - ts[lo]), raw + 0.5 * (ts[lo] + ts[hi]) * draw

    # the NNLS warm start, rows of [M; I]: SOCIAL's price pattern, then the
    # constraints active at the QP before, across starts
    passive = np.concatenate((social.u > 0, social.u <= 0))

    def descend(u):
        nonlocal passive
        cost = leader_cost(grid, u)
        raw = alpha * (pi - grid.prices(u))
        piece = raw
        iters = 0
        while iters < _QP_STEPS_PER_START:
            iters += 1
            free = np.abs(piece) < pmax
            f0 = grid.flows(np.where(free, alpha * pi, np.clip(piece, -pmax, pmax)))
            m = grid.sensitivity(np.where(free, alpha, 0.0))
            u_qp, passive = _leader_qp(m, np.minimum(f0 - limits, m @ u), q, c, passive)
            if leader_cost(grid, u_qp) >= cost - 1e-12 * (1.0 + abs(cost)):
                break
            draw = -alpha * grid.prices(u_qp - u)
            flows = grid.flows(np.clip(raw, -pmax, pmax))
            t, piece = first_overload(raw, draw, np.maximum(limits, flows))
            u_next = u + t * (u_qp - u)
            cost_next = leader_cost(grid, u_next)
            if cost_next >= cost - 1e-12 * (1.0 + abs(cost)):
                break
            u, cost = u_next, cost_next
            raw = alpha * (pi - grid.prices(u))
        return u, cost, iters

    starts = [social.u]
    ray = [u for u, flows in _uniform_price_ray(grid, alpha, pi, pmax)
           if grid.overload(flows) <= tol]
    if ray:
        starts.append(min(ray, key=lambda u: leader_cost(grid, u)))
    best_cost, u, total_iters = math.inf, starts[0], 0
    for start in starts:
        u_k, cost_k, used = descend(start)
        total_iters += used
        if cost_k < best_cost:
            best_cost, u = cost_k, u_k
    p = _response(alpha, pi, pmax, grid.prices(u))
    residual = grid.overload(grid.flows(p))
    return MarketOutcome(
        u=u,
        p=p,
        welfare=_welfare(alpha, pi, p),
        scenario="STACK",
        feasible=residual <= tol,
        iterations=total_iters,
        kkt_residual=residual,
    )


def _rescale(p, flows, limits):
    """p scaled by the one factor that makes its worst violated line exactly binding."""
    over = flows > limits
    if not over.any():
        return p
    return float(np.min(limits[over] / flows[over])) * p


def solve_base(grid: GridModel, prosumers: np.ndarray) -> tuple[MarketOutcome, MarketOutcome]:
    """Congestion-blind clearing with after-the-fact feasibility repair: (BASE, WBASE).

    Both start from one congestion-blind dispatch and its line flows. BASE
    rescales every injection by the single factor that makes the worst
    violated line exactly binding. WBASE first curtails along the least
    welfare-loss direction for the worst line (proportional to
    alpha_i H_bi), re-clips, rescales the same way if violations remain,
    and is BASE instead when that yields less welfare. `feasible` is
    `GridModel.overload` of the returned dispatch's flows <= `DEFAULT_TOL`.
    """
    alpha, pi, pmax = _vectors(prosumers)
    limits = grid.line_limits
    p0 = np.clip(alpha * pi, -pmax, pmax)
    flows0 = grid.flows(p0)
    p_base = p_wbase = _rescale(p0, flows0, limits)
    worst = int(np.argmax(flows0 - limits))
    if flows0[worst] > limits[worst]:
        row = grid.bus_ptdf[worst, grid.bus]     # the worst line's row of H
        need = flows0[worst] - limits[worst]
        # denom > 0: the worst line is violated, so row @ p0 = flows0[worst]
        # > limits[worst] > 0 and row has a nonzero entry; every alpha > 0
        denom = float(np.sum(alpha * row * row))
        relief = need * (alpha * row) / denom
        p_targeted = np.clip(p0 - relief, -pmax, pmax)
        # a no-op when the targeted relief sufficed
        p_targeted = _rescale(p_targeted, grid.flows(p_targeted), limits)
        if _welfare(alpha, pi, p_targeted) >= _welfare(alpha, pi, p_base):
            p_wbase = p_targeted
    u = np.zeros(grid.n_lines)
    return tuple(
        MarketOutcome(u=u, p=p, welfare=_welfare(alpha, pi, p), scenario=scenario,
                      feasible=grid.overload(grid.flows(p)) <= DEFAULT_TOL)
        for scenario, p in (("BASE", p_base), ("WBASE", p_wbase))
    )


def clear_all_scenarios(
    grid: GridModel, prosumers: np.ndarray, tol: float = DEFAULT_TOL
) -> dict[str, MarketOutcome]:
    social = solve_social(grid, prosumers, tol)
    stack = solve_stackelberg(grid, prosumers, tol, social=social)
    base, wbase = solve_base(grid, prosumers)
    return {"SOCIAL": social, "STACK": stack, "BASE": base, "WBASE": wbase}


# ---------------------------------------------------------------------------
# security-coupled participation
# ---------------------------------------------------------------------------


def security_coupled_clearing(
    grid: GridModel,
    prosumers: np.ndarray,
    key_budget_bits: float,
    handshake_deadline_ms: float,
    qsah_latencies: np.ndarray,
    per_node_key_cost_bits: float,
    tol: float = DEFAULT_TOL,
    clears: dict[bytes, dict[str, MarketOutcome]] | None = None,
) -> tuple[np.ndarray, dict[str, MarketOutcome]]:
    """Filter participants by security constraints, then clear all scenarios.

    Node i is admitted, in index order, when its handshake latency
    ``qsah_latencies[i]`` meets the deadline and the cumulative key cost of
    admitted nodes stays inside the entropy budget; a latency count other
    than the prosumer count, a negative per-node cost, or a NaN budget or
    deadline raises ValueError; a NaN latency counts as late. The filter
    depends only on latency and key cost, never on the market data.
    ``keep`` holds the admitted indices in ascending order.

    `clears` memoizes the clears of one instance, keyed by the admitted
    indices' bytes (`keep.tobytes()`): an admitted set already in it is not
    cleared again, and its read-only outcomes come back in a new dict. The
    caller creates it and passes it only to calls with the same grid,
    prosumers and tol; without it every call clears.
    """
    prosumers = _records(prosumers)
    latencies = np.asarray(qsah_latencies, dtype=float)
    if len(latencies) != len(prosumers):
        raise ValueError(
            f"need one latency per prosumer, not {len(latencies)} for {len(prosumers)}"
        )
    if not per_node_key_cost_bits >= 0:
        raise ValueError("per-node key cost must be >= 0")
    if math.isnan(key_budget_bits) or math.isnan(handshake_deadline_ms):
        raise ValueError("the key budget and the handshake deadline must not be NaN")
    on_time = np.flatnonzero(latencies <= handshake_deadline_ms)
    # the cost of admitting the first k on-time nodes is k * cost, one
    # rounded product: at k = n it equals a budget of cost * n exactly, which
    # a running sum of fractional costs can overshoot. It never falls with
    # k, so the nodes that fit the budget are a prefix
    cost = np.arange(1, len(on_time) + 1) * float(per_node_key_cost_bits)
    keep = on_time[cost <= key_budget_bits]
    if keep.size == 0:
        u, p = np.zeros(grid.n_lines), np.zeros(0)
        return keep, {
            s: MarketOutcome(u=u, p=p, welfare=0.0, scenario=s, feasible=True) for s in SCENARIOS
        }
    if clears is None:
        clears = {}
    key = keep.tobytes()
    if key not in clears:
        clears[key] = clear_all_scenarios(grid.restrict(keep), prosumers[keep], tol)
    return keep, dict(clears[key])


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


def _draw_prosumers(rng, n_prosumers, alpha_sigma, p_max_mu, n_buses) -> np.ndarray:
    """Four scalar draws per prosumer, in this order: a lognormal cost
    slope, a normal valuation floored at 0.5, a lognormal capacity and a
    uniform bus."""
    draws = ((rng.lognormal(0.0, alpha_sigma), max(rng.normal(10.0, 2.0), 0.5),
              rng.lognormal(p_max_mu, 0.5), rng.integers(0, n_buses)) for _ in range(n_prosumers))
    return np.fromiter(draws, dtype=PROSUMER, count=n_prosumers)


def _sparse_unit_rows(rng, shape, density) -> np.ndarray:
    """Standard normal entries, each kept with probability ``density``,
    every row scaled to unit norm."""
    m = rng.normal(0.0, 1.0, size=shape)
    m *= rng.random(size=shape) < density
    m /= np.maximum(np.linalg.norm(m, axis=1), 1e-9)[:, None]
    return m


def _ensure_price_reachable(limits, grid, alpha, pi, pmax) -> np.ndarray:
    """Raise limits just enough that some uniform price vector is feasible.

    The leader steers injections only through prices, so the reachable flow
    set may not contain every point that is feasible in injection space;
    probing a uniform-price ray and lifting the limits onto its best point
    guarantees the leader problem has a feasible point.
    """
    best = np.full(limits.shape, np.inf)
    for _u, flows in _uniform_price_ray(grid, alpha, pi, pmax):
        worst = np.maximum(flows - limits, 0.0).max()
        if worst < np.maximum(best - limits, 0.0).max():
            best = flows
    return np.maximum(limits, best * (1.0 + 1e-9) + 1e-12)


def _grid_with_limits(rng, bus_ptdf, bus, prosumers, floor_share, limit_lo, limit_hi) -> GridModel:
    """The grid over bus PTDF ``bus_ptdf`` and prosumer-to-bus map ``bus``:
    each line's limit is its congestion-blind flow times
    U(limit_lo, limit_hi), at least ``floor_share`` of the largest such flow
    (or of 1), then lifted by ``_ensure_price_reachable``; the leader's cost
    is |u|^2 / 2."""
    alpha, pi, pmax = _vectors(prosumers)
    n_lines = len(bus_ptdf)
    # unit limits until the drawn ones replace them
    grid = GridModel(bus_ptdf=bus_ptdf, bus=bus, line_limits=np.ones(n_lines),
                     leader_q_diag=np.ones(n_lines), leader_c=np.zeros(n_lines))
    flows0 = np.abs(grid.flows(np.clip(alpha * pi, -pmax, pmax)))
    floor = max(float(flows0.max()), 1.0) * floor_share
    limits = np.maximum(flows0 * rng.uniform(limit_lo, limit_hi, size=n_lines), floor)
    return replace(grid, line_limits=_ensure_price_reachable(limits, grid, alpha, pi, pmax))


def random_instance(
    n_prosumers: int,
    n_lines: int,
    seed: int,
    congestion: float = 0.75,
) -> tuple[GridModel, np.ndarray]:
    """Small random instance with a controllable share of binding lines.

    Each prosumer has its own PTDF column: the grid's map is the identity
    (the drawn ``bus`` field is not read)."""
    rng = substream(seed, "market", "instance")
    prosumers = _draw_prosumers(rng, n_prosumers, 0.4, 1.6, max(2, n_prosumers // 2))
    h = _sparse_unit_rows(rng, (n_lines, n_prosumers), 0.6)
    grid = _grid_with_limits(rng, h, np.arange(n_prosumers), prosumers, 0.05, congestion, 1.6)
    return grid, prosumers


def synthetic_grid_instance(
    n_prosumers: int = 3000,
    n_buses: int = 118,
    n_lines: int = 186,
    seed: int = 0,
) -> tuple[GridModel, np.ndarray]:
    """Transmission-scale synthetic instance: prosumers mapped to buses.

    The PTDF over buses is sparse zero-mean with unit row normalization;
    the grid maps each prosumer to its drawn bus. Valuations are
    normal, capacities lognormal. Each line's limit is its congestion-blind
    flow times U(0.85, 1.8), above a floor, so that a moderate share of
    lines binds.
    """
    rng = substream(seed, "market", "grid118")
    prosumers = _draw_prosumers(rng, n_prosumers, 0.3, 1.5, n_buses)
    bus_ptdf = _sparse_unit_rows(rng, (n_lines, n_buses), 0.25)
    return _grid_with_limits(rng, bus_ptdf, prosumers["bus"], prosumers, 0.02, 0.85, 1.8), prosumers
