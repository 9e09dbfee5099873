"""Output checks that run on every pass, outside the timed region.

* the ``[PASS]``/``[FAIL]`` lines that ``--check`` prints;
* a byte-for-byte comparison of each pass's output files with the first
  pass of the same command;
* an independent certificate of every market clear: STACK's line flows are
  recomputed from its prices with the public ``aggregate_response``, and
  its leader cost is compared with that of SOCIAL's dual price, which is
  always a feasible leader price.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qenergydex.market import DEFAULT_TOL, aggregate_response


def count_check_lines(stdout: str) -> tuple[int, int]:
    """(passed, failed) assertions in the output of ``qenergydex --check``."""
    lines = stdout.splitlines()
    passed = sum(1 for line in lines if line.startswith("[PASS] "))
    failed = sum(1 for line in lines if line.startswith("[FAIL] "))
    return passed, failed


def digest_dir(path: Path) -> dict[str, str]:
    """SHA-256 of every file under ``path``, keyed by relative path."""
    return {
        str(f.relative_to(path)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.rglob("*"))
        if f.is_file()
    }


def compare_digests(reference: dict[str, str], current: dict[str, str]) -> tuple[int, int]:
    """(files compared, files that differ, are missing or are extra)."""
    names = reference.keys() | current.keys()
    return len(names), sum(1 for n in names if reference.get(n) != current.get(n))


def leader_cost(grid, u: np.ndarray) -> float:
    """The leader's cost 1/2 u'Qu + c'u of a price vector."""
    return 0.5 * float(grid.leader_q_diag @ (u * u)) + float(grid.leader_c @ u)


@dataclass(frozen=True)
class ClearCertificate:
    admitted: int
    admitted_key: str        # identifies the instance and the admitted set
    max_violation: float     # worst relative line overload of STACK's flows
    tol: float
    stack_cost: float
    social_cost: float

    @property
    def feasible(self) -> bool:
        return self.max_violation <= self.tol

    @property
    def cost_ratio(self) -> float:
        """STACK's leader cost over that of SOCIAL's price (1.0 when both are 0)."""
        if self.social_cost == 0.0:
            return 1.0 if self.stack_cost == 0.0 else float("inf")
        return self.stack_cost / self.social_cost


def certify_clear(grid, prosumers, keep: np.ndarray, outcomes: dict, tol: float) -> ClearCertificate:
    keep = np.asarray(keep, dtype=int)
    key = hashlib.sha256(
        grid.ptdf.tobytes() + grid.line_limits.tobytes() + keep.tobytes()
    ).hexdigest()[:16]
    if keep.size == 0:
        return ClearCertificate(0, key, 0.0, tol, 0.0, 0.0)
    h = grid.ptdf[:, keep]
    limits = grid.line_limits
    stack_u = np.asarray(outcomes["STACK"].u, dtype=float)
    flows = h @ aggregate_response([prosumers[i] for i in keep], stack_u, h)
    violation = float((np.maximum(0.0, flows - limits) / (1.0 + np.abs(limits))).max(initial=0.0))
    return ClearCertificate(
        admitted=int(keep.size),
        admitted_key=key,
        max_violation=violation,
        tol=tol,
        stack_cost=leader_cost(grid, stack_u),
        social_cost=leader_cost(grid, np.asarray(outcomes["SOCIAL"].u, dtype=float)),
    )


class ClearingCapture:
    """Keeps what ``security_coupled_clearing`` was given and returned.

    Its :meth:`on_return` is the ``on_return`` hook of a span target, so
    the capture costs one list append inside the timed pass; the
    certificates are computed afterwards by :meth:`certify`, without
    solving anything again.
    """

    def __init__(self) -> None:
        self._calls: list[tuple] = []

    def on_return(self, _span, args, kwargs, result) -> None:
        grid, prosumers = args[0], args[1]
        keep, outcomes = result
        self._calls.append((grid, prosumers, keep, outcomes, kwargs.get("tol", DEFAULT_TOL)))

    def certify(self) -> list[ClearCertificate]:
        """Certificates of the clears captured so far; forgets them."""
        calls, self._calls = self._calls, []
        return [certify_clear(*call) for call in calls]
