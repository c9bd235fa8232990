"""Integer-programming oracle: minimum alliance numbers via scipy's HiGHS MILP.

Independent of the package internals, like ``naive.py``: it reads only
``g.n`` and ``g.adjacency`` and writes each condition from the definitions.
With 0/1 membership x and in_v = sum of x over the neighbors of v:

  * member v of a defensive (or dual) alliance, in_v >= out_v - 1
    (strong: in_v >= out_v): 2*in_v >= (deg_v + s) * x_v, s = -1 or 0;
  * outsider v of a global offensive (or dual) alliance, in_v >= out_v + 1
    (strong: + 2): 2*in_v >= (deg_v + t) * (1 - x_v), t = 1 or 2;
  * outsider v of a global defensive alliance or a dominating set:
    in_v + x_v >= 1.

Each is linear in x. The boundary-only offensive variants ask the outsider
condition only of vertices with a member neighbor, so they add a 0/1
touched indicator y_v >= x_w for each neighbor w of v, and ask
2*in_v >= (deg_v + t) * (y_v - x_v): an untouched outsider may take
y_v = 0, a touched one may not, and for a member the right side is at
most 0.
"""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

# name -> (member slack s, outsider need t, dominating); None where no such condition
_LINEAR = {
    "defensive": (-1, None, False),
    "strong_defensive": (0, None, False),
    "global_defensive": (-1, None, True),
    "global_strong_defensive": (0, None, True),
    "global_offensive": (None, 1, False),
    "global_strong_offensive": (None, 2, False),
    "global_dual": (-1, 1, False),
    "global_strong_dual": (0, 2, False),
    "domination": (None, None, True),
}
# name -> outsider need t of a boundary vertex
_BOUNDARY = {"offensive": 1, "strong_offensive": 2}

ORACLE_SPECS = tuple(_LINEAR) + tuple(_BOUNDARY)


def milp_minimum(g, name: str) -> tuple[int, tuple[int, ...]]:
    """Minimum cardinality of a nonempty set of variant ``name`` and one optimal set."""
    n = g.n
    adjacency = np.zeros((n, n))
    for v in range(n):
        for w in g.adjacency[v]:
            adjacency[v, w] = 1.0
    degree = adjacency.sum(axis=1)
    if name in _BOUNDARY:
        # Variables (x, y): membership, then the touched indicator.
        scale = np.diag(degree + _BOUNDARY[name])
        rows, cols = np.nonzero(adjacency)
        touches = np.zeros((len(rows), 2 * n))  # y_v - x_w >= 0 for each edge vw
        touches[np.arange(len(rows)), n + rows] = 1.0
        touches[np.arange(len(rows)), cols] = -1.0
        cost = np.concatenate([np.ones(n), np.zeros(n)])
        constraints = [
            LinearConstraint(cost[None, :], lb=1),  # nonempty
            LinearConstraint(touches, lb=0),
            # 2*A x + diag(deg + t) (x - y) >= 0
            LinearConstraint(np.hstack([2 * adjacency + scale, -scale]), lb=0),
        ]
    else:
        slack, need, dominating = _LINEAR[name]
        cost = np.ones(n)
        constraints = [LinearConstraint(cost[None, :], lb=1)]  # nonempty
        if slack is not None:
            # 2*A x - diag(deg + s) x >= 0
            constraints.append(LinearConstraint(2 * adjacency - np.diag(degree + slack), lb=0))
        if need is not None:
            # 2*A x + diag(deg + t) x >= deg + t
            constraints.append(LinearConstraint(2 * adjacency + np.diag(degree + need), lb=degree + need))
        if dominating:
            # A x + x >= 1
            constraints.append(LinearConstraint(adjacency + np.eye(n), lb=1))
    result = milp(
        c=cost,
        constraints=constraints,
        integrality=np.ones(len(cost)),
        bounds=Bounds(0, 1),
    )
    if not result.success:
        raise AssertionError(f"MILP failed on {name}: {result.message}")
    members = tuple(int(v) for v in np.flatnonzero(np.round(result.x[:n]) == 1))
    return len(members), members
