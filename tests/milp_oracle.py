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

Each is linear in x.
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
ORACLE_SPECS = tuple(_LINEAR)


def milp_minimum(g, name: str) -> tuple[int, tuple[int, ...]]:
    """Minimum cardinality of a nonempty set of variant ``name`` and one optimal set."""
    n = g.n
    adjacency = np.zeros((n, n))
    for v in range(n):
        for w in g.adjacency[v]:
            adjacency[v, w] = 1.0
    degree = adjacency.sum(axis=1)
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
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not result.success:
        raise AssertionError(f"MILP failed on {name}: {result.message}")
    members = tuple(int(v) for v in np.flatnonzero(np.round(result.x) == 1))
    return len(members), members
