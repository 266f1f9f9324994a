"""Print the states the chromatic solver expands, for one copy of the package.

Counts only, no times, so the lines of two copies diff exactly:

- the pin sweep, seeds 40 and 41, and the wide sweep, seeds 40 to 45:
  150 graphs per seed, n in 6..11, edge probability 0.3, 0.5 or 0.7,
  demand 0..5 per vertex, as test_solver_state_count_is_pinned draws
  them; the total of ChromaticSolver.expanded over each sweep;
- two graphs whose chromatic number sits far above ceil(|w| / alpha), at
  50 and 300 times their base demand, under max_branches=10**5: the
  states expanded, or "exit 3" when the cap trips.

Usage: python .github/chromatic_states.py PACKAGE_DIR

PACKAGE_DIR is a multicolor package directory, such as src/multicolor,
in a checkout that also holds tests/util.py.  The package's parent
directory and the checkout's tests directory go first on sys.path, so
the solver and random_graph are read from that copy.
"""

import random
import sys
from pathlib import Path

package = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(package.parent), str(package.parent.parent / "tests")]

from multicolor import ResourceLimitExceeded  # noqa: E402
from multicolor.chromatic import ChromaticSolver  # noqa: E402
from util import graph_from_edges, random_graph  # noqa: E402

# (edges, base demand): a K4 of weight 7 at base, and a graph whose
# triangles outweigh ceil(|w| / alpha)
FAR = [
    ("01 02 04 05 06 13 14 16 24 26 36 45 46", (2, 2, 2, 2, 2, 2, 1)),
    ("02 03 05 14 23 25 45", (1, 1, 2, 2, 2, 2)),
]


def sweep(seeds):
    total = 0
    for seed in seeds:
        rng = random.Random(seed)
        for _ in range(150):
            n = rng.randint(6, 11)
            graph = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
            w = tuple(rng.randint(0, 5) for _ in range(n))
            solver = ChromaticSolver(graph, w)
            solver.solve(w)
            total += solver.expanded
    return total


print(f"{sweep((40, 41)):9d}  pin sweep states (seeds 40-41)")
print(f"{sweep(range(40, 46)):9d}  wide sweep states (seeds 40-45)")
for edges, base in FAR:
    n = len(base)
    graph = graph_from_edges(n, {(int(e[0]), int(e[1])) for e in edges.split()})
    for k in (50, 300):
        w = tuple(k * x for x in base)
        solver = ChromaticSolver(graph, w, max_branches=10**5)
        try:
            solver.solve(w)
            count = f"{solver.expanded:9d}"
        except ResourceLimitExceeded:
            count = f"{'exit 3':>9}"
        print(f"{count}  n={n} edges {edges} at {k}x {base}")
