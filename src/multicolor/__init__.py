"""List multicoloring of weighted graphs.

Each vertex of a graph carries a list of admissible colors and a demand:
how many distinct colors it must receive.  Adjacent vertices must receive
disjoint color sets.  This package decides which demand vectors are
satisfiable, builds and enumerates the colorings, computes the weighted
chromatic number under a uniform palette, finds the best partial service
for unsatisfiable demands, and extends existing colorings to larger
demands without recoloring.  A deliberately naive brute-force oracle
backs every solver for cross-checking.
"""

from .chromatic import ChromaticResult, weighted_chromatic
from .coloring import (
    Coloring,
    find_coloring,
    is_valid_coloring,
    iter_colorings,
    weight_of,
)
from .errors import (
    InstanceFormatError,
    NotPermissibleError,
    ResourceLimitExceeded,
)
from .extension import ExtensionResult, extend_coloring, wmax_constrained
from .instance import (
    Graph,
    Instance,
    load_instance,
    parse_dimacs,
    parse_instance,
    uniform_lists,
)
from .mis import enumerate_mis
from .oncall import oncall_solutions
from .oracle import (
    brute_all_colorings,
    brute_chromatic,
    brute_colorable,
    brute_nonrecolor_chi,
    brute_oncall,
)
from .vectors import Vec, in_hyperrectangle, prune_dominated
from .wmax import WmaxSet, is_permissible, wmax

__version__ = "0.1.0"

__all__ = [
    "ChromaticResult",
    "Coloring",
    "ExtensionResult",
    "Graph",
    "Instance",
    "InstanceFormatError",
    "NotPermissibleError",
    "ResourceLimitExceeded",
    "Vec",
    "WmaxSet",
    "brute_all_colorings",
    "brute_chromatic",
    "brute_colorable",
    "brute_nonrecolor_chi",
    "brute_oncall",
    "enumerate_mis",
    "extend_coloring",
    "find_coloring",
    "in_hyperrectangle",
    "is_permissible",
    "is_valid_coloring",
    "iter_colorings",
    "load_instance",
    "oncall_solutions",
    "parse_dimacs",
    "parse_instance",
    "prune_dominated",
    "uniform_lists",
    "weight_of",
    "weighted_chromatic",
    "wmax",
    "wmax_constrained",
]
