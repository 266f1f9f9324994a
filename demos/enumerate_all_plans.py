"""Every valid frequency plan, not just one.

When a planner wants to weigh side constraints that the solver does not
model (hardware quirks, historical allocations), the cleanest tool is
the full stream of valid plans.  This script enumerates every coloring
of a three-node network.  The stream lists each plan exactly once, in
sorted order: by alpha's channels, then bravo's, then charlie's.
"""

from multicolor import Graph, Instance, iter_colorings

NODES = ("alpha", "bravo", "charlie")
EDGES = {(0, 1), (1, 2)}
LISTS = (frozenset({1, 2}), frozenset({1, 2, 3}), frozenset({2, 3}))
DEMAND = (1, 1, 1)


def describe(plan) -> str:
    return ", ".join(
        f"{name}={sorted(channels)}" for name, channels in zip(NODES, plan)
    )


def main() -> None:
    instance = Instance(Graph.build(NODES, EDGES), LISTS, DEMAND)
    plans = list(iter_colorings(instance))
    print(f"{len(plans)} valid plans for demand {DEMAND}:")
    for plan in plans:
        print(f"  {describe(plan)}")

    print("\nThe stream is lazy; taking just the first two:")
    stream = iter_colorings(instance)
    print(f"  {describe(next(stream))}")
    print(f"  {describe(next(stream))}")


if __name__ == "__main__":
    main()
