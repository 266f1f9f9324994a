"""Growing a live assignment without touching what is deployed.

A triangle of transmitters already runs a two-channel plan.  Demand
then rises to one channel everywhere it was zero, and the deployed
assignment must not change.  The construction stacks fresh channels
above the existing band, and its palette is the smallest possible; the
exhaustive search of the brute-force oracle confirms it.
"""

from multicolor import Graph, brute_nonrecolor_chi, extend_coloring

TOWERS = ("t1", "t2", "t3")
TRIANGLE = {(0, 1), (1, 2), (0, 2)}
DEPLOYED = (frozenset({1}), frozenset({2}), frozenset())
BAND = 2
NEW_DEMAND = (1, 1, 1)


def main() -> None:
    graph = Graph.build(TOWERS, TRIANGLE)
    print("Deployed plan on channels 1..2:")
    for name, channels in zip(TOWERS, DEPLOYED):
        print(f"  {name}: {sorted(channels)}")

    result = extend_coloring(graph, BAND, DEPLOYED, NEW_DEMAND)
    print(f"\nNew demand {NEW_DEMAND} met with channels 1..{result.bound}:")
    for name, channels in zip(TOWERS, result.coloring):
        print(f"  {name}: {sorted(channels)}")

    exact = brute_nonrecolor_chi(graph, BAND, DEPLOYED, NEW_DEMAND)
    print(f"\nConstructed palette: {result.bound}")
    print(f"Exhaustive optimum: {exact}")
    if exact != result.bound:
        raise SystemExit("the construction missed the optimum")
    print("The construction is optimal.")


if __name__ == "__main__":
    main()
