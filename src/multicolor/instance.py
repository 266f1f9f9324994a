"""Graphs, list assignments, demand weights, and instance documents.

A problem instance is a simple undirected graph together with a per-vertex
finite set of allowed colors (the list assignment) and, optionally, a
per-vertex demand: how many distinct colors that vertex must receive.

Vertices are named in the instance file; their file order is canonical and
fixes coordinate i of every demand vector.  A set of vertices, such as the
vertices whose list holds one color or a maximal independent set, is an int
mask with vertex i at bit n-1-i, so masks order as the indicator vectors of
their sets do.  This is the one representation of a vertex set in the
package; vertices_of lists a mask's vertices and spread widens it into
packed fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import InstanceFormatError
from .vectors import Vec

Lists = tuple[frozenset[int], ...]


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph.

    Attributes:
        names: vertex names in canonical order; fixes the dimension of
            every vector.
        edges: edges, each a pair (i, j) with i < j.
    """

    names: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def n(self) -> int:
        """Dimension of the vector space: the number of vertices."""
        return len(self.names)

    @property
    def members(self) -> range:
        """Indices of all vertices; every graph holds all the vertices it names."""
        return range(self.n)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Per vertex, the mask of its neighbors, vertex v at bit n-1-v."""
        top = self.n - 1
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i] |= 1 << (top - j)
            adj[j] |= 1 << (top - i)
        return tuple(adj)

    @staticmethod
    def build(names: tuple[str, ...], edges: set[tuple[int, int]]) -> "Graph":
        """Graph on the named vertices; edges given as index pairs."""
        n = len(names)
        normalized = set()
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise InstanceFormatError(f"edge ({i},{j}) out of range")
            if i == j:
                raise InstanceFormatError(f"self-loop at vertex {names[i]!r}")
            normalized.add((min(i, j), max(i, j)))
        return Graph(names=names, edges=frozenset(normalized))


@dataclass(frozen=True)
class Instance:
    """A graph with its list assignment and optional demand weights."""

    graph: Graph
    lists: Lists
    weights: Vec | None = None

    @property
    def n(self) -> int:
        return self.graph.n

    def require_weights(self) -> Vec:
        if self.weights is None:
            raise InstanceFormatError("instance has no weights")
        return self.weights

    def with_weights(self, weights: Vec) -> "Instance":
        if len(weights) != self.n:
            raise ValueError("weight vector has wrong dimension")
        return Instance(self.graph, self.lists, tuple(weights))


def all_colors(lists: Lists) -> tuple[int, ...]:
    """Union of all per-vertex color sets, ascending (fixes iteration order)."""
    colors: set[int] = set()
    for s in lists:
        colors |= s
    return tuple(sorted(colors))


def color_masks(lists: Lists) -> dict[int, int]:
    """Per color, ascending, the mask of the vertices whose list holds it."""
    top = len(lists) - 1
    masks: dict[int, int] = {}
    for v, colors in enumerate(lists):
        for c in colors:
            masks[c] = masks.get(c, 0) | 1 << (top - v)
    return dict(sorted(masks.items()))


def vertices_of(mask: int, n: int) -> list[int]:
    """The vertices of a mask on n vertices, ascending."""
    out = []
    while mask:
        top = mask.bit_length()
        out.append(n - top)
        mask ^= 1 << (top - 1)
    return out


def spread(mask: int, width: int) -> int:
    """The mask with bit b moved to bit b * width.

    On fields width bits wide, vertex v's bit n-1-v becomes the low bit of
    field n-1-v, so vertex 0 has the most significant field: the packed
    indicator vector of the set, coordinate 0 first, as the fold and the
    chromatic solver lay out demand vectors.
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (low.bit_length() - 1) * width
        mask ^= low
    return out


def uniform_lists(n: int, a: int) -> Lists:
    """The a-uniform assignment: every vertex may use colors 1..a."""
    palette = frozenset(range(1, a + 1))
    return (palette,) * n


# ---------------------------------------------------------------------------
# instance documents

def _index_of(names: tuple[str, ...]) -> dict[str, int]:
    return {name: i for i, name in enumerate(names)}


def _json_object(text: str, what: str) -> dict:
    """The JSON object in text; what names the document in error messages."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{what} must be a JSON object")
    return doc


def _color_lists(raw: dict, index: dict[str, int], where: str = "") -> Lists:
    """Per vertex, the colors that a name -> color-list object gives it.

    Vertices the object omits get no colors; where prefixes error messages.
    """
    per_vertex: list[frozenset[int]] = [frozenset()] * len(index)
    for name, colors in raw.items():
        if name not in index:
            raise InstanceFormatError(f"{where}list for unknown vertex {name!r}")
        if not isinstance(colors, list):
            raise InstanceFormatError(f"{where}list of {name!r} must be an array")
        for c in colors:
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise InstanceFormatError(
                    f"{where}color {c!r} of {name!r} is not a positive integer"
                )
        per_vertex[index[name]] = frozenset(colors)
    return tuple(per_vertex)


def parse_instance(text: str) -> Instance:
    """Parse the canonical JSON instance document.

    Expected shape::

        { "vertices": ["v1", "v2", ...],
          "edges":    [["v1", "v2"], ...],
          "lists":    {"v1": [1, 2], ...},
          "weights":  {"v1": 1, ...} }        # weights optional

    Vertices missing from "lists" get an empty list.  Vertices missing from a
    present "weights" object get demand 0.
    """
    doc = _json_object(text, "instance document")
    names_raw = doc.get("vertices")
    if not isinstance(names_raw, list) or not all(isinstance(v, str) for v in names_raw):
        raise InstanceFormatError('"vertices" must be a list of strings')
    if len(set(names_raw)) != len(names_raw):
        raise InstanceFormatError("duplicate vertex names")
    names = tuple(names_raw)
    index = _index_of(names)

    edges_raw = doc.get("edges", [])
    if not isinstance(edges_raw, list):
        raise InstanceFormatError('"edges" must be a list of vertex-name pairs')
    edges: set[tuple[int, int]] = set()
    for pair in edges_raw:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InstanceFormatError(f"malformed edge {pair!r}")
        u, v = pair
        if not (isinstance(u, str) and isinstance(v, str)):
            raise InstanceFormatError(f"malformed edge {pair!r}")
        if u not in index or v not in index:
            raise InstanceFormatError(f"edge {pair!r} references an unknown vertex")
        edges.add((index[u], index[v]))
    graph = Graph.build(names, edges)
    return Instance(graph, *_lists_and_weights(doc, index))


def _lists_and_weights(doc: dict, index: dict[str, int]) -> tuple[Lists, Vec | None]:
    """A document's "lists" and optional "weights", read as parse_instance does."""
    lists_raw = doc.get("lists", {})
    if not isinstance(lists_raw, dict):
        raise InstanceFormatError('"lists" must be an object')
    lists = _color_lists(lists_raw, index)

    weights: Vec | None = None
    if "weights" in doc and doc["weights"] is not None:
        weights_raw = doc["weights"]
        if not isinstance(weights_raw, dict):
            raise InstanceFormatError('"weights" must be an object')
        demand = [0] * len(index)
        for name, value in weights_raw.items():
            if name not in index:
                raise InstanceFormatError(f"weight for unknown vertex {name!r}")
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InstanceFormatError(f"weight {value!r} of {name!r} is not a non-negative integer")
            demand[index[name]] = value
        weights = tuple(demand)
    return lists, weights


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS .col graph (`p edge n m` header, `e u v` lines).

    Vertices are 1-based in the format and named "1".."n" here so a JSON
    sidecar can refer to them.  Duplicate edges are collapsed; comment (`c`)
    lines are skipped.

    Raises:
        InstanceFormatError: on a missing, repeated or malformed problem
            line, a negative vertex count, or a malformed edge line.
    """
    n = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise InstanceFormatError(f"line {lineno}: second problem line")
            if len(parts) < 4:
                raise InstanceFormatError(f"line {lineno}: malformed problem line")
            try:
                n = int(parts[2])
            except ValueError as exc:
                raise InstanceFormatError(f"line {lineno}: bad vertex count") from exc
            if n < 0:
                raise InstanceFormatError(f"line {lineno}: negative vertex count")
        elif parts[0] == "e":
            if n is None:
                raise InstanceFormatError(f"line {lineno}: edge before problem line")
            try:
                u, v = int(parts[1]), int(parts[2])
            except (IndexError, ValueError) as exc:
                raise InstanceFormatError(f"line {lineno}: malformed edge line") from exc
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceFormatError(f"line {lineno}: edge endpoint out of range")
            if u == v:
                raise InstanceFormatError(f"line {lineno}: self-loop at vertex {u}")
            edges.add((min(u, v) - 1, max(u, v) - 1))
    if n is None:
        raise InstanceFormatError("missing 'p edge n m' problem line")
    names = tuple(str(i) for i in range(1, n + 1))
    return Graph.build(names, edges)


def load_instance(path: str, sidecar: str | None = None) -> Instance:
    """Read an instance from a JSON document or a DIMACS .col file.

    A .col file carries only the graph; lists and weights may be supplied in
    a JSON sidecar of the shape {"lists": {...}, "weights": {...}} whose keys
    use the DIMACS vertex numbers as names ("1".."n").

    Raises:
        InstanceFormatError: if a sidecar is given with a JSON instance.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not path.endswith(".col"):
        if sidecar is not None:
            raise InstanceFormatError(f"a sidecar applies only to a .col instance, not {path}")
        return parse_instance(text)

    graph = parse_dimacs(text)
    extra: dict = {}
    if sidecar is not None:
        with open(sidecar, encoding="utf-8") as fh:
            extra = _json_object(fh.read(), "sidecar")
    return Instance(graph, *_lists_and_weights(extra, _index_of(graph.names)))


def load_precoloring(path: str, graph: Graph) -> Lists:
    """Read a precoloring: a JSON object mapping vertex names to color lists.

    It has the shape of an instance's "lists" object and is read the same
    way; vertices it omits get no colors.

    Raises:
        InstanceFormatError: naming the precoloring and the offending
            vertex or color.
    """
    with open(path, encoding="utf-8") as fh:
        doc = _json_object(fh.read(), "precoloring")
    return _color_lists(doc, _index_of(graph.names), "precoloring: ")
