"""The package's public surface: the names it exports and README's quick start."""

import contextlib
import io
import re
from pathlib import Path

import multicolor

README = Path(__file__).parent.parent / "README.md"


def test_the_exported_names_are_pinned():
    """A change to the public API edits this list and is declared."""
    assert sorted(multicolor.__all__) == [
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
    assert all(hasattr(multicolor, name) for name in multicolor.__all__)


def quick_start() -> tuple[str, list[str]]:
    """README's quick-start code and the output its comments state.

    A print's expected line is its own trailing comment, up to any
    "<-" note, or else the comment on the line after it.
    """
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = code.splitlines()
    expected = []
    for k, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        _, hash_, comment = line.partition("#")
        if not hash_:
            comment = lines[k + 1].removeprefix("#")
        expected.append(comment.partition("<-")[0].strip())
    return code, expected


def test_the_readme_quick_start_prints_what_its_comments_state():
    code, expected = quick_start()
    assert len(expected) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
