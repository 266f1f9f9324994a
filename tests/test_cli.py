import json
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multicolor import cli
from multicolor.chromatic import ChromaticResult
from util import BAD_PRECOLORINGS, FIXTURES


class TestWmax:
    def test_prints_sorted_vectors(self, run_cli):
        proc = run_cli("wmax", "fix_p4.json")
        assert proc.returncode == 0
        assert proc.stdout == "[0, 1, 1, 0]\n[0, 2, 0, 1]\n[1, 0, 2, 0]\n[1, 1, 1, 1]\n"

    def test_prune_dominated_drops_covered_vectors(self, run_cli):
        proc = run_cli("wmax", "fix_p4.json", "--prune-dominated")
        assert proc.returncode == 0
        assert proc.stdout == "[0, 2, 0, 1]\n[1, 0, 2, 0]\n[1, 1, 1, 1]\n"

    def test_emit_certificates(self, run_cli):
        proc = run_cli("wmax", "fix_p3.json", "--emit-certificates")
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        assert lines[0] == {"vector": [0, 1, 1], "certificate": {"1": ["v2"], "2": ["v3"]}}
        assert [entry["vector"] for entry in lines] == [
            [0, 1, 1],
            [0, 2, 0],
            [1, 0, 1],
            [1, 1, 0],
        ]

    def test_emit_mis_precedes_vectors(self, run_cli):
        proc = run_cli("wmax", "fix_k2.json", "--emit-mis")
        assert proc.stdout == (
            '{"color": 1, "mis": ["v2"]}\n{"color": 1, "mis": ["v1"]}\n[0, 1]\n[1, 0]\n'
        )

    def test_emit_mis_prints_each_color_subgraph_family(self, run_cli):
        # colour 1 is listed at v1 and v2 only, so v3 is in none of its sets
        proc = run_cli("wmax", "fix_p3.json", "--emit-mis")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[:4] == [
            '{"color": 1, "mis": ["v2"]}',
            '{"color": 1, "mis": ["v1"]}',
            '{"color": 2, "mis": ["v3"]}',
            '{"color": 2, "mis": ["v2"]}',
        ]
        assert proc.stdout.splitlines()[4:] == ["[0, 1, 1]", "[0, 2, 0]", "[1, 0, 1]", "[1, 1, 0]"]

    def test_dimacs_with_sidecar(self, run_cli):
        proc = run_cli("wmax", "path3.col", "--sidecar", "path3_sidecar.json")
        assert proc.returncode == 0
        assert proc.stdout == "[0, 1, 1]\n[0, 2, 0]\n[1, 0, 1]\n[1, 1, 0]\n"

    def test_sidecar_with_json_is_an_input_error(self, run_cli):
        proc = run_cli("wmax", "fix_p3.json", "--sidecar", "path3_sidecar.json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "a sidecar applies only to a .col instance" in proc.stderr

    def test_vector_cap_exit_code(self, run_cli):
        proc = run_cli("wmax", "fix_c5.json", "--max-vectors", "2")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "intermediate demand vectors" in proc.stderr

    def test_negative_vector_cap_is_a_usage_error(self, run_cli):
        proc = run_cli("wmax", "fix_c5.json", "--max-vectors", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--max-vectors: must be at least 0" in proc.stderr

    @pytest.mark.parametrize(
        "doc, out",
        [({"vertices": ["a"], "lists": {"a": []}}, "[0]\n"), ({"vertices": []}, "[]\n")],
        ids=["one-colorless-vertex", "no-vertex"],
    )
    def test_colorless_instances(self, run_cli, tmp_path, doc, out):
        path = tmp_path / "colorless.json"
        path.write_text(json.dumps({"edges": [], **doc}))
        for flags in ((), ("--prune-dominated",)):
            proc = run_cli("wmax", str(path), *flags)
            assert (proc.returncode, proc.stdout) == (0, out)


@given(st.lists(st.integers(min_value=0, max_value=2**70), max_size=30))
def test_vector_lines_print_as_json_dumps_prints_the_list(v):
    assert cli._vec_format(len(v)) % tuple(v) == json.dumps(v)


class TestCheck:
    def test_permissible_prints_witness(self, run_cli):
        proc = run_cli("check", "fix_p3.json")
        assert proc.returncode == 0
        assert proc.stdout == "[1, 0, 1]\n"

    def test_not_permissible(self, run_cli):
        proc = run_cli("check", "fix_p3_heavy.json")
        assert proc.returncode == 1
        assert proc.stdout == "NOT PERMISSIBLE\n"

    @pytest.mark.parametrize(
        "doc, code, out",
        [
            ({"vertices": ["a"], "lists": {"a": []}, "weights": {"a": 0}}, 0, "[0]\n"),
            ({"vertices": ["a"], "lists": {"a": []}, "weights": {"a": 1}}, 1, "NOT PERMISSIBLE\n"),
            ({"vertices": [], "weights": {}}, 0, "[]\n"),
        ],
    )
    def test_colorless_instances(self, run_cli, tmp_path, doc, code, out):
        path = tmp_path / "colorless.json"
        path.write_text(json.dumps({"edges": [], **doc}))
        proc = run_cli("check", str(path))
        assert (proc.returncode, proc.stdout) == (code, out)


class TestColor:
    def test_feasible(self, run_cli):
        proc = run_cli("color", "fix_p3.json")
        assert proc.returncode == 0
        assert proc.stdout == '{"v1": [1], "v2": [], "v3": [2]}\n'

    def test_infeasible(self, run_cli):
        proc = run_cli("color", "fix_p3_heavy.json")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "not permissible" in proc.stderr

    def test_vector_cap_exit_code(self, run_cli):
        proc = run_cli("color", "fix_c5.json", "--max-vectors", "2")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "intermediate demand vectors" in proc.stderr


class TestEnumerate:
    def test_streams_all_colorings(self, run_cli):
        proc = run_cli("enumerate", "fix_sv.json")
        assert proc.returncode == 0
        assert proc.stdout == '{"v1": [1]}\n{"v1": [2]}\n'

    def test_limit(self, run_cli):
        proc = run_cli("enumerate", "fix_sv.json", "--limit", "1")
        assert proc.stdout == '{"v1": [1]}\n'

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_a_usage_error(self, run_cli, limit):
        proc = run_cli("enumerate", "fix_sv.json", "--limit", limit)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--limit: must be at least 1" in proc.stderr

    def test_vector_cap_exit_code(self, run_cli):
        proc = run_cli("enumerate", "fix_c5.json", "--max-vectors", "2")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "intermediate demand vectors" in proc.stderr

    def test_infeasible_is_empty_and_exit_one(self, run_cli):
        proc = run_cli("enumerate", "fix_p3_heavy.json")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "not permissible" in proc.stderr


class TestChromatic:
    def test_value_and_witness(self, run_cli):
        proc = run_cli("chromatic", "fix_c5.json")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert json.loads(lines[0]) == {"chi": 3, "lower_bound": 3}
        witness = json.loads(lines[1])
        assert sorted(witness) == ["v1", "v2", "v3", "v4", "v5"]
        assert all(len(held) == 1 for held in witness.values())

    def test_warns_that_lists_are_ignored(self, run_cli):
        proc = run_cli("chromatic", "fix_c5.json")
        assert "lists are ignored" in proc.stderr

    def test_branch_cap_is_a_resource_error(self, run_cli):
        proc = run_cli("chromatic", "fix_c5.json", "--max-branches", "0")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "palette level 3" in proc.stderr
        assert "expanded 1 states, limit 0" in proc.stderr

    def test_branch_cap_names_a_level_beyond_float_precision(self, run_cli, tmp_path):
        inst = tmp_path / "one.json"
        inst.write_text(json.dumps({"vertices": ["a"], "edges": [], "weights": {"a": 10**30}}))
        proc = run_cli("chromatic", str(inst), "--max-branches", "10")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert f"chromatic search at palette level {10**30}: expanded 11 states, limit 10" in proc.stderr

    def test_a_level_the_cap_cannot_walk_exits_at_once(self, run_cli, tmp_path):
        inst = tmp_path / "c5.json"
        names = ["v1", "v2", "v3", "v4", "v5"]
        edges = [[names[i], names[(i + 1) % 5]] for i in range(5)]
        weights = {"v1": 10**30, "v2": 1, "v3": 1, "v4": 1, "v5": 1}
        inst.write_text(json.dumps({"vertices": names, "edges": edges, "weights": weights}))
        start = time.monotonic()
        proc = run_cli("chromatic", str(inst), timeout=60)
        assert time.monotonic() - start < 1
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert f"chromatic search at palette level {10**30 + 1}: expanded 10000001 states" in proc.stderr

    def test_large_demand_on_an_edge(self, run_cli, tmp_path):
        # one search step per colour: 1200 steps outrun Python's recursion limit
        inst = tmp_path / "edge.json"
        inst.write_text(
            json.dumps(
                {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"a": 600, "b": 600}}
            )
        )
        proc = run_cli("chromatic", str(inst))
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert json.loads(lines[0]) == {"chi": 1200, "lower_bound": 1200}
        witness = json.loads(lines[1])
        assert witness["a"] == list(range(601, 1201))
        assert witness["b"] == list(range(1, 601))


class TestOncall:
    def test_prints_solution_vectors(self, run_cli):
        proc = run_cli("oncall", "fix_k2.json")
        assert proc.returncode == 0
        assert proc.stdout == "[0, 1]\n[1, 0]\n"

    def test_with_colorings(self, run_cli):
        proc = run_cli("oncall", "fix_p3_heavy.json", "--with-colorings")
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [entry["vector"] for entry in lines] == [
            [0, 1, 1],
            [0, 2, 0],
            [1, 0, 1],
            [1, 1, 0],
        ]
        assert lines[1]["coloring"] == {"v1": [], "v2": [1, 2], "v3": []}


class TestExtend:
    def test_bound_witness_and_exact(self, run_cli):
        proc = run_cli(
            "extend",
            "fix_k3.json",
            "--precoloring",
            "pre_k3.json",
            "--base-colors",
            "2",
            "--exact",
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert json.loads(lines[0]) == {"bound": 2}
        assert json.loads(lines[1]) == {"v1": [1], "v2": [2], "v3": []}
        assert json.loads(lines[2]) == {"exact": 2, "verdict": "EQUALITY"}

    def test_exact_past_the_branch_cap_prints_nothing(self, run_cli):
        proc = run_cli(
            "extend",
            "fix_k3.json",
            "--precoloring",
            "pre_k3.json",
            "--base-colors",
            "2",
            "--exact",
            "--max-branches",
            "0",
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "exceeds limit 0" in proc.stderr

    def test_branch_cap_covers_the_chromatic_solver(self, run_cli):
        proc = run_cli(
            "extend",
            "fix_k3.json",
            "--precoloring",
            "pre_k3.json",
            "--base-colors",
            "2",
            "--max-branches",
            "0",
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "chromatic search at palette level 1: expanded 1 states, limit 0" in proc.stderr

    def test_empty_base_palette_answers_the_chromatic_number(self, run_cli, tmp_path):
        inst = tmp_path / "edge.json"
        inst.write_text(
            json.dumps(
                {
                    "vertices": ["a", "b"],
                    "edges": [["a", "b"]],
                    "weights": {"a": 2, "b": 1},
                }
            )
        )
        pre = tmp_path / "pre.json"
        pre.write_text("{}")
        proc = run_cli(
            "extend", str(inst), "--precoloring", str(pre), "--base-colors", "0", "--exact"
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        chi = json.loads(run_cli("chromatic", str(inst)).stdout.splitlines()[0])["chi"]
        assert chi == 3
        assert json.loads(lines[0]) == {"bound": chi}
        assert json.loads(lines[2]) == {"exact": chi, "verdict": "EQUALITY"}

    def test_a_residual_level_the_cap_cannot_walk_exits_at_once(self, run_cli, tmp_path):
        # v1 precolored {1} on C5 with demand (10**30, 1, 1, 1, 1): the first
        # residual decided needs level 10**30, whose walk the default cap
        # of 10**7 cannot finish, so extend exits before walking it
        inst = tmp_path / "c5.json"
        names = ["v1", "v2", "v3", "v4", "v5"]
        edges = [[names[i], names[(i + 1) % 5]] for i in range(5)]
        weights = {"v1": 10**30, "v2": 1, "v3": 1, "v4": 1, "v5": 1}
        inst.write_text(json.dumps({"vertices": names, "edges": edges, "weights": weights}))
        pre = tmp_path / "pre.json"
        pre.write_text('{"v1": [1]}')
        start = time.monotonic()
        proc = run_cli("extend", str(inst), "--precoloring", str(pre), "--base-colors", "1", timeout=60)
        assert time.monotonic() - start < 1
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: chromatic search at palette level {10**30}: "
            "expanded 10000001 states, limit 10000000\n"
        )

    @pytest.mark.parametrize(
        "a0, code, out",
        [("100000000", 3, []), ("1000", 0, [{"bound": 1000}])],
        ids=["above-the-vector-cap", "below-it"],
    )
    def test_base_palette_above_the_vector_cap_is_a_resource_error(
        self, run_cli, tmp_path, a0, code, out
    ):
        """K2 with unit demand and an empty precoloring: a base palette of
        10**8 colors trips --max-vectors (default 10**6) before any palette
        is built, where it used to exhaust memory."""
        inst = tmp_path / "edge.json"
        inst.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"a": 1, "b": 1}}))
        pre = tmp_path / "pre.json"
        pre.write_text("{}")
        proc = run_cli("extend", str(inst), "--precoloring", str(pre), "--base-colors", a0, timeout=10)
        assert proc.returncode == code, proc.stderr
        assert [json.loads(line) for line in proc.stdout.splitlines()[:1]] == out
        if code == 3:
            assert proc.stderr == "error: extension: base palette of 100000000 colors exceeds limit 1000000\n"

    @pytest.mark.parametrize(
        "vertices, a0, code, out",
        [
            (8, "1000000", 3, ""),
            (2, "1000", 0, '{"bound": 1000}\n{"v0": [1], "v1": [1]}\n{"exact": 1000, "verdict": "EQUALITY"}\n'),
        ],
        ids=["probe-above-the-branch-cap", "probe-below-it"],
    )
    def test_exact_estimates_a_probe_before_building_its_lists(
        self, tmp_path, capsys, vertices, a0, code, out
    ):
        """Isolated vertices with unit demand and an empty precoloring: a
        base palette of 10**6 colors on 8 of them is refused by the
        oracle's estimate of 10**48 branches, with no list of 10**6 colors
        built; 1000 colors on 2 of them, 10**6 branches, still answer."""
        names = [f"v{i}" for i in range(vertices)]
        inst = tmp_path / "isolated.json"
        inst.write_text(json.dumps({"vertices": names, "edges": [], "weights": dict.fromkeys(names, 1)}))
        pre = tmp_path / "pre.json"
        pre.write_text("{}")
        tracemalloc.start()
        try:
            code_got = cli.main(
                ["extend", str(inst), "--precoloring", str(pre), "--base-colors", a0, "--exact"]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert (code_got, captured.out) == (code, out)
        if code == 3:
            assert captured.err == (
                f"error: colorable oracle: estimated {10**48} branches exceeds limit 10000000\n"
            )
            assert peak < 4 << 20

    def test_missing_precoloring_file(self, run_cli):
        proc = run_cli(
            "extend",
            "fix_k3.json",
            "--precoloring",
            "nope.json",
            "--base-colors",
            "2",
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("text, message", BAD_PRECOLORINGS.values(), ids=BAD_PRECOLORINGS)
    def test_malformed_precoloring_is_an_input_error(self, run_cli, tmp_path, text, message):
        pre = tmp_path / "pre.json"
        pre.write_text(text)
        proc = run_cli("extend", "fix_k3.json", "--precoloring", str(pre), "--base-colors", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


class TestVerify:
    def test_all_checks_pass(self, run_cli):
        proc = run_cli("verify", "fix_k2.json")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines == [
            "PASS permissibility",
            "PASS enumeration",
            "PASS chromatic",
            "PASS oncall",
        ]

    def test_all_checks_skipped_is_a_resource_error(self, run_cli):
        proc = run_cli("verify", "fix_p3.json", "--max-branches", "0")
        assert proc.returncode == 3
        assert proc.stdout.splitlines() == [
            "SKIP permissibility",
            "SKIP enumeration",
            "SKIP chromatic",
            "SKIP oncall",
        ]
        assert proc.stderr.count("\n") == 1
        assert "no check ran" in proc.stderr

    def test_all_checks_skipped_on_a_path_of_a_million_oncall_candidates(self, run_cli, tmp_path):
        """A 10-vertex path, lists {1, 2, 3}, demand 3: the on-call oracle
        counts its 4**10 candidates against the cap before it makes any."""
        names = [f"v{i}" for i in range(10)]
        doc = tmp_path / "path10.json"
        doc.write_text(json.dumps({
            "vertices": names,
            "edges": [[a, b] for a, b in zip(names, names[1:])],
            "lists": {v: [1, 2, 3] for v in names},
            "weights": {v: 3 for v in names},
        }))
        proc = run_cli("verify", str(doc), "--max-branches", "0")
        assert proc.returncode == 3
        assert proc.stdout.splitlines() == [
            "SKIP permissibility",
            "SKIP enumeration",
            "SKIP chromatic",
            "SKIP oncall",
        ]
        assert "no check ran" in proc.stderr

    def test_a_set_far_above_the_recursion_limit_passes(self, run_cli, tmp_path):
        """1 500 vertices, the edge v0-v1, lists {1} and weight 1 on v0..v2
        only: the chromatic solver enumerates a maximal set of 1 499."""
        names = [f"v{i}" for i in range(1500)]
        doc = tmp_path / "wide.json"
        doc.write_text(json.dumps({
            "vertices": names,
            "edges": [["v0", "v1"]],
            "lists": {v: [1] if i < 3 else [] for i, v in enumerate(names)},
            "weights": {v: int(i < 3) for i, v in enumerate(names)},
        }))
        proc = run_cli("verify", str(doc))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "PASS permissibility",
            "PASS enumeration",
            "PASS chromatic",
            "PASS oncall",
        ]

    @pytest.mark.parametrize("command", ["verify", "extend"])
    def test_the_oracle_search_places_1200_vertices(self, run_cli, tmp_path, command):
        """1 200 isolated vertices listed {1} with demand 1: the oracle's
        search places every vertex, far past the recursion limit.  The
        on-call oracle's 2**1200 candidates are skipped."""
        names = [f"v{i}" for i in range(1200)]
        doc = tmp_path / "isolated.json"
        doc.write_text(json.dumps({
            "vertices": names,
            "lists": {v: [1] for v in names},
            "weights": {v: 1 for v in names},
        }))
        pre = tmp_path / "pre.json"
        pre.write_text("{}")
        extend = ("--precoloring", str(pre), "--base-colors", "1", "--exact")
        proc = run_cli(command, str(doc), *(extend if command == "extend" else ()), timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        if command == "verify":
            assert lines == ["PASS permissibility", "PASS enumeration", "PASS chromatic", "SKIP oncall"]
        else:
            assert json.loads(lines[0]) == {"bound": 1}
            assert json.loads(lines[2]) == {"exact": 1, "verdict": "EQUALITY"}

    @pytest.mark.parametrize("cap", [(), ("--max-branches", "10")], ids=["default-cap", "cap-10"])
    def test_a_huge_demand_skips_the_palette_climbs(self, run_cli, tmp_path, cap):
        """One vertex listed {1} with demand 10**30: the chromatic oracle's
        first palette would hold 10**30 colors, so it is skipped at once,
        as is the on-call oracle's scan of 10**30 + 1 candidates."""
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps({
            "vertices": ["v"], "edges": [], "lists": {"v": [1]}, "weights": {"v": 10**30},
        }))
        proc = run_cli("verify", str(doc), *cap, timeout=5)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "PASS permissibility",
            "PASS enumeration",
            "SKIP chromatic",
            "SKIP oncall",
        ]

    def test_negative_branch_cap_is_a_usage_error(self, run_cli):
        proc = run_cli("verify", "fix_p3.json", "--max-branches", "-5")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--max-branches: must be at least 0" in proc.stderr

    def test_a_wrong_solver_answer_fails_its_check(self, monkeypatch, capsys):
        def wrong_chi(graph, w, max_branches=None):
            return ChromaticResult(chi=99, lower_bound=0, coloring=())

        monkeypatch.setattr(cli, "weighted_chromatic", wrong_chi)
        assert cli.main(["verify", str(FIXTURES / "fix_k2.json")]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS permissibility",
            "PASS enumeration",
            "FAIL chromatic",
            "PASS oncall",
        ]


class TestCaps:
    """Each cap is an option only of the subcommands whose work it bounds."""

    @pytest.mark.parametrize(
        "command, cap",
        [
            *((c, "--max-branches") for c in ("check", "color", "enumerate", "oncall", "wmax")),
            ("chromatic", "--max-vectors"),
        ],
    )
    def test_a_cap_that_would_not_act_is_a_usage_error(self, run_cli, command, cap):
        proc = run_cli(command, "fix_k2.json", cap, "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("extend", "fix_k3.json", "--precoloring", "pre_k3.json", "--base-colors", "2"),
            ("verify", "fix_k2.json"),
        ],
    )
    def test_extend_and_verify_take_both_caps(self, run_cli, args):
        proc = run_cli(*args, "--max-vectors", "1000", "--max-branches", "100000")
        assert proc.returncode == 0
        assert proc.stdout != ""


class TestFailureModes:
    def test_missing_instance_file(self, run_cli):
        proc = run_cli("check", "nope.json")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_unknown_subcommand(self, run_cli):
        proc = run_cli("frobnicate", "fix_sv.json")
        assert proc.returncode == 2

    def test_malformed_instance(self, run_cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("check", str(bad))
        assert proc.returncode == 2

    def test_malformed_edges(self, run_cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": ["a", "b"], "edges": 5}')
        proc = run_cli("check", str(bad))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge -3 0\n", "negative vertex count"),
            ("p edge 3 1\ne 1 2\np edge 2 0\n", "second problem line"),
        ],
    )
    def test_malformed_dimacs_problem_line(self, run_cli, tmp_path, text, message):
        bad = tmp_path / "bad.col"
        bad.write_text(text)
        proc = run_cli("wmax", str(bad))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_in_process_usage_error_leaves_the_parser_intact(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", str(FIXTURES / "fix_p3.json"), "--max-vectors", "-1"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert cli.main(["check", str(FIXTURES / "fix_p3.json")]) == 0
        assert capsys.readouterr().out == "[1, 0, 1]\n"
        assert cli.main(["check", str(FIXTURES / "fix_p3_heavy.json")]) == 1
        assert capsys.readouterr().out == "NOT PERMISSIBLE\n"


@pytest.mark.parametrize(
    "args",
    [
        ("wmax", "fix_p4.json", "--emit-certificates"),
        ("oncall", "fix_p3_heavy.json", "--with-colorings"),
    ],
)
def test_repeated_runs_are_byte_identical(run_cli, args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout != ""
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode
