"""Tests for the command line interface: golden output, JSON schema,
exit codes, and the installed entry point."""

import ast
import contextlib
import io
import json
import operator
import re
import shlex
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coterie import cli, cone, faces, rootsys

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"

TABLE_TYPES = ["A4", "B4", "C4", "D5", "E6", "E7", "E8", "F4", "G2"]

# golden file <stem>_<format>.txt holds the output of argv in that format
GOLDEN_RUNS = {
    "inequalities_F4": (["inequalities", "F4"], ("json",)),
    "inequalities_B3_full": (["inequalities", "B3", "--full"], ("plain", "json", "latex")),
    "inequalities_C4_symbolic": (["inequalities", "C4", "--symbolic"], ("plain", "json", "latex")),
    "inequalities_F4_symbolic": (["inequalities", "F4", "--symbolic"], ("plain", "json")),
    "member_G2_all": (["member", "G2", "7,4"], ("plain", "json")),
    "member_A3_all_closed": (["member", "A3", "1,0,1", "--mode", "closed"], ("plain", "json")),
    "member_B3_full": (["member", "B3", "1/2,-2,3", "--method", "full"], ("plain", "json")),
    "member_A2_geometric": (["member", "A2", "7/2,4", "--method", "geometric"], ("plain", "json")),
    "polytope_A2": (["polytope", "A2", "1/2,1"], ("plain", "json")),
    "polytope_B3": (["polytope", "B3", "1,2,0"], ("plain", "json")),
    "arrangement_A3": (["arrangement", "A3"], ("plain", "json")),
    "arrangement_a2_file": (["arrangement", "--file", str(DATA / "arrangement_a2.txt")], ("plain", "json")),
    "arrangement_B3_capped": (["arrangement", "B3", "--orbit-cap", "4"], ("plain", "json")),
    # entries repeat across the rays of A and C, so these pin the written-once entries
    "rays_A5": (["rays", "A5"], ("plain", "json")),
    "rays_C5": (["rays", "C5"], ("latex",)),
    "faces_A10": (["faces", "A10"], ("plain", "json")),
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples() -> list:
    """(argv, shown output) for each `$ coterie ...` example in the README's
    Command line section."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```text\n(.*?)```", section, re.S):
        for example in re.split(r"^\$ coterie ", block, flags=re.M)[1:]:
            command, _, shown = example.partition("\n")
            examples.append(pytest.param(shlex.split(command), shown.rstrip("\n") + "\n", id=command))
    return examples


class TestGolden:
    @pytest.mark.parametrize("label", TABLE_TYPES)
    def test_plain(self, capsys, label):
        code, out, _ = run_cli(capsys, "inequalities", label)
        assert code == 0
        assert out == (GOLDEN / f"inequalities_{label}_plain.txt").read_text()

    @pytest.mark.parametrize("label", TABLE_TYPES)
    def test_latex(self, capsys, label):
        code, out, _ = run_cli(capsys, "inequalities", label, "--format", "latex")
        assert code == 0
        assert out == (GOLDEN / f"inequalities_{label}_latex.txt").read_text()

    @pytest.mark.parametrize("fmt", ["plain", "json", "latex"])
    @pytest.mark.parametrize("label", ["B4", "F4", "G2"])
    def test_rays(self, capsys, label, fmt):
        code, out, _ = run_cli(capsys, "rays", label, "--format", fmt)
        assert code == 0
        assert out == (GOLDEN / f"rays_{label}_{fmt}.txt").read_text()

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    @pytest.mark.parametrize("label", ["D5", "F4"])
    def test_faces(self, capsys, label, fmt):
        code, out, _ = run_cli(capsys, "faces", label, "--format", fmt)
        assert code == 0
        assert out == (GOLDEN / f"faces_{label}_{fmt}.txt").read_text()

    @pytest.mark.parametrize(
        "stem, fmt", [(stem, fmt) for stem, (_, fmts) in GOLDEN_RUNS.items() for fmt in fmts]
    )
    def test_command(self, capsys, stem, fmt):
        code, out, _ = run_cli(capsys, *GOLDEN_RUNS[stem][0], "--format", fmt)
        assert code == 0
        assert out == (GOLDEN / f"{stem}_{fmt}.txt").read_text()

    @pytest.mark.parametrize("argv, shown", readme_examples())
    def test_readme_example(self, capsys, argv, shown):
        assert run_cli(capsys, *argv) == (0, shown, "")


class TestInequalities:
    def test_anchor_chains_present(self, capsys):
        _, f4, _ = run_cli(capsys, "inequalities", "F4")
        assert "9a_2 > 12a_3 > 8a_2" in f4
        _, e8, _ = run_cli(capsys, "inequalities", "E8")
        assert "25a_4 > 20a_5 > 24a_4" in e8
        _, e7, _ = run_cli(capsys, "inequalities", "E7")
        assert "10a_4 > 12a_3 > 9a_4" in e7

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "inequalities", "G2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["type"] == "G2"
        assert payload["rank"] == 2
        rows = {
            (tuple(c["functional"]), c["rel"], c["bound"])
            for c in payload["constraints"]
        }
        assert (("1", "-3/2"), ">", "0") in rows
        assert payload["chains"][0]["coefficients"] == ["4", "6", "3"]

    def test_full_lists_all_pairs(self, capsys):
        _, out, _ = run_cli(capsys, "inequalities", "A3", "--full")
        # 3 positivity-marker line plus 6 ordered pairs
        body = [l for l in out.splitlines() if l.startswith("  ")]
        assert len(body) == 1 + 6

    def test_symbolic_block(self, capsys):
        _, out, _ = run_cli(capsys, "inequalities", "B5", "--symbolic")
        assert "symbolic pattern (B family, rank n):" in out
        _, out2, _ = run_cli(capsys, "inequalities", "F4", "--symbolic")
        assert "none for family F" in out2


# one printed pattern line: a_X > 0, a_X > a_Y or a_X > R a_Y, each with an
# optional condition "for COND"
SYMBOLIC_LINE = re.compile(r"a_(\S+) > (?:(\(.+\)) )?(0|a_\S+)(?:\s+for (.+))?")

SYMBOLIC_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
}


def symbolic_value(text: str, env: dict):
    """An index, ratio or condition of a printed pattern at the given n and
    j, exactly: integers as Fractions, implicit multiplication as in
    2(n-1), + - * / and chained comparisons; anything else raises."""

    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return Fraction(env[node.id])
        if isinstance(node, ast.BinOp):
            return SYMBOLIC_OPS[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.Compare):
            sides = [value(node.left)] + [value(c) for c in node.comparators]
            return all(SYMBOLIC_OPS[type(op)](a, b) for op, a, b in zip(node.ops, sides, sides[1:]))
        raise ValueError(f"unexpected {ast.dump(node)} in {text!r}")

    return value(ast.parse(re.sub(r"(\d)\(", r"\1*(", text), mode="eval").body)


def symbolic_rows(lines, n: int):
    """The rows the printed pattern lines give at rank n, 1-based, as
    (X, Y, R) for a_X > R a_Y and (X, 0, 0) for a_X > 0: a line in j is
    instantiated at every j in 1..n that its condition allows."""
    rows = Counter()
    for line in lines:
        match = SYMBOLIC_LINE.fullmatch(line)
        assert match, line
        x, ratio, y, cond = match.groups()
        for j in range(1, n + 1) if "j" in line else [None]:
            env = {"n": n, "j": j}
            if cond and not symbolic_value(cond, env):
                continue
            index = symbolic_value(x, env)
            if y == "0":
                rows[index, 0, 0] += 1
            else:
                rows[index, symbolic_value(y[2:], env), symbolic_value(ratio, env) if ratio else 1] += 1
    return rows


def computed_rows(rs):
    """The rows of inequalities(rs) in the form of symbolic_rows."""
    rows = Counter()
    for c in cone.inequalities(rs).open_system.constraints:
        assert (c.rel, c.bound) == (">", 0)
        nonzero = [(k + 1, q) for k, q in enumerate(c.functional) if q]
        if len(nonzero) == 1:
            rows[nonzero[0][0], 0, 0] += 1
        else:
            (x, _), (y, q) = sorted(nonzero, key=lambda kq: kq[1] < 0)
            rows[x, y, -q] += 1
    return rows


def symbolic_mismatches(capsys, family: str) -> list:
    """The types of the family whose printed pattern, read back and
    instantiated at their rank, differs from their inequality rows."""
    wrong = []
    for t in rootsys.all_types():
        if t.family != family:
            continue
        code, out, _ = run_cli(capsys, "inequalities", str(t), "--symbolic")
        assert code == 0
        lines = out.split(f"symbolic pattern ({family} family, rank n):\n", 1)[1].splitlines()
        rs = rootsys.build(str(t))
        if symbolic_rows([line.strip() for line in lines], rs.rank) != computed_rows(rs):
            wrong.append(str(t))
    return wrong


class TestSymbolicPatterns:
    """The printed closed forms of the A, B, C and D families, read back and
    instantiated at every rank, are the inequality rows of that rank."""

    @pytest.mark.parametrize("family", sorted(cli._SYMBOLIC))
    def test_pattern_is_the_rows(self, capsys, family):
        assert symbolic_mismatches(capsys, family) == []

    def test_planted_pattern_edit_is_caught(self, capsys, monkeypatch):
        edited = tuple(line.replace("(n+1-j)/(n+2-j)", "(n-j)/(n+1-j)") for line in cli._SYMBOLIC["A"])
        assert edited != cli._SYMBOLIC["A"]
        monkeypatch.setitem(cli._SYMBOLIC, "A", edited)
        # A1 has no row in j > 1, so every other rank differs
        assert symbolic_mismatches(capsys, "A") == [f"A{n}" for n in range(2, 13)]


class TestMember:
    def test_plain_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "member", "G2", "7,4")
        assert code == 0
        assert "member: true" in out
        assert "agreement: yes" in out

    def test_non_member(self, capsys):
        code, out, _ = run_cli(capsys, "member", "G2", "1,2")
        assert code == 0
        assert "member: false" in out

    def test_closed_mode_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "member", "A2", "1/2,1", "--mode", "closed")
        assert code == 0
        assert "member: true" in out
        code, out, _ = run_cli(capsys, "member", "A2", "1/2,1", "--mode", "open")
        assert "member: false" in out

    def test_single_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "member", "B3", "1,2,2", "--method", "geometric"
        )
        assert code == 0
        assert "geometric:" in out
        assert "edges:" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("member", "A2", "-1,2"),
            ("member", "A2", "-1/2,2", "--mode", "closed"),
            ("member", "A2", "--mode", "closed", "-.5,2"),
            ("member", "A2", "--format=plain", "-1,2", "--mode", "open"),
            ("member", "A2", "--", "-1,2"),
        ],
    )
    def test_leading_negative_coordinate(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert "point (-" in out
        assert "member: false" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "member", "A2", "2,3", "--format", "json")
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["point"] == ["2", "3"]
        assert set(payload["results"]) == {"edges", "full", "geometric"}
        assert payload["agreement"] is True

    def test_wrong_entry_count_names_the_text(self, capsys):
        code, _, err = run_cli(capsys, "member", "A2", "1,2,3")
        assert code == 2
        assert err == "error: expected 2 comma-separated entries in '1,2,3', got 3\n"


class TestRays:
    def test_a4_listing(self, capsys):
        code, out, _ = run_cli(capsys, "rays", "A4")
        assert code == 0
        assert "rays 8" in out
        assert "(1/4, 1/2, 3/4, 1)" in out
        assert "[2a_1 = a_2, 3a_2 = 2a_3, 4a_3 = 3a_4]" in out
        assert "anomalies: none" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "rays", "G2", "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == 2
        vectors = {tuple(r["vector"]) for r in payload["rays"]}
        assert vectors == {("3/2", "1"), ("2", "1")}

    def test_latex(self, capsys):
        code, out, _ = run_cli(capsys, "rays", "G2", "--format", "latex")
        assert code == 0
        assert "\\begin{enumerate}" in out
        assert "\\frac{3}{2}" in out

    @given(
        entries=st.lists(st.one_of(st.integers(-99, 99), st.integers(-(10**40), 10**40)), max_size=6),
        lasts=st.lists(
            st.one_of(st.sampled_from([0, 1]), st.integers(1, 99), st.integers(1, 10**40)), min_size=1, max_size=4
        ),
        scale=st.integers(1, 10**6),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_integer_text_is_fraction_text(self, entries, lasts, scale):
        """A ray's entries are written from its integer multiple: each is
        str(Fraction(c, d)) for the last entry d > 0, and the integer
        itself on the primitive path d == 0.  The common scale makes every
        entry share a factor with d, which the text must cancel.  The rays
        share their other entries and differ in d, and they are written
        twice over, in one command's table of written entries, so every
        entry is also read back from that table under every d."""
        texts = {}
        for last in lasts + lasts[::-1]:
            ints = tuple(c * scale for c in entries) + (last * scale,)
            d = ints[-1]
            want = [str(Fraction(c, d)) for c in ints] if d else [str(c) for c in ints]
            assert cli._ray_json(ints, texts) == want

    @staticmethod
    def flip_closed_pass(monkeypatch):
        """Flip the closed-cone verdict that the walk's closed rows give
        each ray, as its problems are read."""
        problems = faces._problems
        monkeypatch.setattr(faces, "_problems", lambda bad, edges: problems(bad ^ faces._CLOSED, edges))

    def test_flipped_membership_fails_the_command(self, capsys, monkeypatch):
        """Every ray is checked against the closed cone by the walk's closed
        rows and against the open cone through cone.member, so wrong
        verdicts there must surface as exit 3 and must fail the cube
        certificate, which checks the same rays."""
        member = cone.member
        monkeypatch.setattr(cone, "member", lambda *args, **kwargs: not member(*args, **kwargs))
        # the library's verdict alone fails the command
        assert run_cli(capsys, "rays", "A3")[0] == 3
        self.flip_closed_pass(monkeypatch)
        code, out, _ = run_cli(capsys, "rays", "A3")
        assert code == cli.EXIT_INVARIANT == 3
        assert out.count("is outside the closed cone") == out.count("is interior, expected boundary") == 4
        assert faces.cube_isomorphism_check(rootsys.build("A3")) is False

    @pytest.mark.parametrize("flipped", ["closed", "open"])
    def test_each_membership_check_is_kept(self, capsys, monkeypatch, flipped):
        """A wrong verdict in one check alone is still caught, by rays and by
        the cube certificate: neither may drop either check.  The closed
        verdict comes from the walk's closed rows, the open one from
        cone.member."""
        if flipped == "closed":
            self.flip_closed_pass(monkeypatch)
        else:
            member = cone.member

            def wrong(rs, x, mode="open", method="edges"):
                return member(rs, x, mode, method) != (mode == "open")

            monkeypatch.setattr(cone, "member", wrong)
        code, out, _ = run_cli(capsys, "rays", "A3")
        assert code == 3
        notes = {"closed": "is outside the closed cone", "open": "is interior, expected boundary"}
        assert out.count(notes[flipped]) == 4
        assert faces.cube_isomorphism_check(rootsys.build("A3")) is False

    def test_rays_calls_member_once_per_ray(self, capsys, monkeypatch):
        """One open cone.member call per ray, so a wrong membership verdict
        from the library fails the command, as the benchmark's self-test
        expects."""
        calls = []
        member = cone.member

        def counted(rs, x, *mode_and_method):
            calls.append(mode_and_method)
            return member(rs, x, *mode_and_method)

        monkeypatch.setattr(cone, "member", counted)
        assert run_cli(capsys, "rays", "A5")[0] == 0
        assert calls == [("open", "edges")] * 16


class TestFaces:
    def test_a4(self, capsys):
        code, out, _ = run_cli(capsys, "faces", "A4")
        assert code == 0
        assert "faces 27" in out
        assert "dimensions: 1:8 2:12 3:6 4:1" in out
        assert "cube order isomorphism: yes" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "faces", "B3", "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == 9
        assert payload["cube_isomorphic"] is True

    def test_a10(self, capsys):
        code, out, _ = run_cli(capsys, "faces", "A10")
        assert code == 0
        assert "faces 19683" in out
        assert "dimensions: 1:512 2:2304 3:4608 4:5376 5:4032 6:2016 7:672 8:144 9:18 10:1" in out
        assert "cube order isomorphism: yes" in out


class TestPolytope:
    def test_a2_unit(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "A2", "1,1")
        assert code == 0
        assert "vertices 4:" in out
        assert "(1/2, 1)" in out
        assert "empty: false" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "A2", "1,1", "--format", "json")
        payload = json.loads(out)
        assert payload["empty"] is False
        assert ["1/2", "1"] in payload["vertices"]

    def test_negative_bound(self, capsys):
        code, _, err = run_cli(capsys, "polytope", "A2", "--", "-1,1")
        assert code == 2
        assert "nonnegative" in err
        assert "node 1 is -1" in err
        code, _, err = run_cli(capsys, "polytope", "B3", "--", "1,2,-3/2")
        assert code == 2
        assert "node 3 is -3/2" in err

    def test_wrong_entry_count_names_the_text(self, capsys):
        code, _, err = run_cli(capsys, "polytope", "A3", "1,1")
        assert code == 2
        assert err == "error: expected 3 comma-separated entries in '1,1', got 2\n"

    def test_resource_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "polytope", "A12", ",".join(["1"] * 12)
        )
        assert code == 4
        assert "cap" in err

    def test_lowered_subset_cap(self, capsys, monkeypatch):
        """A2 with bounds has 4 rows, so C(4, 2) = 6 active sets."""
        monkeypatch.setattr(cone, "SUBSET_CAP", 5)
        code, out, err = run_cli(capsys, "polytope", "A2", "1,1")
        assert code == 4 and out == ""
        assert err == "error: resource cap exceeded: 6 active sets exceed the cap 5\n"


class TestArrangement:
    def test_canonical(self, capsys):
        code, out, _ = run_cli(capsys, "arrangement", "A2")
        assert code == 0
        assert "orbit size 6" in out
        assert "k: 1 1" in out

    def test_from_file(self, capsys):
        code, out, _ = run_cli(
            capsys, "arrangement", "--file", str(DATA / "arrangement_a2.txt")
        )
        assert code == 0
        assert "type A2" in out

    def test_degenerate_file(self, capsys):
        code, _, err = run_cli(
            capsys, "arrangement", "--file", str(DATA / "arrangement_degenerate.txt")
        )
        assert code == 2
        assert "error" in err

    def test_orbit_cap_is_soft(self, capsys):
        code, out, _ = run_cli(capsys, "arrangement", "B3", "--orbit-cap", "4")
        assert code == 0
        assert "capped" in out

    @pytest.mark.parametrize(
        "cap, message",
        [("0", "must be at least 1"), ("-5", "must be at least 1"), ("x", "invalid int")],
    )
    def test_orbit_cap_below_one_rejected(self, capsys, cap, message):
        code, out, err = run_cli(capsys, "arrangement", "A2", "--orbit-cap", cap)
        assert code == 2
        assert out == ""
        assert "--orbit-cap" in err
        assert message in err

    def test_orbit_cap_one_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "arrangement", "A2", "--orbit-cap", "1")
        assert code == 0
        assert "orbit: capped (explored 1)" in out.splitlines()

    def test_orbit_cap_below_fundamental_size(self, capsys):
        """E6 has six fundamental members; a cap of 3 explores no more than 3."""
        code, out, _ = run_cli(capsys, "arrangement", "E6", "--orbit-cap", "3")
        assert code == 0
        assert "orbit: capped (explored 3)" in out.splitlines()

    @pytest.mark.parametrize(
        "cap, line, orbit",
        [
            ("240", "orbit size 240", {"capped": False, "size": 240}),
            ("239", "orbit: capped (explored 239)", {"capped": True, "explored": 239}),
        ],
    )
    def test_orbit_cap_boundary(self, capsys, monkeypatch, cap, line, orbit):
        """F4's canonical orbit has 240 members: a cap of 240 reports it in
        full, 239 reports it capped at the cap; both as the dense
        enumeration reports them."""
        plain = ["arrangement", "F4", "--orbit-cap", cap]
        json_argv = plain + ["--format", "json"]
        code, out, _ = run_cli(capsys, *plain)
        assert code == 0
        assert line in out.splitlines()
        code, out_json, _ = run_cli(capsys, *json_argv)
        assert code == 0
        assert json.loads(out_json)["orbit"] == orbit
        monkeypatch.setattr(cli.arrmod, "weyl_orbit", oracles.weyl_orbit_dense)
        assert run_cli(capsys, *plain) == (0, out, "")
        assert run_cli(capsys, *json_argv) == (0, out_json, "")

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "arrangement", "G2", "--format", "json")
        payload = json.loads(out)
        assert payload["orbit"] == {"capped": False, "size": 12}
        assert payload["k"] == ["1", "1"]


class TestUsageErrors:
    def test_unknown_type(self, capsys):
        code, _, err = run_cli(capsys, "inequalities", "Z9")
        assert code == 2
        assert "error" in err

    def test_bad_vector(self, capsys):
        code, _, _ = run_cli(capsys, "member", "A2", "1,2,3")
        assert code == 2

    @pytest.mark.parametrize("token", ["1/0", " -3/0 "])
    def test_zero_denominator_names_the_token(self, capsys, token):
        code, out, err = run_cli(capsys, "member", "A2", f"{token},2")
        assert code == 2
        assert out == ""
        assert err == f"error: bad vector entry {token.strip()!r}: zero denominator\n"

    def test_malformed_entry_names_the_token(self, capsys):
        code, out, err = run_cli(capsys, "member", "A2", "1,x/2")
        assert code == 2
        assert out == ""
        assert err == "error: bad vector entry: Invalid literal for Fraction: 'x/2'\n"

    def test_missing_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "rays", "A2", "--wat")[0] == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["inequalities", "A3", "--full", "--reduced"],
                "coterie inequalities: error: argument --reduced: not allowed with argument --full",
            ),
            (
                ["arrangement", "A2", "--file", str(DATA / "arrangement_a2.txt")],
                "error: give a type label or --file, not both",
            ),
        ],
    )
    def test_contradictory_input(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == message


# commands of every kind, usage errors and --help among them, run in turn
# through one process
PARSER_RUNS = [
    ["inequalities", "A3", "--full", "--format", "latex"],
    ["--help"],
    ["member", "G2", "-1,4", "--method", "edges"],
    ["inequalities", "A3", "--full", "--reduced"],
    ["rays", "G2", "--format", "json"],
    ["polytope", "--help"],
    [],
    ["member", "A2", "1,x/2"],
    ["faces", "A4"],
    ["arrangement", "A2", "--orbit-cap", "0"],
    ["rays", "A2", "--wat"],
    ["member", "G2", "7,4", "--mode", "closed"],
]


class TestParserReuse:
    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        reused = [run_cli(capsys, *argv) for argv in PARSER_RUNS * 2]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run_cli(capsys, *argv) for argv in PARSER_RUNS]
        assert reused == fresh * 2
        assert {code for code, _, _ in fresh} == {0, 2}


def quick_token(token: str) -> bool:
    """False for a valid type label above rank 4, so each example stays fast."""
    try:
        return rootsys.parse_type(token).rank <= 4
    except ValueError:  # UnsupportedTypeError included
        return True


TOKENS = (
    st.sampled_from(
        ["A1", "a2", " B3", "C4", "D4", "F4", "G2", "Z9", "A0", "D2", "E6x", "", "-", "--", "--full", "-h",
         "x", "0", "-1", "1/0", "1,2", "-1,2", "1/2,-3/4,0", "0,0,0,0", "1,2,3,4,5", "1,,2"]
    )
    | st.text(alphabet="ABCDEFGadg0123456789,/-.+ =x", max_size=10).filter(quick_token)
    | st.text(max_size=4).filter(quick_token)
)
FORMATS = ["plain", "json", "latex"]
FILES = [
    str(DATA / name)
    for name in ("arrangement_a2.txt", "arrangement_degenerate.txt", "instance_a2.txt", "missing.txt")
]
# command -> (positional slots, flags, {option: valid values})
GRAMMAR = {
    "inequalities": (1, ["--full", "--reduced", "--symbolic"], {"--format": FORMATS}),
    "rays": (1, [], {"--format": FORMATS}),
    "member": (
        2,
        [],
        {"--mode": ["open", "closed"], "--method": ["all", "edges", "full", "geometric"], "--format": FORMATS},
    ),
    "faces": (1, [], {"--format": FORMATS}),
    "polytope": (2, [], {"--format": FORMATS}),
    "arrangement": (
        1,
        [],
        {"--file": FILES + [str(DATA)], "--orbit-cap": ["1", "7", "240", "0", "-3"], "--format": FORMATS},
    ),
}


@st.composite
def command_lines(draw) -> list:
    """A command name, then its positional slots (one too few to one too
    many), flags and options with valid or random values, in random order."""
    name = draw(st.sampled_from(sorted(GRAMMAR)))
    slots, flags, options = GRAMMAR[name]
    groups = [[draw(TOKENS)] for _ in range(draw(st.integers(max(0, slots - 1), slots + 1)))]
    groups += [[flag] for flag in flags if draw(st.booleans())]
    for option, values in options.items():
        if draw(st.booleans()):
            value = draw(st.sampled_from(values) | TOKENS)
            groups.append([f"{option}={value}"] if draw(st.booleans()) else [option, value])
    return [name] + [token for group in draw(st.permutations(groups)) for token in group]


def grammar_faults(argv) -> list:
    """What breaks the CLI's contract on argv: an exception, an exit code
    other than 0, 2, 3 or 4, or an exit 2 without exactly one error: line."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:
        return [f"raised {exc!r}"]
    faults = [] if code in (0, 2, 3, 4) else [f"exit {code}"]
    if code == 2 and sum("error:" in line for line in err.getvalue().splitlines()) != 1:
        faults.append(f"stderr {err.getvalue()!r}")
    return faults


class TestGrammar:
    @given(argv=command_lines())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_random_tokens_in_every_slot(self, argv):
        assert grammar_faults(argv) == []


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coterie", "member", "G2", "7,4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "member: true" in proc.stdout

    def test_console_script(self):
        proc = subprocess.run(
            ["coterie", "inequalities", "F4"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "9a_2 > 12a_3 > 8a_2" in proc.stdout

    def test_exit_code_travels(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coterie", "inequalities", "Q1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_closed_pipe_is_one_error_line(self):
        """`coterie rays A12 | head -1`: the reader leaves after one line
        of about 0.5 MB, so the rest cannot be written; exit 2 with one
        error line, and neither a traceback nor an "Exception ignored" note
        from the interpreter's last flush."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "coterie", "rays", "A12"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline() == "type A12\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 2
        assert stderr == "error: cannot write the output: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
    def test_full_disk_is_one_error_line(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "coterie", "faces", "A5", "--format", "json"],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write the output: [Errno 28] No space left on device\n"
