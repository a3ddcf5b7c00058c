import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import totirr
from totirr import Graph, cli, generators, graph_to_text, transforms
from totirr.cli import main
from totirr.generators import orient_left_right


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text, encoding="utf-8")
    return str(target)


def test_compute_undirected(tmp_path, capsys):
    f = write(tmp_path, "c5.txt", "U 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, out, _ = run(capsys, "compute", "--input", f)
    assert code == 0
    assert out == "irr_t=0\n"


def test_compute_directed(tmp_path, capsys):
    arcs = "\n".join(f"{i} {j}" for i in range(4) for j in range(i + 1, 4))
    f = write(tmp_path, "k4.txt", f"D 4\n{arcs}\n")
    code, out, _ = run(capsys, "compute", "--input", f)
    assert code == 0
    assert out == "irr_in=10 irr_out=10\n"


def test_compute_malformed_input(tmp_path, capsys):
    f = write(tmp_path, "bad.txt", "Q 3\n0 1\n")
    code, _, err = run(capsys, "compute", "--input", f)
    assert code == 2
    assert "error:" in err


def test_compute_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "compute", "--input", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error:" in err


def test_compute_loads_no_audit_generators_or_predictors(tmp_path):
    f = write(tmp_path, "p3.txt", "U 3\n0 1\n1 2\n")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(totirr.__file__).parents[1])!r})\n"
        "from totirr.cli import main\n"
        f"main(['compute', '--input', {f!r}])\n"
        "unwanted = ('totirr.audit', 'totirr.generators', 'totirr.predictors', 'totirr.partitions', 'totirr.rng')\n"
        "print(sorted(m for m in unwanted if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "irr_t=2\n[]\n", "")


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    good = write(tmp_path, "p3.txt", "U 3\n0 1\n1 2\n")
    bad = write(tmp_path, "bad.txt", "U 3\n0 9\n")
    for argv in (["compute", "--input", good], ["compute", "--input", bad]):
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first
    assert run(capsys, "compute", "--input", good) == (0, "irr_t=2\n", "")
    assert run(capsys, "compute", "--input", bad)[0] == 2


@pytest.mark.parametrize("case", ["underscore-id", "not-utf8", "directory", "digraph-joint"])
def test_input_errors_exit_2_without_traceback(tmp_path, capsys, case):
    if case == "underscore-id":
        argv = ["compute", "--input", write(tmp_path, "g.txt", "U 12\n0 1_0\n")]
    elif case == "not-utf8":
        target = tmp_path / "latin1.txt"
        target.write_bytes(b"U 3\n0 1\n# caf\xe9\n")
        argv = ["compute", "--input", str(target)]
    elif case == "directory":
        argv = ["compute", "--input", str(tmp_path)]
    else:
        d = write(tmp_path, "d.txt", "D 2\n0 1\n")
        argv = ["joint", "--left", d, "--right", d, "--u", "0", "--v", "0"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_out_of_memory_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    # exit 1 means an engine invariant failed; a resource failure must not read as one
    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr(cli, "read_graph_file", exhausted)
    code, out, err = run(capsys, "compute", "--input", write(tmp_path, "g.txt", "U 2\n0 1\n"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.strip() != "error:"
    assert "Traceback" not in err


def test_joint_writes_k2_and_reports(tmp_path, capsys):
    k1 = write(tmp_path, "k1.txt", "U 1\n")
    out_file = tmp_path / "k2.txt"
    code, out, _ = run(
        capsys, "joint", "--left", k1, "--right", k1, "--u", "0", "--v", "0",
        "--out", str(out_file), "--report",
    )
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == "U 2\n0 1\n"
    lines = out.splitlines()
    assert "union_irr=0" in lines
    assert "oracle_irr=0" in lines
    assert "engine_delta=0" in lines
    assert "formula=Prop27Equal predicted=2 agrees=false" in lines


def test_joint_triangle_report(tmp_path, capsys):
    c3 = write(tmp_path, "c3.txt", "U 3\n0 1\n0 2\n1 2\n")
    code, out, _ = run(capsys, "joint", "--left", c3, "--right", c3, "--u", "0", "--v", "0", "--report")
    assert code == 0
    assert "oracle_irr=8" in out.splitlines()
    assert "formula=Prop27Equal predicted=10 agrees=false" in out.splitlines()


def test_joint_bad_vertex(tmp_path, capsys):
    k1 = write(tmp_path, "k1.txt", "U 1\n")
    code, _, err = run(capsys, "joint", "--left", k1, "--right", k1, "--u", "5", "--v", "0")
    assert code == 2
    assert "error:" in err


def test_transform_undirected_report(tmp_path, capsys):
    p4 = write(tmp_path, "p4.txt", "U 4\n0 1\n1 2\n2 3\n")
    out_file = tmp_path / "out.txt"
    code, out, _ = run(
        capsys, "transform", "--input", p4, "--cut", "1", "0", "--target", "2",
        "--out", str(out_file), "--report",
    )
    assert code == 0
    lines = out.splitlines()
    assert "irr_before=4" in lines
    assert "oracle_irr=6" in lines
    assert "engine_delta=2" in lines
    assert "formula=Thm33Case2 predicted=6 agrees=true" in lines
    # edge (1, 0) moved onto 2: result is the star centered at 2
    assert out_file.read_text(encoding="utf-8") == "U 4\n0 2\n1 2\n2 3\n"


def test_transform_directed_head(tmp_path, capsys):
    ring = write(tmp_path, "ring.txt", "D 4\n0 1\n1 2\n2 3\n3 0\n")
    code, out, _ = run(
        capsys, "transform", "--input", ring, "--cut", "0", "1", "--target", "2",
        "--end", "head", "--report",
    )
    assert code == 0
    lines = out.splitlines()
    assert "irr_before=0" in lines
    assert "oracle_irr=6" in lines
    assert "formula=Prop47InCase2 predicted=6 agrees=true" in lines


def test_transform_directed_tail_report(tmp_path, capsys):
    # the tail of 0->1 moves onto 4: out-degrees (2, 1, 1, 1, 0) become all 1, in-degrees stay
    d5 = write(tmp_path, "d5.txt", "D 5\n0 1\n0 2\n1 2\n2 3\n3 4\n")
    out_file = tmp_path / "out.txt"
    code, out, _ = run(
        capsys, "transform", "--input", d5, "--cut", "0", "1", "--target", "4",
        "--end", "tail", "--out", str(out_file), "--report",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == ["irr_before=8", "oracle_irr=0", "engine_delta=-8", "formula=Prop47OutCase3 predicted=0 agrees=true"]
    before, oracle, delta = (int(line.split("=")[1]) for line in lines[:3])
    assert delta == oracle - before
    code, out, _ = run(capsys, "compute", "--input", str(out_file))
    assert (code, out) == (0, f"irr_in=8 irr_out={oracle}\n")


def test_transform_target_outside_the_range(tmp_path, capsys):
    # both paths name the vertex; the undirected one used to fail its side test instead
    p3 = write(tmp_path, "p3.txt", "U 3\n0 1\n1 2\n")
    d3 = write(tmp_path, "d3.txt", "D 3\n0 1\n1 2\n")
    for path in (p3, d3):
        for target in ("-1", "5"):
            code, out, err = run(capsys, "transform", "--input", path, "--cut", "0", "1", "--target", target)
            assert (code, out, err) == (2, "", f"error: vertex {target} outside range 0..2\n"), (path, target)


def test_transform_end_flag_rejected_for_undirected(tmp_path, capsys):
    p4 = write(tmp_path, "p4.txt", "U 4\n0 1\n1 2\n2 3\n")
    code, _, err = run(
        capsys, "transform", "--input", p4, "--cut", "1", "0", "--target", "2", "--end", "head",
    )
    assert code == 2
    assert "error:" in err


def test_transform_non_cut_edge(tmp_path, capsys):
    tri = write(tmp_path, "c3.txt", "U 3\n0 1\n0 2\n1 2\n")
    code, _, err = run(capsys, "transform", "--input", tri, "--cut", "0", "1", "--target", "2")
    assert code == 2


def test_audit_csv_and_exit_code(tmp_path, capsys):
    out_file = tmp_path / "rep.csv"
    code, out, _ = run(
        capsys, "audit", "--suite", "edge-joint", "--instances", "25",
        "--seed", "0xC0FFEE", "--format", "csv", "--out", str(out_file),
    )
    assert code == 0
    assert "engine_ok=true" in out
    text = out_file.read_text(encoding="utf-8")
    assert text.startswith("instance_id,seed,operation,")
    # identical invocation, identical bytes
    out_file2 = tmp_path / "rep2.csv"
    run(
        capsys, "audit", "--suite", "edge-joint", "--instances", "25",
        "--seed", "0xC0FFEE", "--format", "csv", "--out", str(out_file2),
    )
    assert out_file.read_bytes() == out_file2.read_bytes()


def test_audit_hex_and_decimal_seed_agree(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "audit", "--suite", "lemma34", "--instances", "10", "--seed", "0xC0FFEE", "--out", str(a))
    run(capsys, "audit", "--suite", "lemma34", "--instances", "10", "--seed", "12648430", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_audit_json_format(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    code, _, _ = run(
        capsys, "audit", "--suite", "closed-forms", "--instances", "8",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    obj = json.loads(out_file.read_text(encoding="utf-8"))
    assert obj["suite"] == "closed-forms"
    assert obj["engine_ok"] is True
    assert obj["disagreements"] == []


def test_closed_forms_cap_refuses_before_building(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the closed-forms suite built a digraph")

    monkeypatch.setattr("totirr.audit.orient_left_right", refuse)
    monkeypatch.setattr("totirr.audit.orient_by_labeling", refuse)
    out_file = tmp_path / "x.csv"
    code, out, err = run(capsys, "audit", "--suite", "closed-forms", "--instances", "97", "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err == "error: closed-forms suite needs max_n in 1..96, got 97\n"
    assert not out_file.exists()
    # the patch is live: an accepted cap reaches the builders
    with pytest.raises(AssertionError, match="built a digraph"):
        main(["audit", "--suite", "closed-forms", "--instances", "96", "--out", str(out_file)])


def test_audit_unknown_suite_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--suite", "bogus", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_generate_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run(capsys, "generate", "--family", "random", "--params", "15", "--seed", "9", "--out", str(a))
    run(capsys, "generate", "--family", "random", "--params", "15", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_oriented_bipartite(tmp_path, capsys):
    out_file = tmp_path / "kb.txt"
    code, _, _ = run(
        capsys, "generate", "--family", "complete-bipartite", "--params", "2", "2",
        "--orient", "left-right", "--out", str(out_file),
    )
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == "D 4\n0 2\n0 3\n1 2\n1 3\n"


# every generate family at its README arity
_README_PARAMS = {
    "path": ["4"],
    "cycle": ["5"],
    "complete": ["4"],
    "star": ["3"],
    "complete-bipartite": ["2", "3"],
    "empty": ["3"],
    "matching": ["2"],
    "random": ["6"],
    "tree": ["6"],
    "connected": ["6"],
    "random-digraph": ["6"],
}


@pytest.mark.parametrize("family", list(_README_PARAMS))
def test_generate_param_count_checked(tmp_path, capsys, family):
    params = _README_PARAMS[family]
    out_file = str(tmp_path / "x.txt")
    assert run(capsys, "generate", "--family", family, "--params", *params, "--out", out_file) == (0, "", "")
    code, out, err = run(capsys, "generate", "--family", family, "--params", *params, "7", "--out", out_file)
    assert (code, out) == (2, "")
    assert err == f"error: family {family} takes {len(params)} parameter(s), got {len(params) + 1}\n"


@pytest.mark.parametrize(
    "family, sizes, pairs",
    [
        ("complete", "100000", 4999950000),
        ("complete", "2001", 2001000),
        ("random", "2001", 2001000),
        ("connected", "2001", 2001000),
        ("random-digraph", "1415", 2000810),
        ("complete-bipartite", "1000 2001", 2001000),
    ],
)
def test_generate_refuses_more_than_the_pair_cap(tmp_path, capsys, monkeypatch, family, sizes, pairs):
    def refuse(*args):
        raise AssertionError("the graph was built before the pair cap was checked")

    for name in ("complete", "complete_bipartite", "random_graph", "random_connected", "random_digraph"):
        monkeypatch.setattr(generators, name, refuse)
    out_file = tmp_path / "x.txt"
    start = time.perf_counter()
    code, out, err = run(capsys, "generate", "--family", family, "--params", *sizes.split(), "--out", str(out_file))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: family {family} would examine {pairs} vertex pairs, more than 2000000\n"
    assert not out_file.exists()


def test_generate_left_right_builds_only_the_orientation(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense family was built for a left-right orientation")

    for name in ("complete", "complete_bipartite", "random_graph", "random_connected", "random_digraph"):
        monkeypatch.setattr(generators, name, refuse)
    out_file = tmp_path / "x.txt"
    flags = ("--orient", "left-right", "--out", str(out_file))
    assert run(capsys, "generate", "--family", "complete-bipartite", "--params", "2", "2", *flags) == (0, "", "")
    assert out_file.read_bytes() == graph_to_text(orient_left_right(2, 2)).encode()
    out_file.unlink()
    code, out, err = run(capsys, "generate", "--family", "complete", "--params", "5", *flags)
    assert (code, out) == (2, "")
    assert err == "error: left-right orientation only applies to complete-bipartite\n"
    assert not out_file.exists()


def test_generate_left_right_requires_bipartite(tmp_path, capsys):
    code, _, err = run(
        capsys, "generate", "--family", "cycle", "--params", "5",
        "--orient", "left-right", "--out", str(tmp_path / "x.txt"),
    )
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--suite", "edge-joint", "--instances", "-3"),
        ("--suite", "closed-forms", "--instances", "0"),
        ("--suite", "lemma34", "--instances", "0"),
        ("--suite", "edge-joint", "--seed", "-1"),
        ("--suite", "edge-joint", "--seed", "0x10000000000000000"),
    ],
)
def test_audit_bad_count_or_seed_is_usage_error(tmp_path, capsys, flags):
    out_file = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["audit", *flags, "--out", str(out_file)])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out_file.exists()


def test_commands_without_report_skip_the_oracle(tmp_path, capsys, monkeypatch):
    def refuse(dm):
        raise AssertionError("irr_naive called without --report")

    monkeypatch.setattr("totirr.irregularity.irr_naive", refuse)
    monkeypatch.setattr("totirr.audit.irr_naive", refuse)
    p4 = write(tmp_path, "p4.txt", "U 4\n0 1\n1 2\n2 3\n")
    ring = write(tmp_path, "ring.txt", "D 4\n0 1\n1 2\n2 3\n3 0\n")
    k1 = write(tmp_path, "k1.txt", "U 1\n")
    cases = [
        (["transform", "--input", p4, "--cut", "1", "0", "--target", "2"], "U 4\n0 2\n1 2\n2 3\n"),
        (["transform", "--input", ring, "--cut", "0", "1", "--target", "2", "--end", "head"],
         "D 4\n0 2\n1 2\n2 3\n3 0\n"),
        (["transform", "--input", ring, "--cut", "0", "1", "--target", "3", "--end", "tail"],
         "D 4\n1 2\n2 3\n3 0\n3 1\n"),
        (["joint", "--left", k1, "--right", p4, "--u", "0", "--v", "1"], "U 5\n0 2\n1 2\n2 3\n3 4\n"),
    ]
    for i, (argv, want) in enumerate(cases):
        out_file = tmp_path / f"out{i}.txt"
        code, out, _ = run(capsys, *argv, "--out", str(out_file))
        assert code == 0
        assert out == ""
        assert out_file.read_text(encoding="utf-8") == want


def test_transform_report_on_a_long_path(tmp_path, capsys):
    # path: two ends of degree 1, n - 2 inner vertices of degree 2, so irr = 2(n - 2);
    # moving edge 1-0 onto 2 leaves degrees 1 x3, 2 x(n - 4), 3 x1, so irr = 4n - 10
    n = 20_000
    edges = "".join(f"{i} {i + 1}\n" for i in range(n - 1))
    f = write(tmp_path, "path.txt", f"U {n}\n{edges}")
    code, out, _ = run(capsys, "transform", "--input", f, "--cut", "1", "0", "--target", "2", "--report")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == [f"irr_before={2 * (n - 2)}", f"oracle_irr={4 * n - 10}", f"engine_delta={2 * n - 6}"]


def test_report_builds_the_edited_value_once(tmp_path, capsys, monkeypatch):
    calls = {"cut_side": 0, "graph": 0}
    real_cut_side, real_init = transforms.cut_side, Graph.__post_init__

    def counting_cut_side(*args):
        calls["cut_side"] += 1
        return real_cut_side(*args)

    def counting_init(self):
        calls["graph"] += 1
        real_init(self)

    monkeypatch.setattr(transforms, "cut_side", counting_cut_side)
    monkeypatch.setattr(Graph, "__post_init__", counting_init)
    p4 = write(tmp_path, "p4.txt", "U 4\n0 1\n1 2\n2 3\n")
    assert run(capsys, "transform", "--input", p4, "--cut", "1", "0", "--target", "2", "--report")[0] == 0
    assert calls == {"cut_side": 1, "graph": 1}  # the read; one cut-edge check
    calls.update(cut_side=0, graph=0)
    assert run(capsys, "joint", "--left", p4, "--right", p4, "--u", "0", "--v", "3", "--report")[0] == 0
    assert calls == {"cut_side": 0, "graph": 3}  # two reads; the joined graph
