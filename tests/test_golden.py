"""Golden bytes: audit reports, and the README's Python quick start and CLI
examples, at pinned inputs.

The digests are sha256 of each suite's CSV and JSON report at seed
0xC0FFEE. Any refactor of the audit, partitions, predictors or graph layers
must leave every one of them, and the README's example stdout, unchanged.
They also hold when apply_edit carries degrees off by one, because the
oracle counts an edited value's degrees from its own edges.
"""

import hashlib
import re
import sys
from pathlib import Path

import pytest

from totirr import graphs
from totirr.audit import (
    lemma34_suite,
    run_arc_transform_suite,
    run_closed_form_suite,
    run_edge_joint_suite,
    run_edge_transform_suite,
)
from totirr.cli import main

from strategies import off_by_one_carry

SEED = 0xC0FFEE
README = Path(__file__).resolve().parent.parent / "README.md"

GOLDEN = {
    "edge-joint": (
        lambda: run_edge_joint_suite(300, SEED),
        "3cfee6805f8b504aa000cfe049d0ed1bc13eb27abfdf735beaf50957730ab5b0",
        "cbf53d039b194289a6eb01ae2ea6934a54e4b6db5f297dd6421abe2f963eab5a",
    ),
    "edge-transform": (
        lambda: run_edge_transform_suite(300, SEED),
        "79f1d0d7edbca7ad9bfc4e214e73da3677d7874b459f331635b52307ebeea138",
        "1714df600ac63d7180475ec03bd5f40a095ae4b1b3da0a03012f2aac28397b95",
    ),
    "arc-transform": (
        lambda: run_arc_transform_suite(300, SEED),
        "a6f715ae60fde7d7d656ec455fd772a3f25bc640ee643ee525a7a0ec6d207460",
        "97dc59a702a9387a92bdf4944cfe6987254da315b46818be8eb823d86a9577b2",
    ),
    "lemma34": (
        lambda: lemma34_suite(200, SEED),
        "85a559bf4c3b22535ee6e5c7abf1adda1ce6f9fb414d6dea07cd168db84adb4d",
        "3cf52c6ec98b4cceb7fc4895e706843506ec273b68b22bc1c9140ae392e01fcc",
    ),
    "closed-forms": (
        lambda: run_closed_form_suite(20),
        "98fed8b2c261b8217dd36eea14d61784fb218bedbb41489df8959052d5463202",
        "6962c2e928deeaa8fe0d654d8a1e7887acc653928b11e70ff1de6f3ccd5ba21e",
    ),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("suite", sorted(GOLDEN))
def test_audit_report_bytes(suite):
    run, csv_digest, json_digest = GOLDEN[suite]
    report = run()
    assert _sha(report.to_csv()) == csv_digest
    assert _sha(report.to_json()) == json_digest


@pytest.mark.parametrize("suite", sorted(GOLDEN))
def test_audit_report_bytes_do_not_read_carried_degrees(suite, monkeypatch):
    # an edited value's oracle irr counts its own edges, so a carry that adds 1
    # at a touched vertex changes no report byte
    calls = []
    monkeypatch.setattr(graphs, "_carried", off_by_one_carry(graphs._carried, calls))
    run, csv_digest, json_digest = GOLDEN[suite]
    report = run()
    assert _sha(report.to_csv()) == csv_digest
    assert _sha(report.to_json()) == json_digest
    # every value counts its degrees when it is built, so every suite's edits carry them
    assert calls


def test_closed_forms_bytes_need_no_fast_path(monkeypatch):
    # every closed-form row is scored as every other suite's: the irr_naive oracle and one priced mode
    def refuse(*args):
        raise AssertionError("the closed-forms suite called a fast path")

    for module in [m for name, m in sys.modules.items() if name == "totirr" or name.startswith("totirr.")]:
        for name in ("irr_fast", "irr_digraph", "exact_delta_for_edit"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    run, csv_digest, json_digest = GOLDEN["closed-forms"]
    report = run()
    assert _sha(report.to_csv()) == csv_digest
    assert _sha(report.to_json()) == json_digest


def _cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_readme_joint_example(tmp_path, capsys):
    c3 = str(tmp_path / "c3.g")
    assert _cli(capsys, "generate", "--family", "cycle", "--params", "3", "--out", c3) == (0, "")
    code, out = _cli(capsys, "joint", "--left", c3, "--right", c3, "--u", "0", "--v", "0", "--report")
    assert code == 0
    assert out == (
        "union_irr=0\n"
        "oracle_irr=8\n"
        "engine_delta=8\n"
        "formula=Thm21Interim predicted=8 agrees=true\n"
        "formula=Thm21FinalA predicted=10 agrees=false\n"
        "formula=Thm21FinalB predicted=10 agrees=false\n"
        "formula=Prop27Equal predicted=10 agrees=false\n"
    )


def test_readme_transform_example(tmp_path, capsys):
    p4 = str(tmp_path / "p4.g")
    assert _cli(capsys, "generate", "--family", "path", "--params", "4", "--out", p4) == (0, "")
    code, out = _cli(capsys, "transform", "--input", p4, "--cut", "1", "0", "--target", "2", "--report")
    assert code == 0
    assert out == (
        "irr_before=4\n"
        "oracle_irr=6\n"
        "engine_delta=2\n"
        "formula=Thm33Case2 predicted=6 agrees=true\n"
    )


def test_readme_quick_start(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    exec(block, {})
    assert capsys.readouterr().out == "4\n4\n2\n12\n"


def test_readme_compute_example(tmp_path, capsys):
    star = str(tmp_path / "star.g")
    assert _cli(capsys, "generate", "--family", "star", "--params", "4", "--out", star) == (0, "")
    assert _cli(capsys, "compute", "--input", star) == (0, "irr_t=12\n")
