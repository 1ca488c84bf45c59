"""Command-line behavior: subcommands, artifacts, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from looptest import casegen
from looptest.cli import CASE_KINDS, _write_atomic, main
from looptest.dsl import load_model, load_suite, parse_reqs


MODEL_TEXT = """model run;
nondet go : bool;
input x : int 0..3 = 0;
output y : bool = false;
plant {
  x = go && x < 3 ? x + 1 : x;
}
controller {
  y = x == 3;
}
"""

REQS_TEXT = """R_low expect-pass : G (x < 2);
R_any expect-fail : G (x >= 0);
R_hit : F (y);
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "run.clm").write_text(MODEL_TEXT)
    (tmp_path / "run.ltl").write_text(REQS_TEXT)
    return tmp_path


def _generate(workdir, *extra):
    return main(["generate",
                 "--model", str(workdir / "run.clm"),
                 "--reqs", str(workdir / "run.ltl"),
                 "--max-len", "6",
                 "--out", str(workdir / "suite.cts"), *extra])


def _execute(workdir, *extra):
    return main(["execute",
                 "--model", str(workdir / "run.clm"),
                 "--reqs", str(workdir / "run.ltl"),
                 "--suite", str(workdir / "suite.cts"), *extra])


def test_case_kinds_are_the_casegen_builders():
    # the parser lists them without loading casegen
    assert CASE_KINDS == tuple(sorted(casegen.BUILDERS))


def test_casegen_writes_both_files(tmp_path, capsys):
    rc = main(["casegen", "elevator", "--n", "2",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [str(tmp_path / "elevator2.clm"),
                   str(tmp_path / "elevator2.ltl")]
    model = load_model(str(tmp_path / "elevator2.clm"))
    assert model.name == "elevator2"
    reqs = parse_reqs((tmp_path / "elevator2.ltl").read_text(), model)
    assert len(reqs) == 16
    assert not list(tmp_path.glob("*.tmp"))


def test_generate_writes_suite_and_reports_goals(workdir, capsys):
    rc = _generate(workdir)
    assert rc == 0
    assert capsys.readouterr().out == """\
goal 1 var x=0 :: COVERED test=t0 pos=0
goal 2 var x=1 :: COVERED test=t1 pos=1
goal 3 var x=2 :: SUBSUMED test=t1
goal 4 var x=3 :: SUBSUMED test=t1
goal 5 var y=false :: SUBSUMED test=t0
goal 6 var y=true :: SUBSUMED test=t1
goal 7 sub R_low x < 2 :: SUBSUMED test=t0
goal 8 sub R_low !(x < 2) :: SUBSUMED test=t1
goal 9 sub R_any x >= 0 :: SUBSUMED test=t0
goal 10 sub R_any !(x >= 0) :: UNREACHABLE(bound=6)
suite 2/2
"""
    model = load_model(str(workdir / "run.clm"))
    suite = load_suite(str(workdir / "suite.cts"), model)
    assert [c.tid for c in suite.cases] == ["t0", "t1"]
    assert not list(workdir.glob("*.tmp"))


def test_execute_reports_verdicts_and_exits_1_on_violations(workdir, capsys):
    _generate(workdir)
    capsys.readouterr()
    rc = _execute(workdir)
    out = capsys.readouterr().out
    assert rc == 1
    assert "REQ R_low VIOLATED test=t1" in out
    assert "REQ R_any PASS-ON-SUITE" in out
    assert out.rstrip().endswith("violated=2 passed=1 errored=0")


def test_execute_exits_0_when_everything_passes(workdir, capsys):
    (workdir / "run.ltl").write_text("R_ok : G (x <= 3);\n")
    _generate(workdir)
    capsys.readouterr()
    assert _execute(workdir) == 0


def test_check_expectations_swaps_the_failure_condition(workdir, capsys):
    _generate(workdir)
    capsys.readouterr()
    rc = _execute(workdir, "--check-expectations")
    out = capsys.readouterr().out
    # R_low misses (tagged pass, violated); R_any misses the other way
    # around; untagged R_hit is violated but never a miss.
    assert rc == 1
    assert "MISS R_low tagged expect-pass but VIOLATED" in out
    assert "MISS R_any tagged expect-fail but PASS-ON-SUITE" in out
    assert "MISS R_hit" not in out

    (workdir / "run.ltl").write_text(
        "R_low expect-fail : G (x < 2);\n"
        "R_hit : F (y);\n")
    rc = _execute(workdir, "--check-expectations")
    out = capsys.readouterr().out
    # the only tag now matches its verdict, so violations alone do not fail
    assert rc == 0
    assert "MISS" not in out


def test_pipeline_writes_artifacts_and_summary(workdir, capsys):
    out_dir = workdir / "res"
    rc = main(["pipeline",
               "--model", str(workdir / "run.clm"),
               "--reqs", str(workdir / "run.ltl"),
               "--max-len", "6",
               "--out-dir", str(out_dir)])
    assert rc == 1
    assert capsys.readouterr().out == "generated=2/2 violated=2 passed=1\n"
    suite_text = (out_dir / "suite.cts").read_text()
    assert suite_text.startswith("suite go\n")
    generation = (out_dir / "generation.txt").read_text()
    assert generation.endswith("suite 2/2\n")
    execution = (out_dir / "execution.txt").read_text()
    assert execution.rstrip().endswith("violated=2 passed=1 errored=0")


def test_pipeline_check_expectations_counts_misses(workdir, capsys):
    out_dir = workdir / "res"
    rc = main(["pipeline",
               "--model", str(workdir / "run.clm"),
               "--reqs", str(workdir / "run.ltl"),
               "--max-len", "6",
               "--out-dir", str(out_dir),
               "--check-expectations"])
    assert rc == 1
    line = capsys.readouterr().out
    assert line == "generated=2/2 violated=2 passed=1 misses=2\n"


def test_pipeline_reruns_are_byte_identical(workdir, capsys):
    texts = []
    for name in ("a", "b"):
        out_dir = workdir / name
        main(["pipeline",
              "--model", str(workdir / "run.clm"),
              "--reqs", str(workdir / "run.ltl"),
              "--max-len", "6",
              "--out-dir", str(out_dir)])
        texts.append(tuple(
            (out_dir / art).read_bytes()
            for art in ("suite.cts", "generation.txt", "execution.txt")))
    capsys.readouterr()
    assert texts[0] == texts[1]


# The pipeline in a process that allocates first, so its nodes sit at other
# addresses: argv is the source directory, the objects to allocate and the
# command line.
_BALLASTED = """
import sys
sys.path.insert(0, sys.argv[1])
ballast = [object() for _ in range(int(sys.argv[2]))]
from looptest.cli import main
sys.exit(main(sys.argv[3:]))
"""


def test_pipeline_is_byte_identical_across_processes(tmp_path):
    study = casegen.pnp(3)
    (tmp_path / "pnp3.clm").write_text(study.model_text)
    (tmp_path / "pnp3.ltl").write_text(study.reqs_text)
    src = Path(__file__).resolve().parent.parent / "src"
    runs = []
    for seed, ballast in (("1", "0"), ("12345", "100000")):
        out_dir = tmp_path / seed
        proc = subprocess.run(
            [sys.executable, "-c", _BALLASTED, str(src), ballast, "pipeline",
             "--model", str(tmp_path / "pnp3.clm"),
             "--reqs", str(tmp_path / "pnp3.ltl"),
             "--max-len", "11", "--goals", "all", "--out-dir", str(out_dir)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode in (0, 1), proc.stderr
        runs.append((proc.returncode, proc.stdout) + tuple(
            (out_dir / art).read_bytes()
            for art in ("suite.cts", "generation.txt", "execution.txt")))
    assert runs[0] == runs[1]


def test_pipeline_writes_past_stale_temporary_files(workdir, capsys):
    out_dir = workdir / "res"
    (out_dir / "suite.cts.tmp").mkdir(parents=True)
    rc = main(["pipeline",
               "--model", str(workdir / "run.clm"),
               "--reqs", str(workdir / "run.ltl"),
               "--max-len", "6",
               "--out-dir", str(out_dir)])
    assert rc == 1
    assert capsys.readouterr().out == "generated=2/2 violated=2 passed=1\n"
    assert sorted(p.name for p in out_dir.iterdir()) == \
        ["execution.txt", "generation.txt", "suite.cts", "suite.cts.tmp"]
    assert (out_dir / "suite.cts").read_text().startswith("suite go\n")


def test_failed_write_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "suite.cts"
    target.mkdir()  # a file cannot replace a directory
    with pytest.raises(OSError):
        _write_atomic(str(target), "suite go\n")
    assert [p.name for p in tmp_path.iterdir()] == ["suite.cts"]


def test_usage_and_input_errors_exit_2(workdir, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["generate", "--model", str(workdir / "nope.clm"),
                 "--reqs", str(workdir / "run.ltl"),
                 "--max-len", "4",
                 "--out", str(workdir / "s.cts")]) == 2
    (workdir / "broken.clm").write_text("model broken\n")
    assert main(["generate", "--model", str(workdir / "broken.clm"),
                 "--reqs", str(workdir / "run.ltl"),
                 "--max-len", "4",
                 "--out", str(workdir / "s.cts")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_exhausted_budgets_exit_3(workdir, capsys):
    rc = _generate(workdir, "--state-cap", "1")
    assert rc == 3
    assert "state budget" in capsys.readouterr().err


def test_pipeline_abort_keeps_the_partial_generation_report(workdir, capsys):
    out_dir = workdir / "res"
    rc = main(["pipeline",
               "--model", str(workdir / "run.clm"),
               "--reqs", str(workdir / "run.ltl"),
               "--max-len", "6",
               "--out-dir", str(out_dir),
               "--state-cap", "1"])
    assert rc == 3
    assert "state budget of 1 exhausted" in capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) == ["generation.txt"]
    assert (out_dir / "generation.txt").read_text() == (
        "goal 1 var x=0 :: COVERED test=t0 pos=0\n"
        "goal 5 var y=false :: SUBSUMED test=t0\n"
        "goal 7 sub R_low x < 2 :: SUBSUMED test=t0\n"
        "goal 9 sub R_any x >= 0 :: SUBSUMED test=t0\n"
        "suite 1/1\n"
        "ABORTED state budget of 1 exhausted\n")


def test_runtime_model_errors_exit_3(workdir, capsys):
    _generate(workdir)
    capsys.readouterr()
    # unwinding the climbing test takes four steps, so a cap of two turns
    # every verdict into an error
    rc = _execute(workdir, "--step-cap", "2")
    out = capsys.readouterr().out
    assert rc == 3
    assert "ERROR" in out
    rc = _execute(workdir, "--step-cap", "2", "--check-expectations")
    capsys.readouterr()
    assert rc == 3


def test_deep_model_loads_and_runs(tmp_path, capsys):
    # the chain nests 3,000 deep, past the interpreter's recursion limit
    chain = " || ".join(["u"] * 3000)
    (tmp_path / "deep.clm").write_text(f"""model deep;
nondet u : bool;
output y : bool = false;
plant {{
}}
controller {{
  y = {chain};
}}
""")
    (tmp_path / "deep.ltl").write_text("R_y expect-pass : G (y == u);\n")
    load_model(str(tmp_path / "deep.clm"))
    rc = main(["pipeline", "--model", str(tmp_path / "deep.clm"),
               "--reqs", str(tmp_path / "deep.ltl"), "--max-len", "3",
               "--out-dir", str(tmp_path / "out")])
    assert capsys.readouterr().out == \
        "generated=2/2 violated=0 passed=1\n"
    assert rc == 0


def test_module_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "looptest", "casegen", "pnp",
         "--n", "2", "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "pnp2.clm").exists()
    proc = subprocess.run([sys.executable, "-m", "looptest", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "casegen" in proc.stdout
