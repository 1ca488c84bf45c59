"""Command-line front end.

Subcommands:

  casegen   write a built-in case study's model and requirement files
  generate  build a coverage suite for a model and requirements
  execute   run a suite against requirements and report verdicts
  pipeline  generate then execute, writing all artifacts to a directory

Exit codes: 0 success, 1 requirement violations (or, under
--check-expectations, expectation misses), 2 usage or input errors,
3 runtime failures such as exhausted search budgets.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from .dsl import ParseError, load_model, load_reqs, load_suite, \
    serialize_suite
from .model import ModelError
from .sim import DEFAULT_STATE_CAP, DEFAULT_STEP_CAP

# Each subcommand imports the engines it runs, so a run loads no other.

#: The keys of casegen.BUILDERS, sorted; casegen itself is loaded only by
#: the casegen subcommand.
CASE_KINDS = ("elevator", "pnp")


def _write_atomic(path: str, text: str):
    """Write through a temporary file of its own beside path, so runs into
    one directory and leftovers of earlier runs do not collide."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        # mkstemp creates the file private; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _add_caps(sub):
    sub.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                     help="abort generation beyond this many reached states")
    sub.add_argument("--step-cap", type=int, default=DEFAULT_STEP_CAP,
                     help="abort beyond this many explicit search branch "
                          "steps, or steps of one lasso unwinding")


def _add_inputs(sub):
    """The model, requirements and search options of generate and pipeline."""
    sub.add_argument("--model", required=True, help="model file (.clm)")
    sub.add_argument("--reqs", required=True,
                     help="requirements file (.ltl)")
    sub.add_argument("--max-len", type=int, required=True,
                     help="maximum test case length")
    sub.add_argument("--goals", choices=("maximal", "all", "all-kinds"),
                     default="maximal", help="coverage goal selection")


def _load_inputs(args):
    """Load what _add_inputs and _add_caps name: model, reqs, config."""
    from .testgen import GeneratorConfig
    model = load_model(args.model)
    reqs = load_reqs(args.reqs, model)
    config = GeneratorConfig(max_len=args.max_len, goal_mode=args.goals,
                             state_cap=args.state_cap,
                             step_cap=args.step_cap)
    return model, reqs, config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="looptest",
        description="closed-loop test generation and checking")
    subs = parser.add_subparsers(dest="command", required=True)

    gen_case = subs.add_parser(
        "casegen", help="write a built-in case study to files")
    gen_case.add_argument("kind", choices=CASE_KINDS,
                          help="which case study to build")
    gen_case.add_argument("--n", type=int, required=True,
                          help="size parameter (floors / cylinders)")
    gen_case.add_argument("--out-dir", required=True,
                          help="directory for the .clm and .ltl files")
    gen_case.set_defaults(func=_cmd_casegen)

    gen = subs.add_parser("generate", help="generate a coverage suite")
    _add_inputs(gen)
    gen.add_argument("--out", required=True, help="suite file to write")
    _add_caps(gen)
    gen.set_defaults(func=_cmd_generate)

    ex = subs.add_parser("execute", help="run a suite against requirements")
    ex.add_argument("--model", required=True, help="model file (.clm)")
    ex.add_argument("--reqs", required=True, help="requirements file (.ltl)")
    ex.add_argument("--suite", required=True, help="suite file (.cts)")
    ex.add_argument("--step-cap", type=int, default=DEFAULT_STEP_CAP,
                    help="abort any single unwinding beyond this many steps")
    ex.add_argument("--check-expectations", action="store_true",
                    help="compare verdicts against expect-pass/expect-fail "
                         "tags and fail on mismatches instead of violations")
    ex.set_defaults(func=_cmd_execute)

    pipe = subs.add_parser("pipeline",
                           help="generate a suite, then execute it")
    _add_inputs(pipe)
    pipe.add_argument("--out-dir", required=True,
                      help="directory for suite.cts, generation.txt and "
                           "execution.txt")
    pipe.add_argument("--check-expectations", action="store_true",
                      help="compare verdicts against expectation tags and "
                           "fail on mismatches instead of violations")
    _add_caps(pipe)
    pipe.set_defaults(func=_cmd_pipeline)
    return parser


def _cmd_casegen(args) -> int:
    from . import casegen
    study = casegen.build(args.kind, args.n)
    os.makedirs(args.out_dir, exist_ok=True)
    model_path = os.path.join(args.out_dir, f"{study.name}.clm")
    reqs_path = os.path.join(args.out_dir, f"{study.name}.ltl")
    _write_atomic(model_path, study.model_text)
    _write_atomic(reqs_path, study.reqs_text)
    print(model_path)
    print(reqs_path)
    return 0


def _cmd_generate(args) -> int:
    from .testgen import generate_suite
    model, reqs, config = _load_inputs(args)
    suite, report = generate_suite(model, reqs, config)
    _write_atomic(args.out, serialize_suite(suite))
    sys.stdout.write(report.text())
    return 0


def _exit_code(report, misses: list, check_expectations: bool) -> int:
    """3 when a test errored; else 1 on expectation misses under
    --check-expectations, or on violations without it; else 0."""
    if report.errored:
        return 3
    failed = misses if check_expectations else report.violated
    return 1 if failed else 0


def _cmd_execute(args) -> int:
    from .runner import execute_suite
    model = load_model(args.model)
    reqs = load_reqs(args.reqs, model)
    suite = load_suite(args.suite, model)
    report = execute_suite(model, reqs, suite, step_cap=args.step_cap)
    sys.stdout.write(report.text())
    misses = []
    if args.check_expectations:
        misses = report.expectation_misses(reqs)
        for rid, expectation, verdict in misses:
            print(f"MISS {rid} tagged {expectation} but {verdict}")
    return _exit_code(report, misses, args.check_expectations)


def _cmd_pipeline(args) -> int:
    from .runner import execute_suite
    from .testgen import generate_suite
    model, reqs, config = _load_inputs(args)
    os.makedirs(args.out_dir, exist_ok=True)
    generation = os.path.join(args.out_dir, "generation.txt")
    try:
        suite, gen_report = generate_suite(model, reqs, config)
    except ModelError as err:
        # keep the goals decided before the abort; main() reports the error
        _write_atomic(generation,
                      f"{err.partial_report.text()}ABORTED {err}\n")
        raise
    _write_atomic(os.path.join(args.out_dir, "suite.cts"),
                  serialize_suite(suite))
    _write_atomic(generation, gen_report.text())
    report = execute_suite(model, reqs, suite, step_cap=args.step_cap)
    _write_atomic(os.path.join(args.out_dir, "execution.txt"),
                  report.text())
    summary = (f"generated={gen_report.test_count}"
               f"/{gen_report.element_count} "
               f"violated={report.violated} passed={report.passed}")
    misses = []
    if args.check_expectations:
        misses = report.expectation_misses(reqs)
        summary += f" misses={len(misses)}"
    print(summary)
    return _exit_code(report, misses, args.check_expectations)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return 2 if exit_.code else 0
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ModelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
