"""Golden bytes of the command-line driver.

Every subcommand runs in every output format on two contexts, the
default (7, 2, 1) and (11, 6, 9) with global multiplicity 3, and its
stdout and exit code must match ``cli_golden.json`` byte for byte.

To record the file again (only when an output change is intended):

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ghost_slopes.cli import build_parser, main

GOLDEN = Path(__file__).with_name("cli_golden.json")

# (context flags, weight, finite radius, rational radius below M(k), dist range)
CONTEXTS = (
    ((), "66", "7", "5/2", "10:150"),
    (("-p", "11", "-a", "6", "-e", "9", "-m", "3"), "96", "11", "3/2", "10:250"),
)


def golden_argvs() -> list:
    out = []
    for flags, k, r_fin, r_rat, k_range in CONTEXTS:
        for fmt in ("table", "json", "csv"):
            tail = [*flags, "--format", fmt]
            out += [
                ["ghost", "-n", "8", *tail],
                ["slopes", "-k", k, "-r", r_fin, *tail],
                ["slopes", "-k", k, "-r", r_rat, *tail],
                ["slopes", "-k", k, "-r", "inf", *tail],
                ["thresholds", "-k", k, *tail],
                ["predict", "-k", k, *tail],
                ["dist", "--k-range", k_range, "-n", "3", "--jobs", "1", *tail],
            ]
        out.append(["verify", *flags])
    return out


def run_cli(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def record() -> None:
    cases = []
    for argv in golden_argvs():
        code, stdout = run_cli(argv)
        cases.append({"argv": argv, "code": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


def _cases() -> list:
    # a missing file yields no cases; the coverage test then fails
    if not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command():
    assert [case["argv"] for case in _cases()] == golden_argvs()


@pytest.mark.parametrize("case", _cases(), ids=lambda case: " ".join(case["argv"]))
def test_golden_bytes(case):
    code, stdout = run_cli(case["argv"])
    assert (code, stdout) == (case["code"], case["stdout"])


def test_one_process_serves_every_request_twice():
    # main keeps nothing from one call to the next but its parser: the
    # golden bytes hold again after a refused configuration (exit 1) and a
    # refused weight (exit 2), and the parser is built once
    build_parser.cache_clear()
    cases = _cases()
    for case in cases:
        assert run_cli(case["argv"]) == (case["code"], case["stdout"])
    assert run_cli(["thresholds", "-p", "4", "-k", "24"]) == (1, "")
    assert run_cli(["thresholds", "-k", "0"]) == (2, "")
    for case in cases:
        assert run_cli(case["argv"]) == (case["code"], case["stdout"])
    assert build_parser.cache_info().misses == 1


if __name__ == "__main__":
    record()
