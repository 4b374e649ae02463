"""End-to-end tests of the command-line driver: output bytes and exit codes."""

import concurrent.futures
import gc
import json
import os
import resource
import subprocess
import sys
import time
import weakref

import pytest

from ghost_slopes import checks, cli, ghost
from ghost_slopes.cli import FORMATS, MAX_RANGE_WEIGHTS, build_parser, main
from ghost_slopes.distribution import SampleKind


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_1gb(*argv):
    """The CLI in a subprocess whose address space is capped at 1 GiB."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run(
        [sys.executable, "-m", "ghost_slopes", *argv],
        capture_output=True,
        text=True,
        preexec_fn=limit,
    )


class TestGhostCommand:
    def test_first_polynomial(self, capsys):
        code, out, _ = run(capsys, "ghost", "-n", "1")
        assert code == 0
        assert out == "g_1(w) = (w - w_6)\n"

    def test_zero_count_is_empty(self, capsys):
        code, out, _ = run(capsys, "ghost", "-n", "0")
        assert code == 0
        assert out == ""

    def test_table_rendering_spot_checks(self, capsys):
        code, out, _ = run(capsys, "ghost", "-n", "8")
        lines = out.strip().split("\n")
        assert code == 0
        assert len(lines) == 8
        assert "(w - w_24)^3" in lines[3]
        assert lines[3].endswith("(w - w_78)")
        assert "(w - w_48)^6" in lines[7]
        assert lines[7].endswith("(w - w_174)")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "ghost", "-n", "3", "--format", "json")
        polys = json.loads(out)
        assert code == 0
        assert [gp["n"] for gp in polys] == [1, 2, 3]
        assert polys[0]["zeros"] == [{"k": 6, "mult": 1}]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "ghost", "-n", "2", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "n,k,mult"
        assert lines[1] == "1,6,1"
        assert lines[2] == "2,12,1"

    def test_empty_coefficient_renders_as_one(self, capsys):
        # (5,1,0) has t1 = 0, so g_1 has no zeros: the empty product is 1
        code, out, _ = run(capsys, "ghost", "-n", "2", "-p", "5", "-a", "1", "-e", "0")
        assert code == 0
        assert out == "g_1(w) = 1\ng_2(w) = (w - w_7) (w - w_11)\n"

    def test_negative_count_rejected(self, capsys):
        code, _, err = run(capsys, "ghost", "-n", "-3")
        assert code == 1
        assert "error" in err


class TestSlopesCommand:
    def test_locked_radius(self, capsys):
        code, out, _ = run(capsys, "slopes", "-k", "24", "-r", "10")
        assert code == 0
        assert out == "11\n" * 6

    def test_intermediate_radius(self, capsys):
        code, out, _ = run(capsys, "slopes", "-k", "24", "-r", "7")
        assert out.split() == ["9", "11", "11", "11", "11", "13"]

    def test_rational_radius(self, capsys):
        code, out, _ = run(capsys, "slopes", "-k", "24", "-r", "5/2")
        assert code == 0
        assert len(out.split()) == 6

    def test_infinite_radius(self, capsys):
        code, out, _ = run(capsys, "slopes", "-k", "24", "-r", "inf")
        assert code == 0
        assert len(out.split()) == 6

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "slopes", "-k", "24", "-r", "10", "--format", "json")
        data = json.loads(out)
        assert data == {"k": 24, "radius": "10", "newslopes": ["11"] * 6}
        # every spelling of one radius prints it in lowest terms
        for radius in ("10/4", "2.5", "5/2"):
            code, out, _ = run(capsys, "slopes", "-k", "24", "-r", radius, "--format", "json")
            assert json.loads(out) == {
                "k": 24,
                "radius": "5/2",
                "newslopes": ["9/2", "15/2", "11", "11", "29/2", "35/2"],
            }

    def test_off_class_weight_is_domain_error(self, capsys):
        code, _, err = run(capsys, "slopes", "-k", "25", "-r", "2")
        assert code == 2
        assert "not in the class" in err

    def test_bad_radius_is_config_error(self, capsys):
        for radius in ("three", "-1", "0"):
            code, _, err = run(capsys, "slopes", "-k", "24", "-r", radius)
            assert code == 1

    @pytest.mark.parametrize(
        "radius, fmt",
        [("1e-100000", "table"), ("1e5000", "json"), ("7" * 4300 + "/" + "3" * 4300, "table"),
         ("1e20000000", "table")],
        ids=["1e-100000", "1e5000-json", "4300-digits-over-4300", "1e20000000"],
    )
    def test_unbounded_radius_is_config_error(self, capsys, radius, fmt):
        # exponent notation and long texts are refused before they are parsed:
        # these once printed past Python's int-to-text digit limit with a
        # traceback, or ran for half a minute
        start = time.perf_counter()
        code, out, err = run(capsys, "slopes", "-k", "24", "-r", radius, "--format", fmt)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "") and "MAX_RADIUS_CHARS" in err and "Traceback" not in err


class TestThresholdsCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "thresholds", "-k", "24")
        assert code == 0
        assert out.split("\n")[:3] == [
            "CS_1(24) = 9 [closed]",
            "CS_2(24) = 6 [closed]",
            "CS_3(24) = 2 [sweep]",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "thresholds", "-k", "24", "--format", "json")
        assert json.loads(out) == {
            "k": 24,
            "local": ["9", "6", "2", "1", "6", "9"],
            "provenance": ["closed", "closed", "sweep", "sweep", "closed", "closed"],
            "global_mult": 1,
        }

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "thresholds", "-k", "24", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "n,value,provenance"
        assert lines[1] == "1,9,closed"
        assert lines[4] == "4,1,sweep"

    @pytest.mark.parametrize("k", ["1008006", "2016006"])
    def test_large_prime_tables_past_k_ceiling_bullets(self, capsys, k):
        # a thousandth of K_CEILING: the tables reach n ~ 2,000, whose bullet
        # bound lies past weight K_CEILING, walked in strides of p; K_CEILING
        # once refused these with exit 2 ("weight scan exceeds K_CEILING")
        code, out, err = run(capsys, "thresholds", "-p", "1009", "-a", "2", "-e", "1", "-k", k)
        assert code == 0
        assert err == ""
        assert out.startswith(f"CS_1({k}) = ")
        assert "[sweep]" in out

    def test_large_prime_weight_far_below_k_ceiling(self, capsys):
        # the first class weight at p = 1009 whose degree table once grew
        # by doubling past K_CEILING's bullet bound
        code, out, err = run(capsys, "thresholds", "-p", "1009", "-a", "2", "-e", "1", "-k", "247974")
        assert code == 0
        assert err == ""
        assert out.startswith("CS_1(247974) = ")


class TestPredictCommand:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "predict", "-k", "24", "--format", "json")
        assert json.loads(out) == {
            "k": 24,
            "linv_known": [["-10", 2], ["-7", 2]],
            "floor": "-15/4",
            "exceptional": 2,
        }

    def test_table(self, capsys):
        code, out, _ = run(capsys, "predict", "-k", "24")
        assert out == "k = 24\nlinv -10 x2\nlinv -7 x2\nfloor -15/4 x2\n"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "predict", "-k", "24", "--format", "csv")
        assert out.strip().split("\n") == [
            "kind,slope,mult",
            "known,-10,2",
            "known,-7,2",
            "floor,-15/4,2",
        ]


class TestDistCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "dist", "--k-range", "10:100", "--format", "csv")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == (
            "k,kind,n,moment_num,moment_den,target_num,target_den,"
            "abs_error_decimal"
        )
        assert lines[1] == "12,derivative,1,2,3,1,2,0.166666666667"
        # weights 12..96, three kinds, two moment orders each
        assert len(lines) == 1 + 15 * 6

    def test_table_reports(self, capsys):
        code, out, _ = run(capsys, "dist", "--k-range", "10:100")
        lines = out.strip().split("\n")
        assert code == 0
        assert len(lines) == 6
        assert lines[0].startswith("threshold n=1 target=1/2 ")

    def test_json_reports(self, capsys):
        code, out, _ = run(capsys, "dist", "--k-range", "10:100", "--format", "json", "-n", "3")
        rows = json.loads(out)
        assert {r["kind"] for r in rows} == {"threshold", "derivative", "linv"}
        assert {r["n"] for r in rows} == {1, 2, 3}
        row = rows[0]
        assert row["ks"] == sorted(row["ks"])
        assert all("/" in m or m.lstrip("-").isdigit() for m in row["moments"])

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "argv",
        [("--k-range", "10:100"), ("--k-range", "6:400", "-p", "5", "-a", "1", "-e", "0")],
        ids=["p7", "p5-floor-only"],
    )
    def test_jobs_do_not_change_bytes(self, capsys, argv, fmt):
        # pins the streamed weight order and the last sample of each kind;
        # (5,1,0) has weights whose LINV sample holds only floor stand-ins
        _, serial, _ = run(capsys, "dist", *argv, "--format", fmt, "--jobs", "1")
        code, parallel, _ = run(capsys, "dist", *argv, "--format", fmt, "--jobs", "2")
        assert code == 0
        assert serial == parallel

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_report_holds_one_sample_per_kind(self, capsys, monkeypatch, fmt):
        # each sample shrinks to its moment row on arrival, so when the
        # report starts only the last sample of each kind is still alive
        alive, make, entered = weakref.WeakSet(), cli.sample, []

        def recording(*args):
            alive.add(s := make(*args))
            return s

        def checked(report):
            def entry(*args):
                gc.collect()
                kinds = [s.kind for s in alive]
                assert all(kinds.count(kind) <= 1 for kind in SampleKind), len(kinds)
                entered.append(report.__name__)
                return report(*args)

            return entry

        monkeypatch.setattr(cli, "sample", recording)
        for name in ("weyl_moments", "weyl_csv"):
            monkeypatch.setattr(cli, name, checked(getattr(cli, name)))
        # weights 12..198 of the class: 32 of them
        code, _, err = run(capsys, "dist", "--k-range", "10:200", "--format", fmt, "--jobs", "1")
        assert code == 0, err
        assert entered

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, out, err = run(capsys, "dist", "--k-range", "10:100", "--jobs", jobs)
        assert code == 1
        assert out == ""
        assert "--jobs" in err

    @pytest.mark.parametrize(
        "jobs, cpus, expected",
        [("1000", 4, 4), ("1000", 64, 15), ("3", 64, 3), ("2", 1, None)],
    )
    def test_pool_size_is_capped(self, capsys, monkeypatch, jobs, cpus, expected):
        # a recording stand-in for the pool: no process is started
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        # weights 12..96 of the class: 15 of them
        code, out, _ = run(capsys, "dist", "--k-range", "10:100", "--format", "csv", "--jobs", jobs)
        _, serial, _ = run(capsys, "dist", "--k-range", "10:100", "--format", "csv", "--jobs", "1")
        assert code == 0
        assert out == serial
        assert sizes == ([] if expected is None else [expected])

    def test_no_context_outlives_its_weight(self, capsys, monkeypatch):
        # every weight samples on a context of its own, in-process too, so
        # no context holds the derivative polygons of two weights
        make, built = cli._context, []

        def recording(args):
            built.append(make(args))
            return built[-1]

        monkeypatch.setattr(cli, "_context", recording)
        code, _, _ = run(capsys, "dist", "--k-range", "10:200", "--jobs", "1")
        assert code == 0
        assert len(built) > 1
        assert all(len(ctx._caches.get("derivative", {})) <= 1 for ctx in built)

    def test_zero_moment_order_rejected(self, capsys):
        code, out, err = run(capsys, "dist", "--k-range", "10:60", "-n", "0")
        assert code == 1
        assert out == ""
        assert "moment order" in err

    @pytest.mark.parametrize(
        "context, k_range",
        [
            (("-p", "5", "-a", "1", "-e", "0"), "6:40"),
            (("-p", "7", "-a", "3", "-e", "0"), "10:60"),
        ],
        ids=["p5-k7", "p7-k11"],
    )
    def test_floor_only_linv_sample_is_left_out(self, capsys, context, k_range):
        # (5,1,0) k = 7 and (7,3,0) k = 11 predict only floor stand-ins
        code, _, err = run(capsys, "dist", *context, "--k-range", k_range, "--jobs", "1")
        assert code == 0, err

    def test_floor_only_weight_has_no_linv_rows(self, capsys):
        code, out, _ = run(
            capsys, "dist", "-p", "5", "-a", "1", "-e", "0", "--k-range", "6:40", "--format", "csv", "--jobs", "1"
        )
        rows = [line.split(",")[:3] for line in out.split("\n") if line.startswith("7,")]
        assert code == 0
        assert rows == [["7", kind, n] for kind in ("derivative", "threshold") for n in ("1", "2")]

    def test_kind_with_two_samples_has_no_report(self, capsys):
        # in 6:16 only k = 11 and 15 hold a genuine LINV value, one short of a trend
        argv = ("dist", "--k-range", "6:16", "-p", "5", "-a", "1", "-e", "0", "--jobs", "1")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert [(r["kind"], r["n"], r["ks"]) for r in json.loads(out)] == [
            (kind, n, [7, 11, 15]) for kind in ("threshold", "derivative") for n in (1, 2)
        ]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert [line.split()[:2] for line in out.splitlines()] == [
            [kind, f"n={n}"] for kind in ("threshold", "derivative") for n in (1, 2)
        ]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert [line[:8] for line in out.splitlines() if ",linv," in line] == ["11,linv,", "11,linv,", "15,linv,", "15,linv,"]

    def test_empty_range_is_domain_error(self, capsys):
        code, _, err = run(capsys, "dist", "--k-range", "3:5")
        assert code == 2

    def test_backwards_range_is_config_error(self, capsys):
        code, _, _ = run(capsys, "dist", "--k-range", "50:10")
        assert code == 1


class TestVerifyCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        lines = out.strip().split("\n")
        assert code == 0
        assert len(lines) == 16
        assert all(line.startswith("ok ") for line in lines)

    def test_seed_changes_samples_not_outcome(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "12345")
        assert code == 0
        assert "FAIL" not in out

    def test_drifting_window_fails(self, capsys):
        # five weights whose first moment walks away from 1/2
        code, out, err = run(capsys, "verify", "--k-range", "36:60")
        assert code == 3
        assert "FAIL moment-trend" in out
        assert "failed" in err

    def test_too_small_range_is_config_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--k-range", "10:12")
        assert code == 1


class TestConfigValidation:
    def test_composite_prime(self, capsys):
        assert run(capsys, "ghost", "-p", "9", "-n", "1")[0] == 1

    def test_strict_mode_bounds(self, capsys):
        assert run(capsys, "ghost", "-p", "7", "--mode", "strict", "-n", "1")[0] == 1
        assert run(capsys, "ghost", "-p", "11", "-a", "3", "--mode", "strict", "-n", "1")[0] == 0

    def test_bad_residual_parameter(self, capsys):
        assert run(capsys, "ghost", "-a", "99", "-n", "1")[0] == 1

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "slopes", "-r", "2")[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [("thresholds",), ("predict",), ("slopes", "-r", "3")],
        ids=["thresholds", "predict", "slopes"],
    )
    def test_weight_above_k_ceiling_is_domain_error(self, capsys, argv):
        # a class weight above K_CEILING: refused as its bullet is found,
        # before any table is allocated
        code, out, err = run(capsys, *argv, "-k", "1000000000002")
        assert code == 2
        assert out == ""
        assert "weight k = 1000000000002 exceeds K_CEILING = 1000000000" in err

    @pytest.mark.parametrize("command", ["dist", "verify"])
    def test_k_range_above_k_ceiling_is_domain_error(self, capsys, command):
        # rejected before the class weights of the range are listed
        code, out, err = run(capsys, command, "--k-range", "10:10000000000")
        assert code == 2
        assert out == ""
        assert "K_CEILING = 1000000000" in err

    @pytest.mark.parametrize("command", ["dist", "verify"])
    def test_range_above_max_range_weights_is_domain_error(self, command):
        # 166,666,665 class weights under K_CEILING: refused before they are
        # listed, so a 1 GB address space is plenty
        proc = run_in_1gb(command, "--k-range", "10:1000000000", "--jobs", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert f"MAX_RANGE_WEIGHTS = {MAX_RANGE_WEIGHTS}" in proc.stderr

    @pytest.mark.parametrize(
        "argv, code, module, cap",
        [
            (("thresholds", "-k", "24", "-m", "1000000000"), 1, ghost, "MAX_GLOBAL_MULT"),
            (("predict", "-k", "24", "-m", "1000000000"), 1, ghost, "MAX_GLOBAL_MULT"),
            (("ghost", "-n", "100000000"), 1, cli, "MAX_GHOST_N"),
            (("dist", "--k-range", "10:100", "-n", "100000", "--jobs", "1"), 1, cli, "MAX_MOMENT_ORDER"),
            # a weight below K_CEILING whose tables would run to n = 33,333,332
            (("predict", "-k", "99999996"), 2, ghost, "MAX_TABLE_INDEX"),
            # a weight below K_CEILING whose tables would run to n = 333,333,332:
            # its bullet bound passes weight K_CEILING, but the tables walk it
            # by strides and answer to the table cap
            (("thresholds", "-k", "999999996"), 2, ghost, "MAX_TABLE_INDEX"),
        ],
        ids=["thresholds-m", "predict-m", "ghost-n", "dist-n", "predict-table", "thresholds-scan"],
    )
    def test_request_above_cap_is_refused(self, argv, code, module, cap):
        # each once ran out of a 1 GB address space with a MemoryError
        proc = run_in_1gb(*argv)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert f"{cap} = {getattr(module, cap)}" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [("thresholds", "-k", "6"), ("ghost", "-n", "3")],
        ids=["thresholds", "ghost"],
    )
    def test_prime_near_k_ceiling_is_domain_error(self, capsys, argv):
        # K_CEILING // (p - 1) + 2 = 3: every bullet range past bullet 3
        # is refused, after it is found and before it is walked
        code, out, err = run(capsys, *argv, "-p", "999999937", "-a", "2", "-e", "1")
        assert code == 2
        assert out == ""
        assert "K_CEILING = 1000000000" in err

    @pytest.mark.parametrize(
        "command, owner, attr",
        [("dist", cli, "sample"), ("verify", checks, "breakpoints_by_criterion")],
        ids=["dist", "verify"],
    )
    def test_out_of_memory_exits_2_with_one_line(self, capsys, monkeypatch, command, owner, attr):
        # a MemoryError planted in this process, so --jobs 1: a pool worker
        # would import the library afresh and miss the plant
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(owner, attr, out_of_memory)
        code, out, err = run(capsys, command, "--k-range", "10:200", "--jobs", "1")
        assert code == 2
        assert err == "error: out of memory\n"

    def test_prime_above_k_ceiling_is_config_error(self, capsys):
        # rejected before the trial division of the primality test
        code, out, err = run(capsys, "ghost", "-n", "1", "-p", "1000000000000000003")
        assert code == 1
        assert out == ""
        assert "K_CEILING = 1000000000" in err

    def test_parser_builds_all_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["thresholds", "-k", "24", "--format", "csv"])
        assert args.command == "thresholds"
        assert args.k == 24
        assert args.fmt == "csv"


def test_cache_variable_is_inert(capsys, tmp_path, monkeypatch):
    """GHOST_SLOPES_CACHE is inert: same bytes and exit code, and no files written."""
    runs = (
        ("thresholds", "-k", "24", "--format", "json"),
        ("dist", "--k-range", "10:200", "--jobs", "1"),
    )
    monkeypatch.delenv("GHOST_SLOPES_CACHE", raising=False)
    expected = [run(capsys, *argv) for argv in runs]
    assert all(code == 0 for code, _, _ in expected)
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    blocker = tmp_path / "file"
    blocker.write_text("")
    for root in (cache_dir, blocker / "cache"):
        monkeypatch.setenv("GHOST_SLOPES_CACHE", str(root))
        assert [run(capsys, *argv) for argv in runs] == expected
        assert list(cache_dir.iterdir()) == []


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ghost_slopes", "ghost", "-n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "g_1(w) = (w - w_6)\n"


def test_closed_stdout_exits_141_without_traceback():
    # unbuffered, so each verify line is one write; the write after the
    # reader is gone raises BrokenPipeError inside main
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "ghost_slopes", "verify", "--k-range", "10:2000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"ok ultrametric-distance\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""  # no traceback, no message
