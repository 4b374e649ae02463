"""Fuzzed command lines end in a documented exit code.

Hypothesis builds argv per subcommand from numbers at and past every
cap, bad p, a, e and m in both modes, weights outside the class, bad
radii and ranges, and every ``--format``, and runs each in-process
through ``cli.main``.  Valid requests are drawn small (weights below
``SMALL``, ranges ending below ``RANGE_END``) and ``--jobs`` stays at 1
or 2, so the deadline bounds faults, not honest work: a valid
``dist --k-range 10:50000`` takes minutes, and ``verify`` with m = 32
over 1700:2000 takes seconds.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghost_slopes import cli
from ghost_slopes.cli import FORMATS, MAX_GHOST_N, MAX_MOMENT_ORDER, MAX_RADIUS_CHARS, MAX_RANGE_WEIGHTS
from ghost_slopes.errors import ConfigError
from ghost_slopes.ghost import K_CEILING, MAX_GLOBAL_MULT, MAX_TABLE_INDEX, GhostContext

DOCUMENTED = (0, 1, 2, 3, 141)  # the exit codes README lists
SMALL = 2000  # valid weights stay below it
RANGE_END = 600  # and valid ranges end below it, as verify's default 10:600 does
DEFAULT = GhostContext(7, 2, 1)


def at_and_past(cap: int) -> list:
    return [cap - 1, cap, cap + 1]


# contexts that hold: the default, both modes, a large prime, the largest m
VALID_CONTEXTS = st.sampled_from(
    [(), ("-p", "5", "-a", "1", "-e", "0"), ("-p", "11", "-a", "6", "-e", "9", "-m", "3", "--mode", "strict"),
     ("-p", "13", "-a", "5", "-e", "11", "-m", str(MAX_GLOBAL_MULT)), ("-p", "31607", "-a", "2", "-e", "1")]
)


@st.composite
def context_flags(draw) -> tuple:
    """(the -p -a -e -m --mode flags, the context they name or None)."""
    if draw(st.booleans()):
        flags = list(draw(VALID_CONTEXTS))
    else:
        # composite, negative and tiny p, p at and past K_CEILING, and
        # a, e and m at and past their ranges, in both modes
        p = draw(st.sampled_from([-7, 0, 1, 2, 4, 7, 9, 11, 13, *at_and_past(K_CEILING), 999999937]))
        a = draw(st.sampled_from([-1, 0, 1, 2, p - 5, p - 4, p - 3]))
        e = draw(st.sampled_from([-1, 0, 1, p - 2, p - 1]))
        m = draw(st.sampled_from([-1, 0, 1, *at_and_past(MAX_GLOBAL_MULT)]))
        mode = draw(st.sampled_from(["strict", "exploratory"]))
        flags = ["-p", str(p), "-a", str(a), "-e", str(e), "-m", str(m), "--mode", mode]
    try:
        ctx = cli._context(cli.build_parser().parse_args(["ghost", "-n", "0", *flags]))
    except ConfigError:
        ctx = None
    return flags, ctx


def weights(ctx: GhostContext) -> st.SearchStrategy:
    """Class weights below SMALL, weights outside the class, and weights
    at and past K_CEILING and the first bullets past MAX_TABLE_INDEX."""
    pm1 = ctx.p - 1
    top = ctx.weight_of_bullet((K_CEILING - ctx.k_eps) // pm1)  # the last class weight under K_CEILING
    table_cap = ctx.weight_of_bullet(MAX_TABLE_INDEX // 2 + 1)  # first bullet whose d_iw passes the cap
    small = list(ctx.class_members(ctx.k_eps, SMALL)) or [ctx.k_eps]  # k_eps passes SMALL at large p
    return st.one_of(
        st.sampled_from(small),
        st.sampled_from(small).map(lambda k: k + 1),
        st.sampled_from([0, 1, -1, -ctx.k_eps, ctx.k_eps - pm1]),
        st.sampled_from([*at_and_past(K_CEILING), top, top + pm1, table_cap, table_cap + pm1, 10**30]),
    ).map(str)


def ranges(ctx: GhostContext) -> st.SearchStrategy:
    """Weight ranges: small valid, reversed, empty, one-weight, malformed,
    past K_CEILING, and at and past MAX_RANGE_WEIGHTS."""
    pm1 = ctx.p - 1
    small = list(ctx.class_members(ctx.k_eps, SMALL)) or [ctx.k_eps]  # k_eps passes SMALL at large p
    # the first weights past the table cap, so a range of MAX_RANGE_WEIGHTS weights is refused, not run
    high = ctx.weight_of_bullet(MAX_TABLE_INDEX // 2 + 1)
    spans = st.tuples(st.integers(0, RANGE_END - 200), st.integers(0, 200))
    return st.one_of(
        spans.map(lambda s: f"{s[0]}:{s[0] + s[1]}"),
        spans.filter(lambda s: s[1]).map(lambda s: f"{s[0] + s[1]}:{s[0]}"),
        st.sampled_from(small).map(lambda k: f"{k}:{k}"),
        st.sampled_from(small).map(lambda k: f"{k + 1}:{k + pm1 - 1}"),
        st.sampled_from(["", ":", "10", "a:b", "10:20:30", "1e3:2000", "-6:30", f"{K_CEILING - 600}:{K_CEILING + 1}"]),
        st.sampled_from([MAX_RANGE_WEIGHTS, MAX_RANGE_WEIGHTS + 1]).map(
            lambda n: f"{high}:{high + (n - 1) * pm1}"
        ),
        st.just(f"{ctx.k_eps}:{ctx.weight_of_bullet(MAX_RANGE_WEIGHTS)}"),
        st.just(f"{K_CEILING - 6000}:{K_CEILING}"),
    )


RADII = st.one_of(
    st.integers(1, 40).map(str),
    st.tuples(st.integers(1, 40), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(
        ["inf", " inf", "2.5", "0", "0/3", "-1", "-3/2", "1/0", "0/0", "1e3", "1E-2", "2e0", "-inf",
         "nan", "", "x", "1" * MAX_RADIUS_CHARS, "1" * (MAX_RADIUS_CHARS + 1),
         "1/" + "1" * (MAX_RADIUS_CHARS - 2), "1/" + "1" * (MAX_RADIUS_CHARS - 1)]
    ),
)


@st.composite
def argvs(draw) -> list:
    command = draw(st.sampled_from(sorted(cli.DISPATCH)))
    flags, ctx = draw(context_flags())
    ctx = ctx or DEFAULT  # bad flags end the request; the weights may be any
    if command == "ghost":
        head = ["-n", str(draw(st.sampled_from([-1, 0, 1, 2, 8, *at_and_past(MAX_GHOST_N)])))]
    elif command == "slopes":
        head = ["-k", draw(weights(ctx)), "-r", draw(RADII)]
    elif command in ("thresholds", "predict"):
        head = ["-k", draw(weights(ctx))]
    elif command == "dist":
        head = ["--k-range", draw(ranges(ctx)), "-n", str(draw(st.sampled_from([-1, 0, 1, 2, *at_and_past(MAX_MOMENT_ORDER)])))]
    else:
        head = ["--k-range", draw(ranges(ctx)), "--seed", str(draw(st.integers(0, 9)))]
    fmt = draw(st.sampled_from([*FORMATS, "xml"]))
    return [command, *head, *flags, "--format", fmt, "--jobs", draw(st.sampled_from(["1", "2"]))]


@example(argv=["verify", "--k-range", "3000006:3060000"])  # minutes of suites before the table cap refused it
@given(argv=argvs())
@settings(max_examples=150, deadline=timedelta(seconds=5))
def test_fuzzed_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in DOCUMENTED
    assert "Traceback" not in err
    if code in (1, 2):
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
