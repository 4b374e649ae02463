"""The modules a point command's process newly loads, and those only verify loads.

Run in a fresh interpreter, with ghost_slopes importable:

    python3 tests/cold_import.py

It imports ``ghost_slopes.cli``, serves every point command through ``main``
and then ``verify``, and prints which of the WATCHED modules the import and
the point commands newly loaded, counted against ``sys.modules`` before the
import, as ``site`` preloads some of them on some Pythons; then the exit codes
and the suite modules loaded at the end.  It exits 1 when the import or a point
command loaded a watched module, a command failed, or verify left the suites
unloaded.  The tests run it against the checkout, and CI against the installed
package from outside the checkout.
"""

import io
import sys
from contextlib import redirect_stdout

WATCHED = ("dataclasses", "inspect", "random", "ghost_slopes.checks", "ghost_slopes.wedge")
SUITES = WATCHED[-2:]
POINT = (
    ["ghost", "-n", "3"],
    ["slopes", "-k", "24", "-r", "7"],
    ["slopes", "-k", "24", "-r", "1/2", "--format", "csv"],
    ["thresholds", "-k", "24", "--format", "json"],
    ["predict", "-k", "24"],
)
before = set(sys.modules)


def new() -> list:
    return [m for m in WATCHED if m in sys.modules and m not in before]


from ghost_slopes.cli import main  # noqa: E402  (after the snapshot it is measured against)

on_import = new()
with redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in POINT]
    on_point = new()
    codes.append(main(["verify", "--k-range", "10:60"]))
suites = [m for m in SUITES if m in sys.modules]
print(on_import, on_point, codes, suites)
sys.exit(int(bool(on_import or on_point or any(codes) or suites != list(SUITES))))
