"""The CLI's CSV output against stored expected files.

Each file under tests/data/golden holds the output of one command, without its
code_version line. A refactor of these paths must keep every non-float cell
byte for byte and every float within 1e-10 relative or 1e-13 absolute.

After a change that is meant to move a value, regenerate the files with

    PYTHONPATH=src python tests/test_golden_cli.py

and say in CHANGES.md which cells moved.
"""

import io
import math
import os
import re
import sys
from contextlib import redirect_stdout

import pytest

from resmono import cli

DATA = os.path.join(os.path.dirname(__file__), "data", "golden")
P, Q = "2/3,1/12,1/4", "7/10,2/10,1/10"
ATHERMAL = "monotone --theory athermality --p 0.5,0.3,0.2 --gamma 0.7,0.2,0.1 --alpha"

GOLDEN = {
    "divergence": f"divergence --kind sandwiched --alpha 0.75 --p {P} --q {Q}",
    "divergence_umegaki": f"divergence --kind umegaki --p {P} --q {Q}",
    "divergence_dmax": f"divergence --kind dmax --p {P} --q {Q}",
    "divergence_petz": f"divergence --kind petz --alpha 0.75 --p {P} --q {Q}",
    "monotone": "monotone --theory coherence --alpha 0.5 --p 0.5,0.3,0.2",
    "smooth_appendix_b": "smooth --appendix-b",
    "regions": "regions --p 2/3,1/12,3/12 --gamma 7/10,2/10,1/10 --grid 20",
    "sweep": "sweep --gamma 0.999,0.001 --level 2.0 --grid 400",
    **{f"monotone_athermality_{a}": f"{ATHERMAL} {a}" for a in ("0.5", "1", "2", "inf")},
    "pairs": "pairs --which all",
    "bound": "bound --alpha 0.5 --eps-list 1e-1,1e-2,1e-3,1e-4,1e-5,1e-6",
    "exponent": "exponent --p1 0.6,0.4 --q1 0.5,0.5 --p2 0.55,0.45 --q2 0.5,0.5 --optimized",
    "catalyst": "catalyst --rho 0.8,0.2 --rho-prime 0.6,0.4 --eta 0.5,0.5 "
                "--eta-prime 0.5,0.5 --n 3",
}


def _output(cmd: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(cmd.split()) == 0
    return "".join(line for line in buf.getvalue().splitlines(keepends=True)
                   if not line.startswith("# code_version="))


def _cells(text: str) -> list:
    return [re.split(r"[,=|]", line) for line in text.splitlines()]


def _float(cell: str):
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(name):
    with open(os.path.join(DATA, f"{name}.csv")) as fh:
        want = _cells(fh.read())
    got = _cells(_output(GOLDEN[name]))
    assert [len(row) for row in got] == [len(row) for row in want]
    for got_row, want_row in zip(got, want):
        for g, w in zip(got_row, want_row):
            gf, wf = _float(g), _float(w)
            if gf is None or wf is None:
                assert g == w, (got_row, want_row)
            else:
                assert math.isclose(gf, wf, rel_tol=1e-10, abs_tol=1e-13), (got_row, want_row)


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for name, cmd in GOLDEN.items():
        with open(os.path.join(DATA, f"{name}.csv"), "w") as fh:
            fh.write(_output(cmd))
    print(f"wrote {len(GOLDEN)} files to {DATA}", file=sys.stderr)
