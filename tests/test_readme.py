"""The README's quick start runs and prints what its comment says."""

import contextlib
import io
import math
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_quick_start_prints_the_commented_value():
    with open(README) as fh:
        text = fh.read()
    block = text.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (line,) = [ln for ln in block.splitlines() if ln.startswith('print(trace.column("f_value")')]
    commented = float(re.search(r"# ~(\S+)", line).group(1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    printed = float(out.getvalue().splitlines()[0])
    assert math.isfinite(printed) and float("%.2g" % printed) == commented
