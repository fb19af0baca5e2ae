"""Property check of the CLI boundary: whatever float one `kerr expect`
parameter takes, the run writes a finite record or one error line, and
never ends in a traceback."""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

import kerrmoyal.cli as cli

FLAGS = ("--xi", "--w1", "--w2", "--alpha-re", "--alpha-im", "--tau-abs",
         "--tau-phase", "--t")


@settings(max_examples=300, deadline=None)
@given(flag=st.sampled_from(FLAGS), value=st.floats())
@example(flag="--alpha-re", value=1e200)        # overflows inside the closed form
@example(flag="--alpha-re", value=1e154)        # |alpha|^2 finite, the record NaN
@example(flag="--w1", value=1e308)
@example(flag="--t", value=-2.5e-01)           # a negative value in exponent notation
@example(flag="--t", value=math.nan)
def test_expect_writes_a_finite_record_or_one_error(flag, value):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["expect", flag, repr(value)])
    if code == cli.EXIT_OK:
        record = json.loads(out.getvalue())["record"]
        assert all(math.isfinite(v) for v in record.values())
    else:
        assert code in (cli.EXIT_USAGE, cli.EXIT_NUMERICAL)
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
