"""Every input format, mutated with fixed seeds and read through the CLI,
exits 0, 2 or 3 with no traceback (`mutation.py` runs longer sweeps)."""

import numpy as np
import pytest
from mutation import FORMATS, broken, build_inputs, run_case

CASES = 30


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return build_inputs(str(tmp_path_factory.mktemp("inputs")))


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_mutated_input_exits_0_2_or_3_without_a_traceback(inputs, tmp_path, fmt):
    rng = np.random.default_rng([0, FORMATS.index(fmt)])
    for case in range(CASES):
        code, err = run_case(inputs, fmt, rng, str(tmp_path))
        assert not broken(code, err), f"{fmt} case {case}: exit {code}\n{err}"
