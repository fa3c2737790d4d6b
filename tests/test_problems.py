import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from netl1.linalg import InputError
from netl1.problems import ProblemInstance, load_instance, save_instance

finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), m=st.integers(1, 5), extra=st.integers(1, 4), with_ref=st.booleans())
def test_instance_roundtrip_is_exact(tmp_path_factory, data, m, extra, with_ref):
    # 17 significant digits name every finite double, signed zeros and
    # subnormals included
    n = m + extra
    A = data.draw(arrays(np.float64, (m, n), elements=finite))
    b = data.draw(arrays(np.float64, m, elements=finite))
    x_ref = data.draw(arrays(np.float64, n, elements=finite)) if with_ref else None
    path = tmp_path_factory.mktemp("instance") / "inst.txt"
    save_instance(path, ProblemInstance(A=A, b=b, x_ref=x_ref))
    loaded = load_instance(path)
    assert loaded.A.tobytes() == A.tobytes() and loaded.A.shape == A.shape
    assert loaded.b.tobytes() == b.tobytes()
    if with_ref:
        assert loaded.x_ref.tobytes() == x_ref.tobytes()
    else:
        assert loaded.x_ref is None


@pytest.mark.parametrize("header", ["2 x", "2", "2 3 4", "2.0 3"])
def test_malformed_header_is_an_input_error(tmp_path, header):
    # "2 x" used to raise int()'s ValueError
    path = tmp_path / "inst.txt"
    path.write_text(f"{header}\n1 2 3\n4 5 6\n1 2\n")
    with pytest.raises(InputError, match=re.escape(f"line '{header}' must be an 'm n' header")):
        load_instance(path)
