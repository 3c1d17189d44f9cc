"""write_json renders a RowTable as the exact bytes json.dumps gives its rows."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsolidtorus.analysis import RowTable, write_json

SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, -1e-310, 1e16, -1e16, 1e-300, 1.0, 0.1])
FINITE = SPECIAL | st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# keys with characters that json escapes, a %, and one that sorts before the letters
NAMES = st.text(alphabet='IKkmn_%"éA', min_size=1, max_size=4)


@st.composite
def columns(draw):
    """1-D int, 1-D float and (rows, w) float columns; one float column may hold NaN/inf."""
    rows = draw(st.sampled_from([0, 1]) | st.integers(2, 25))
    names = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    wild = draw(st.sampled_from(names))
    cols = {}
    for name in names:
        shape = draw(st.sampled_from([(), (1,), (4,)] if name == wild else ["int", (), (0,), (1,), (4,)]))
        if shape == "int":
            ints = st.integers(-(2**62), 2**62)
            cols[name] = np.array(draw(st.lists(ints, min_size=rows, max_size=rows)), dtype=np.int64)
            continue
        size = rows * math.prod(shape)
        floats = FINITE | NON_FINITE if name == wild else FINITE
        values = draw(st.lists(floats, min_size=size, max_size=size))
        cols[name] = np.array(values, dtype=float).reshape(rows, *shape)
    return cols


@settings(max_examples=200, deadline=None)
@given(cols=columns(), place=st.sampled_from(["rows", "top", "nested"]))
def test_row_table_bytes_equal_json_dumps(tmp_path_factory, cols, place):
    rows = [dict(zip(cols, vals)) for vals in zip(*(col.tolist() for col in cols.values()))]

    def wrap(value):
        if place == "top":
            return value
        if place == "rows":
            return {"meta": {"k_max": 3, "boundary_rule": "default"}, "rows": value}
        return {"z": [1, {"deep": value}, "after"], "a": -0.0}

    path = tmp_path_factory.mktemp("w") / "t.json"
    write_json(path, wrap(RowTable(cols)))
    assert path.read_text() == json.dumps(wrap(rows), indent=2, sort_keys=True)


def test_empty_concat_is_an_empty_list(tmp_path):
    table = RowTable.concat([])
    assert len(table) == 0
    write_json(tmp_path / "t.json", {"rows": table})
    assert json.loads((tmp_path / "t.json").read_text()) == {"rows": []}
