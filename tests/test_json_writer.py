"""write_table renders blocks of numpy columns as the exact bytes json.dumps gives their rows."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsolidtorus.analysis as analysis
from qsolidtorus.analysis import write_table
from qsolidtorus.cli import main
from qsolidtorus.config import default_config_dict, load_config
from qsolidtorus.solutions import build_solution, wronskian_residuals
from qsolidtorus.transfer import Levels, ModeIndex, limit_product
from reference import first_difference

SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, -1e-310, 1e16, -1e16, 1e-300, 1.0, 0.1])
FINITE = SPECIAL | st.floats(allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf])
# a signed zero, a sign-bit NaN, both infinities and subnormals, for one column together
EDGES = [0.0, -0.0, -math.nan, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310]
# keys with characters that json escapes, a %, and one that sorts before the letters
NAMES = st.text(alphabet='IKkmn_%"éA', min_size=1, max_size=4)


def cells(draw, values, size, edges=()):
    """``size`` draws of ``values``, or of a few of them (plus ``edges``) with repeats and random signs."""
    if draw(st.booleans()):
        return draw(st.lists(values, min_size=size, max_size=size))
    pool = draw(st.lists(values, min_size=1, max_size=3)) + list(edges)
    signed = st.tuples(st.sampled_from(pool), st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
    return draw(st.lists(signed, min_size=size, max_size=size))


@st.composite
def columns(draw):
    """1-D int, 1-D float and (rows, w) float columns; one float column may hold NaN/inf.

    A column is drawn value by value, or from a few values with repeats and
    exact +-x pairs; the NaN/inf column may hold every one of ``EDGES`` too.
    """
    rows = draw(st.sampled_from([0, 1]) | st.integers(2, 25))
    names = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    wild = draw(st.sampled_from(names))
    cols = {}
    for name in names:
        shape = draw(st.sampled_from([(), (1,), (4,)] if name == wild else ["int", (), (0,), (1,), (4,)]))
        if shape == "int":
            ints = cells(draw, st.integers(-(2**62), 2**62), rows)
            cols[name] = np.array(ints, dtype=np.int64)
            continue
        size = rows * math.prod(shape)
        if name == wild:
            edges = EDGES if draw(st.booleans()) else ()
            values = cells(draw, FINITE | NON_FINITE, size, edges)
        else:
            values = cells(draw, FINITE, size)
        cols[name] = np.array(values, dtype=float).reshape(rows, *shape)
    return cols


def split(cols, cuts):
    """The table ``cols`` as blocks of rows, cut before each row in ``cuts``."""
    rows = len(next(iter(cols.values())))
    edges = [0, *sorted({c for c in cuts if 0 < c < rows}), rows]
    return [{name: col[lo:hi] for name, col in cols.items()} for lo, hi in zip(edges, edges[1:])]


META = {"k_max": 3, "boundary_rule": "default"}


@settings(max_examples=200, deadline=None)
@given(cols=columns(), cuts=st.lists(st.integers(0, 25), max_size=4))
@example(cols={"x": np.array(EDGES + [-x for x in EDGES]).reshape(8, 2), "m": np.array([3, -3] * 4)}, cuts=[3, 5])
@example(cols={"w": np.arange(-14.0, 14.0).reshape(7, 4), "e": np.zeros((7, 0)), "k": np.arange(7)}, cuts=[])
# the longest reprs: 23 characters for a float64 magnitude, 20 for an int64 or uint64
@example(cols={"x": np.array([2.2250738585072014e-308, -1.7976931348623157e308, 0.00012345678901234567]),
               "i": np.array([-(2**63), 2**63 - 1, 0]), "u": np.array([2**64 - 1, 0, 1], dtype=np.uint64)}, cuts=[])
def test_row_table_bytes_equal_json_dumps(tmp_path_factory, cols, cuts):
    """Blocks of 3 rows: the 0-25-row tables are empty, one block, or many with a partial last one.

    The table reaches the writer cut into random blocks, so a write block
    spans the seams between them.
    """
    rows = [dict(zip(cols, vals)) for vals in zip(*(col.tolist() for col in cols.values()))]
    path = tmp_path_factory.mktemp("w") / "t.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "WRITE_BLOCK_ROWS", 3)
        write_table(path, META, split(cols, cuts))
    assert path.read_text() == json.dumps({"meta": META, "rows": rows}, indent=2, sort_keys=True)


def test_empty_concat_is_an_empty_list(tmp_path):
    """No blocks join to an empty rows list."""
    write_table(tmp_path / "t.json", {}, [])
    assert (tmp_path / "t.json").read_text() == json.dumps({"meta": {}, "rows": []}, indent=2, sort_keys=True)


def test_unwritable_column_leaves_the_file_alone(tmp_path):
    """A column the writer cannot render raises TypeError before the file at the path is opened."""
    path = tmp_path / "t.json"
    path.write_bytes(b'{"rows": []}')
    blocks = [{"m": np.arange(4), "z": np.ones(4, dtype=complex)}]
    with pytest.raises(TypeError):
        write_table(path, {"k_max": 4}, blocks)
    assert path.read_bytes() == b'{"rows": []}'


@pytest.mark.parametrize("blocks", [
    [{"m": np.arange(4), "x": np.ones(3)}],
    [{"m": np.arange(4)}, {"m": np.arange(2), "x": np.ones(2)}],
])
def test_blocks_whose_columns_differ_are_a_value_error(tmp_path, blocks):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.json", {}, blocks)
    assert not (tmp_path / "t.json").exists()


def test_write_memory_does_not_scale_with_the_text(tmp_path):
    """100k rows (a ~21 MB file) write within a 16 MB traced peak: 10.4 MB measured, 68 MB for a whole-text writer.

    The floats are drawn from 16,384 values, so the test makes few reprs.
    The bound leaves ~1.5x headroom over the peak measured with numpy 2.4.6,
    which the sort of the widest column sets.
    """
    rng = np.random.default_rng(11)
    n = 100_000
    values = rng.standard_normal(16384)
    blocks = [{"C": rng.choice(values, (n, 4)), "x": rng.choice(values, n),
               "m": rng.integers(-64, 64, n), "k": np.arange(n)}]
    tracemalloc.start()
    try:
        write_table(tmp_path / "t.json", {"k_max": n}, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "t.json").stat().st_size > 20e6
    assert peak < 16e6


def test_write_phase_holds_about_one_block_of_text(tmp_path):
    """2,048 rows whose key is 5,000 characters write within a traced peak of 4 blocks' text (2.3 measured).

    The rows are four write blocks of about 2.6 MB of text each, and the
    column's codes and texts are small beside them; a writer that gathers
    a block through an int64 index per output byte peaks at 16 blocks.
    """
    rows = 2048
    blocks = [{"x" * 5000: np.random.default_rng(13).standard_normal(rows)}]
    tracemalloc.start()
    try:
        write_table(tmp_path / "t.json", {}, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_text = (tmp_path / "t.json").stat().st_size * analysis.WRITE_BLOCK_ROWS / rows
    assert block_text > 2.5e6
    assert peak < 4 * block_text, (peak, block_text)


def test_blocks_are_freed_column_by_column(tmp_path):
    """64 blocks whose 16 columns hold X = 6.6 MB in all write within a traced peak of 1.5 X, blocks included.

    Each column is joined from its blocks' parts, coded and dropped before
    the next, and the parts leave their blocks as they are joined; so the
    peak is about X plus a few columns (1.18 X measured).  A writer that
    joins every column before it drops a block holds the blocks and the
    columns at once, 2 X and more (3.1 X measured for one that did).
    """
    rng = np.random.default_rng(12)
    n_blocks, rows = 64, 800
    values = rng.standard_normal(256)
    tracemalloc.start()
    try:
        blocks = [{f"x{j:02d}": rng.choice(values, rows) for j in range(16)} for _ in range(n_blocks)]
        total = sum(col.nbytes for block in blocks for col in block.values())
        tracemalloc.reset_peak()
        write_table(tmp_path / "t.json", {"k_max": rows}, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 16 * n_blocks * rows * 8
    assert all(not block for block in blocks)
    assert peak < 1.5 * total, (peak, total)


def test_each_distinct_value_is_formatted_once(tmp_path, monkeypatch):
    """1,000 cells of +-x pairs over 500 magnitudes take 500 float reprs; 1,000 ints of 5 values take 5.

    A (250, 4) column is deduplicated as a whole: with +x in its first two
    entries and -x in its last two, its 1,000 cells take 500 reprs too.
    """
    calls = {"float": 0, "int": 0}

    class CountingFloat(float):
        def __repr__(self):
            calls["float"] += 1
            return float.__repr__(self)

    class CountingInt(int):
        def __repr__(self):
            calls["int"] += 1
            return int.__repr__(self)

    monkeypatch.setattr(analysis, "float", CountingFloat, raising=False)
    monkeypatch.setattr(analysis, "int", CountingInt, raising=False)
    mags = np.random.default_rng(3).uniform(0.5, 2.0, 500)
    x = np.concatenate([mags, -mags])
    m = np.arange(1000) % 5 - 2
    write_table(tmp_path / "t.json", {}, [{"x": x[:300], "m": m[:300]}, {"x": x[300:], "m": m[300:]}])
    assert calls == {"float": 500, "int": 5}
    w = np.hstack([mags.reshape(250, 2), -np.roll(mags, 1).reshape(250, 2)])
    write_table(tmp_path / "w.json", {}, [{"w": w}])
    monkeypatch.undo()
    assert calls == {"float": 1000, "int": 5}
    rows = [{"m": int(mi), "x": float(xi)} for mi, xi in zip(m, x)]
    want = json.dumps({"meta": {}, "rows": rows}, indent=2, sort_keys=True)
    assert first_difference((tmp_path / "t.json").read_text(), want) is None
    want = json.dumps({"meta": {}, "rows": [{"w": row} for row in w.tolist()]}, indent=2, sort_keys=True)
    assert first_difference((tmp_path / "w.json").read_text(), want) is None


def test_dump_tables_equal_json_dumps(tmp_path):
    """Both dumps on a grid of +-m pairs and m = 0 are json.dumps of rows built from the arrays.

    The tables of (-m, n) are sign flips of those of (m, n), so a lost or
    doubled minus sign in the writer shows here.
    """
    cfg = default_config_dict()
    cfg["grid"]["m_list"] = [0, 1, -1, 3, -3]
    cfg["grid"]["n_list"] = [0, 2]
    cfg["truncation"]["k_max"] = k_max = 40
    cfg["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    conf = load_config(path)
    expected = {"solution": [], "transfer": []}
    for m in cfg["grid"]["m_list"]:
        for n in cfg["grid"]["n_list"]:
            mode = ModeIndex(m, n)
            sol = build_solution(mode, Levels(conf.weights, conf.coeffs, k_max), rule=conf.boundary)
            res = wronskian_residuals(sol)
            for k, ((i1, i2), (k1, k2)) in enumerate(zip(sol.I.tolist(), sol.K.tolist())):
                rec = {"I1": i1, "I2": i2, "K1": k1, "K2": k2, "wronskian_residual": float(res[k])}
                expected["solution"].append({**rec, "k": k, "m": m, "n": n})
            tp = limit_product(mode, Levels(conf.weights, conf.coeffs, k_max))
            for k in range(k_max):
                rec = {"C": tp.C[k].ravel().tolist(), "P": tp.partials[k].ravel().tolist()}
                expected["transfer"].append({**rec, "k": k, "m": m, "n": n})
    for what, rows in expected.items():
        assert main(["--config", str(path), "dump", "--what", what]) == 0
        text = (tmp_path / "out" / f"dump_{what}.json").read_text()
        meta = json.loads(text)["meta"]
        want = json.dumps({"meta": meta, "rows": rows}, indent=2, sort_keys=True)
        assert first_difference(text, want) is None, what

