import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from singheat.grid import (
    CSV_BLOCK_ROWS,
    Field,
    Grid,
    antiderivative,
    derivative,
    gradient,
    h1,
    l2,
    primitive,
    read_field_csv,
    trapezoid,
    trapezoid_integral,
    write_csv,
    write_field_csv,
)


def make(n, fn):
    g = Grid(n)
    return Field(g, fn(g.nodes))


class TestGridConstruction:
    def test_nodes_span_unit_interval(self):
        g = Grid(11)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 1.0
        assert np.all(np.diff(g.nodes) > 0)
        assert g.dx * (g.n - 1) == pytest.approx(1.0, abs=1e-15)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            Grid(2)

    def test_field_length_checked(self):
        g = Grid(5)
        with pytest.raises(ValueError):
            Field(g, np.zeros(4))

    def test_nonfinite_rejected(self):
        g = Grid(5)
        with pytest.raises(ValueError):
            Field(g, np.array([0.0, 1.0, np.inf, 0.0, 0.0]))


class TestTrapezoidIntegral:
    def test_constant_one(self):
        assert trapezoid_integral(make(11, lambda x: np.ones_like(x))) == pytest.approx(1.0, abs=1e-15)

    def test_linear_exact(self):
        assert trapezoid_integral(make(101, lambda x: x)) == pytest.approx(0.5, abs=1e-15)

    def test_cosine(self):
        # primitive sin(pi x)/pi vanishes at both ends
        val = trapezoid_integral(make(1001, lambda x: np.cos(np.pi * x)))
        assert val == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (2.5, -0.3), (-1.0, 4.0)])
    def test_affine_exact(self, a, b):
        val = trapezoid_integral(make(37, lambda x: a + b * x))
        assert val == pytest.approx(a + b / 2, abs=1e-14)


class TestDerivative:
    def test_constant_is_zero(self):
        d = derivative(make(21, lambda x: np.full_like(x, 3.7)))
        assert np.max(np.abs(d.values)) < 1e-13

    def test_quadratic_exact(self):
        f = make(101, lambda x: x**2)
        d = derivative(f)
        assert np.max(np.abs(d.values - 2 * f.grid.nodes)) < 1e-12

    def test_second_order_convergence(self):
        errs = []
        for n in (101, 201):
            f = make(n, lambda x: np.sin(np.pi * x))
            d = derivative(f)
            errs.append(np.max(np.abs(d.values - np.pi * np.cos(np.pi * f.grid.nodes))))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.3)


class TestAntiderivative:
    def test_zero(self):
        a = antiderivative(make(11, np.zeros_like))
        assert np.all(a.values == 0.0)

    def test_one_gives_x(self):
        a = antiderivative(make(11, np.ones_like))
        assert np.max(np.abs(a.values - a.grid.nodes)) < 1e-14

    def test_cosine_primitive(self):
        f = make(1001, lambda x: (np.pi / 2) * np.cos(np.pi * x))
        a = antiderivative(f)
        assert np.max(np.abs(a.values - 0.5 * np.sin(np.pi * f.grid.nodes))) < 1e-6
        assert a.values[0] == 0.0


class TestNorms:
    def test_zero_field(self):
        z = make(11, np.zeros_like)
        assert l2(z.values, z.grid.dx) == 0.0
        assert h1(z.values, z.grid.dx) == 0.0

    def test_sine_l2(self):
        f = make(2001, lambda x: np.sin(np.pi * x))
        assert l2(f.values, f.grid.dx) == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_sheet_gap_h1(self):
        # distance between the limit and initial height profiles of the
        # kicked constant sheet
        c_inf = np.sqrt(4 * np.pi**2 + 1)
        f = make(4001, lambda x: (c_inf - np.cos(np.pi * x)) / (2 * np.pi) - 1.0)
        assert h1(f.values, f.grid.dx) == pytest.approx(0.37, abs=0.01)

    @pytest.mark.parametrize("fn", [
        lambda x: x,
        lambda x: np.sin(3 * x) + 0.2,
        lambda x: np.exp(x),
    ])
    def test_h1_dominates_l2(self, fn):
        f = make(201, fn)
        assert h1(f.values, f.grid.dx) >= l2(f.values, f.grid.dx)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_discrete_poincare(self, k):
        f = make(801, lambda x: np.sin(k * np.pi * x))
        slack = 1e-3  # O(dx^2) allowance
        assert np.pi * l2(f.values, f.grid.dx) <= l2(derivative(f).values, f.grid.dx) * (1 + slack)


def test_csv_roundtrip(tmp_path):
    f = make(33, lambda x: np.cos(2 * x) + x)
    path = tmp_path / "field.csv"
    write_field_csv(path, f)
    g = read_field_csv(path)
    assert g.grid.n == f.grid.n
    assert np.array_equal(g.values, f.values)


def test_csv_writer_gives_arrays_and_lists_the_same_bytes(tmp_path):
    x = np.array([-0.0, 5e-324, 1e300, math.nan, -math.inf, 0.1, 1 / 3, 2.0])
    written = []
    for kind, columns in (("array", (x, -x)), ("list", (x.tolist(), (-x).tolist()))):
        path = tmp_path / f"{kind}.csv"
        write_csv(path, ("a", "b"), columns)
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert written[0].splitlines()[:6] == [
        b"a,b", b"-0,0", b"4.9406564584124654e-324,-4.9406564584124654e-324",
        b"1.0000000000000001e+300,-1.0000000000000001e+300", b"nan,nan", b"-inf,inf"]


@pytest.mark.parametrize("rows", sorted({0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                         3 * CSV_BLOCK_ROWS + 7, 1023, 1024, 1025, 3079}))
def test_csv_blocks_give_the_bytes_of_one_pass(tmp_path, rows):
    # the rows written block by block are the rows formatted in one pass;
    # 1023..1025 and 3079 sit at the edges of 1024-row spans, a whole
    # number of blocks
    rng = np.random.default_rng(rows)
    columns = (rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
               np.arange(rows, dtype=float), rng.uniform(size=rows))
    path = tmp_path / "blocks.csv"
    write_csv(path, ("a", "b", "c"), columns)
    expected = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                   for row in zip(*(col.tolist() for col in columns)))
    assert path.read_bytes() == expected.encode()


def test_csv_writer_memory_is_one_block(tmp_path):
    # 200,000 rows turned into Python floats all at once take about 6 MB
    rows = 200_000
    tracemalloc.start()
    try:
        write_csv(tmp_path / "long.csv", ("x",), (np.linspace(0.0, 1.0, rows),))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert len((tmp_path / "long.csv").read_bytes().splitlines()) == rows + 1


def _reference_csv(header, columns) -> bytes:
    """The CSV bytes of one "{:.17g}" format per value, row by row."""
    rows = zip(*(col.tolist() if isinstance(col, np.ndarray) else list(col) for col in columns))
    return ("".join([",".join(header) + "\n"]
                    + [",".join("{:.17g}".format(v) for v in row) + "\n" for row in rows])
            .encode())


def _write(tmp_path, columns, name="runs.csv") -> bytes:
    path = tmp_path / name
    write_csv(path, [f"c{i}" for i in range(len(columns))], columns)
    return path.read_bytes()


def _from_bits(*bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(float)


def test_csv_writer_tells_zeros_apart_by_their_bits(tmp_path):
    # -0.0 == 0.0 as floats, so a run of equal floats would write one text for both
    x = np.array([-0.0, 0.0, 0.0, -0.0, -0.0, 1.0, -0.0])
    written = _write(tmp_path, (x, x[::-1].copy()))
    assert written == _reference_csv(("c0", "c1"), (x, x[::-1]))
    assert written.splitlines()[1:] == [b"-0,-0", b"0,1", b"0,-0", b"-0,-0", b"-0,0",
                                        b"1,0", b"-0,-0"]


def test_csv_writer_runs_of_nans_infinities_and_subnormals(tmp_path):
    nans = _from_bits(0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                      0x7FF0000000000001)
    assert np.isnan(nans).all() and len({v.tobytes() for v in nans}) == 4
    x = np.concatenate([nans[[0, 0, 1, 1, 2, 3, 3]], [math.inf, math.inf, -math.inf, -math.inf],
                        [5e-324, 5e-324, -5e-324, 2.225073858507201e-308, 2.225073858507201e-308,
                         math.nan]])
    written = _write(tmp_path, (x, np.arange(len(x), dtype=float)))
    assert written == _reference_csv(("c0", "c1"), (x, np.arange(len(x))))
    assert [row.split(b",")[0] for row in written.splitlines()[1:]] == (
        [b"nan"] * 7 + [b"inf"] * 2 + [b"-inf"] * 2
        + [b"4.9406564584124654e-324"] * 2 + [b"-4.9406564584124654e-324"]
        + [b"2.2250738585072009e-308"] * 2 + [b"nan"])


def test_csv_runs_cross_blocks(tmp_path):
    # a run from 3 rows before a block's end to 5 rows into the next, a
    # column of one run, and a column of runs as long as a block
    rows = 3 * CSV_BLOCK_ROWS + 7
    crossing = np.arange(rows, dtype=float)
    crossing[CSV_BLOCK_ROWS - 3:CSV_BLOCK_ROWS + 5] = 0.1
    one_run = np.full(rows, -0.0)
    blocks = np.arange(rows) // CSV_BLOCK_ROWS / 3.0
    columns = (crossing, one_run, blocks)
    written = _write(tmp_path, columns)
    assert written == _reference_csv(("c0", "c1", "c2"), columns)
    assert written.count(b",-0,") == rows


@pytest.mark.parametrize("seed", range(8))
def test_csv_drawn_runs_give_the_reference_bytes(tmp_path, seed):
    # columns of runs drawn from a pool that holds both zeros, NaNs of two
    # payloads, infinities and subnormals, beside distinct and integer columns
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 3 * CSV_BLOCK_ROWS))
    pool = np.concatenate([_from_bits(0x7FF8000000000000, 0xFFF8000000000001),
                           [0.0, -0.0, math.inf, -math.inf, 5e-324, -1e-310, 1 / 3, -2.5, 1e300],
                           rng.standard_normal(6)])

    def runs():
        lengths = rng.integers(1, [2, 5, 40, 2 * CSV_BLOCK_ROWS][rng.integers(4)], rows)
        values = rng.choice(pool, len(lengths))
        return np.repeat(values, lengths)[:rows]

    columns = [runs() for _ in range(5)]
    columns += [rng.standard_normal(rows), rng.integers(-5, 5, rows).tolist()]
    assert _write(tmp_path, columns) == _reference_csv([f"c{i}" for i in range(7)], columns)


def test_csv_writer_memory_of_repeats_is_one_block(tmp_path):
    # 200,000 rows in runs of 1,000 equal values, one text per run
    rows = 200_000
    tracemalloc.start()
    try:
        write_csv(tmp_path / "runs.csv", ("x",), (np.repeat(np.linspace(0.0, 1.0, 200), 1000),))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert len((tmp_path / "runs.csv").read_bytes().splitlines()) == rows + 1


def test_csv_writer_refuses_columns_of_unequal_length(tmp_path):
    # zip would cut every column to the shortest
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError, match=r"one length, got lengths \[2, 3\]"):
        write_csv(path, ("a", "b"), (np.zeros(3), [1.0, 2.0]))


def test_csv_on_grid_checks_node_count(tmp_path):
    path = tmp_path / "field.csv"
    write_field_csv(path, make(21, np.cos))
    assert read_field_csv(path, Grid(21)).grid.n == 21
    with pytest.raises(ValueError, match="21 nodes, the grid has n = 51"):
        read_field_csv(path, Grid(51))


def _extreme_rows(rng, n):
    """Rows at the ends of float64's range: subnormals of about 1e-310 with
    odd last bits, so that halving them rounds; magnitudes of about 1e308,
    one row positive and one of both signs, whose panel sums reach inf; and
    zeros of both signs."""
    sign = rng.choice([-1.0, 1.0], n)
    return np.array([(rng.integers(-2**45, 2**45, n) | 1) * 5e-324,
                     rng.uniform(5.0, 10.0, n) * 1e307,
                     sign * rng.uniform(5.0, 10.0, n) * 1e307,
                     sign * 0.0])


def _same_bits(a, b):
    # NaN and the sign of zero included, which == does not see
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("n", [3, 4, 401])
def test_array_kernels_match_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    dx = Grid(n).dx
    for _ in range(50):
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6)
        assert np.array_equal(gradient(y, dx), np.gradient(y, dx, edge_order=2))
        assert trapezoid(y, dx) == float(np.trapezoid(y, dx=dx))
    # integer samples are summed as floats, which the in-place kernels write
    k = np.arange(n) ** 2
    assert np.array_equal(gradient(k, dx), np.gradient(k, dx, edge_order=2))
    assert trapezoid(k, dx) == float(np.trapezoid(k, dx=dx))
    with np.errstate(over="ignore", invalid="ignore"):
        for y in _extreme_rows(rng, n):
            assert _same_bits(gradient(y, dx), np.gradient(y, dx, edge_order=2))
            assert _same_bits(trapezoid(y, dx), np.trapezoid(y, dx=dx))


@pytest.mark.parametrize("n", [3, 4, 401])
def test_row_kernels_match_one_row_at_a_time(n):
    # each row of a (rows x nodes) array gets the bits of the 1-D kernels,
    # which repeat numpy's trapezoid and scipy's cumulative_trapezoid
    rng = np.random.default_rng(n)
    dx = Grid(n).dx
    rows = rng.standard_normal((7, n)) * 10.0 ** rng.uniform(-6, 6, (7, 1))
    sums, norms, prims = trapezoid(rows, dx), l2(rows, dx), primitive(rows, dx)
    grads = gradient(rows, dx)
    assert sums.shape == norms.shape == (7,) and prims.shape == grads.shape == rows.shape
    for y, s, nrm, p, gr in zip(rows, sums, norms, prims, grads):
        assert np.array_equal(gr, gradient(y, dx))
        assert np.array_equal(gr, np.gradient(y, dx, edge_order=2))
        assert s == trapezoid(y, dx) == float(np.trapezoid(y, dx=dx))
        assert nrm == l2(y, dx) == math.sqrt(np.trapezoid(y * y, dx=dx))
        assert np.array_equal(p, primitive(y, dx))
        assert np.array_equal(p, cumulative_trapezoid(y, dx=dx, initial=0.0))
    assert isinstance(trapezoid(rows[0], dx), float)
    assert isinstance(l2(rows[0], dx), float)
    rows = _extreme_rows(rng, n)
    with np.errstate(over="ignore", invalid="ignore"):
        for y, s, nrm, p, gr in zip(rows, trapezoid(rows, dx), l2(rows, dx),
                                    primitive(rows, dx), gradient(rows, dx)):
            assert _same_bits(gr, gradient(y, dx))
            assert _same_bits(s, trapezoid(y, dx))
            assert _same_bits(s, np.trapezoid(y, dx=dx))
            assert _same_bits(nrm, l2(y, dx))
            assert _same_bits(nrm, math.sqrt(np.trapezoid(y * y, dx=dx)))
            assert _same_bits(p, primitive(y, dx))
            assert _same_bits(p, cumulative_trapezoid(y, dx=dx, initial=0.0))
