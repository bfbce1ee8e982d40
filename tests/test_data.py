"""Dataset construction, CSV ingestion, centering, projections and losses."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulse_iv import data
from pulse_iv.cli import main
from pulse_iv.data import (
    CsvSchema,
    Dataset,
    DesignView,
    IdentificationClass,
    ModelPartition,
    center,
    load_csv,
)
from pulse_iv.estimators import EstimatorSpec, estimate
from pulse_iv.exceptions import DataError, SingularGram
from pulse_iv.pulse import pulse_estimate

from conftest import loss_by_residuals, make_instance, raw_matrices


def projection_apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``P_A v`` through the whitening ``(A^T A)^{-1/2}`` of a ``GramStack``'s pieces."""
    _, ok, isqrt = data._inverse_sqrts((a.T @ a)[None])
    assert ok[0]
    return a @ (isqrt[0] @ (isqrt[0] @ (a.T @ v)))


class TestDataset:
    def test_shapes_and_counts(self):
        ds = Dataset(y=[1.0, 2.0, 3.0], x=[[1.0], [2.0], [3.0]], a=[[0.1], [0.2], [0.3]])
        assert (ds.n, ds.d, ds.q) == (3, 1, 1)

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(y=[1.0, np.nan], x=[[1.0], [2.0]], a=[[1.0], [2.0]])

    def test_rejects_row_mismatch(self):
        with pytest.raises(DataError, match="row mismatch"):
            Dataset(y=[1.0, 2.0], x=[[1.0], [2.0], [3.0]], a=[[1.0], [2.0]])

    def test_rejects_too_few_rows(self):
        with pytest.raises(DataError, match="n >= max"):
            Dataset(y=[1.0], x=[[1.0, 2.0]], a=[[1.0, 2.0]])

    def test_arrays_are_readonly(self):
        ds = Dataset(y=[1.0, 2.0], x=[[1.0], [2.0]], a=[[1.0], [2.0]])
        with pytest.raises(ValueError):
            ds.y[0] = 5.0


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("y,x1,a1\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path, CsvSchema("y", ("x1",), ("a1",)))
        assert (ds.n, ds.d, ds.q) == (3, 1, 1)
        assert ds.x_names == ("x1",) and ds.a_names == ("a1",)
        np.testing.assert_allclose(ds.x[:, 0], [2.0, 5.0, 8.0])

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1,a1\n1,2,3\n4,oops,6\n")
        with pytest.raises(DataError, match=r"row 2, column 'x1'"):
            load_csv(path, CsvSchema("y", ("x1",), ("a1",)))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("y,x1\n1,2\n")
        with pytest.raises(DataError, match=r"missing column.*a1"):
            load_csv(path, CsvSchema("y", ("x1",), ("a1",)))


#: Files the fast path must read exactly like the row loop: same bits, or the
#: same error.  Columns ``a1,x1,y`` unless the case has its own header.
LOADER_CASES = {
    "crlf": "a1,x1,y\r\n1,2,3\r\n4,5,7\r\n",
    "padded_cells": "a1,x1,y\n 1 , 2 ,3 \n4,5,7\n",
    "tab_padding": "a1,x1,y\n\t1\t,2,\t3\n4,5,7\n",
    "blank_lines": "a1,x1,y\n1,2,3\n\n4,5,7\n\n",
    "line_of_blank_cells": "a1,x1,y\n1,2,3\n , ,\n4,5,7\n",
    "quoted_cells": 'a1,x1,y\n"1",2,3\n4,"5",7\n',
    "quoted_comma_in_unused_column": 'a1,note,x1,y\n1,"u,5,6,v",2,3\n4,w,5,7\n',
    "underscore_digits": "a1,x1,y\n1_0,2,3\n4,5,7\n",
    "nan": "a1,x1,y\nnan,2,3\n4,5,7\n",
    "infinity": "a1,x1,y\n1,Infinity,3\n4,5,7\n",
    "hash_line": "a1,x1,y\n1,2,3\n# note\n4,5,7\n",
    "hex": "a1,x1,y\n0x10,2,3\n4,5,7\n",
    "fortran_exponent": "a1,x1,y\n1d5,2,3\n4,5,7\n",
    "short_row": "a1,x1,y\n1,2\n4,5,7\n",
    "long_rows": "a1,x1,y\n1,2,3,9\n4,5,7,8,1\n",
    "empty_cell": "a1,x1,y\n1,,3\n4,5,7\n",
    "unused_text_column": "a1,name,x1,y\n1,foo,2,3\n4,bar,5,7\n",
    "header_only": "a1,x1,y\n",
    "one_row": "a1,x1,y\n1,2,3\n",
    "no_final_newline": "a1,x1,y\n1,2,3\n4,5,7",
    "empty_file": "",
    "reordered_header": "y,x1,a1\n3,2,1\n7,5,4\n",
    "extreme_digits": "a1,x1,y\n0.1000000000000000055511151231257827,2.2250738585072011e-308,4.9e-324\n"
    "+1.5e+3,-2E-3,.5\n",
    "non_ascii_space_and_digits": "a1,x1,y\n\xa01,\u0661,3\n4,5,7\n",
    "bad_utf8": b"a1,x1,y\n1,2,3\n4,\xff,7\n",
}


def outcome(load):
    """The loaded ``(y, x, a)`` bits, or the type and text of the error raised."""
    try:
        ds = load()
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)
    return ds.y.tobytes(), ds.x.tobytes(), ds.a.tobytes()


def via_row_loop(path):
    """The row-loop helper called directly, split into a dataset as ``load_csv`` does."""
    mat = data._row_loop(path, ["y", "x1", "a1"])
    return Dataset(y=mat[:, 0], x=mat[:, 1:2], a=mat[:, 2:])


@pytest.fixture()
def no_row_loop(monkeypatch):
    """Make any call of the row-loop helper fail the test."""

    def refuse(*args):
        raise AssertionError("the row loop ran")

    monkeypatch.setattr(data, "_row_loop", refuse)


class TestLoaderAgreesWithRowLoop:
    @pytest.mark.parametrize("name", sorted(LOADER_CASES))
    def test_same_bits_or_same_error(self, tmp_path, name):
        text = LOADER_CASES[name]
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        schema = CsvSchema("y", ("x1",), ("a1",))
        assert outcome(lambda: load_csv(path, schema)) == outcome(lambda: via_row_loop(path))

    @pytest.mark.parametrize("fmt", ["%.17g", "repr"])
    def test_random_file_bit_equal(self, tmp_path, request, fmt):
        rng = np.random.default_rng(12)
        table = rng.normal(size=(2000, 3)) * 10.0 ** rng.integers(-300, 300, size=(2000, 3))
        cell = repr if fmt == "repr" else (lambda v: fmt % v)
        path = tmp_path / "random.csv"
        lines = ["a1,x1,y"] + [",".join(cell(v) for v in row) for row in table.tolist()]
        path.write_text("\n".join(lines) + "\n")
        expected = outcome(lambda: via_row_loop(path))
        assert expected[2] == table[:, 0].tobytes()
        request.getfixturevalue("no_row_loop")
        assert outcome(lambda: load_csv(path, CsvSchema("y", ("x1",), ("a1",)))) == expected

    @pytest.mark.parametrize(
        "body", ["1,2,3\n4,5,7\n", '"1",2,3\n4,"5",7\n'], ids=["loadtxt", "row_loop"]
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, request, body):
        """Excel's "CSV UTF-8" export starts the file with a byte-order mark."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("a1,x1,y\n" + body, encoding="utf-8")
        marked.write_text("a1,x1,y\n" + body, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfa1,")
        schema = CsvSchema("y", ("x1",), ("a1",))
        expected = outcome(lambda: load_csv(plain, schema))
        assert expected[0] == np.array([3.0, 7.0]).tobytes()
        assert outcome(lambda: via_row_loop(marked)) == expected
        if '"' not in body:
            request.getfixturevalue("no_row_loop")
        assert outcome(lambda: load_csv(marked, schema)) == expected

    def test_clean_file_takes_the_fast_path(self, tmp_path, no_row_loop):
        path = tmp_path / "clean.csv"
        path.write_text("a1,x1,y\n1,2,3\n4,5,7\n")
        ds = load_csv(path, CsvSchema("y", ("x1",), ("a1",)))
        assert ds.y.tolist() == [3.0, 7.0] and ds.a.tolist() == [[1.0], [4.0]]


class TestCenter:
    def test_simple_column(self):
        ds = Dataset(y=[1.0, 2.0, 3.0], x=[[1.0], [2.0], [3.0]], a=[[4.0], [5.0], [6.0]])
        out = center(ds)
        np.testing.assert_allclose(out.y, [-1.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(out.x[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ds = Dataset(y=rng.normal(size=20), x=rng.normal(size=(20, 2)), a=rng.normal(size=(20, 2)))
        once = center(ds)
        twice = center(once)
        np.testing.assert_allclose(once.a, twice.a, atol=1e-12)

    def test_anchor_columns_centered_within_tolerance(self):
        rng = np.random.default_rng(1)
        ds = Dataset(
            y=rng.normal(size=50),
            x=rng.normal(size=(50, 1)),
            a=1e6 + rng.normal(size=(50, 3)),
        )
        out = center(ds)
        scale = np.abs(out.a).max(axis=0)
        assert np.all(np.abs(out.a.mean(axis=0)) <= 1e-12 * np.maximum(scale, 1.0))


class TestProjection:
    def test_fixes_its_range(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(10, 2))
        v = a @ rng.normal(size=2)
        np.testing.assert_allclose(projection_apply(a, v), v, atol=1e-10)

    def test_kills_orthogonal_complement(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(10, 2))
        v = rng.normal(size=10)
        q_basis, _ = np.linalg.qr(a)
        v_perp = v - q_basis @ (q_basis.T @ v)
        np.testing.assert_allclose(projection_apply(a, v_perp), 0.0, atol=1e-10)

    def test_contraction_idempotence_and_qr_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(10, 2))
        v = rng.normal(size=10)
        pv = projection_apply(a, v)
        assert np.linalg.norm(pv) <= np.linalg.norm(v) + 1e-12
        np.testing.assert_allclose(projection_apply(a, pv), pv, atol=1e-10)
        q_basis, _ = np.linalg.qr(a)
        np.testing.assert_allclose(pv, q_basis @ (q_basis.T @ v), atol=1e-10)

    def test_singular_gram(self):
        a = np.ones((5, 2))  # duplicated column
        view = DesignView(Dataset(y=np.arange(5.0), x=np.arange(5.0)[:, None] ** 2, a=a))
        with pytest.raises(SingularGram, match="A\\^T A"):
            view.iv_loss(np.zeros(1))


class TestViewCache:
    def test_stack_built_once(self):
        rng = np.random.default_rng(8)
        ds = Dataset(y=rng.normal(size=20), x=rng.normal(size=(20, 1)), a=rng.normal(size=(20, 2)))
        view = DesignView(ds)
        assert view.stack is view.stack
        assert not view.stack.pieces[2] and not view.stack.paths[1]

    def test_singular_gram_recorded_and_raised_on_every_call(self):
        rng = np.random.default_rng(9)
        col = rng.normal(size=(20, 1))
        ds = Dataset(y=rng.normal(size=20), x=rng.normal(size=(20, 1)), a=np.hstack([col, col]))
        view = DesignView(ds)
        stack = view.stack
        pieces_failed, paths_failed = stack.pieces[2], stack.paths[1]
        assert list(pieces_failed) == [0] and list(paths_failed) == [0]
        assert isinstance(pieces_failed[0], SingularGram) and "A^T A" in str(pieces_failed[0])
        assert str(paths_failed[0]) == str(pieces_failed[0])
        for _ in range(2):
            with pytest.raises(SingularGram, match="A\\^T A") as err:
                estimate(view, EstimatorSpec("tsls"))
            assert err.value is paths_failed[0]
        assert view.stack is stack


class TestLazyConditionNumbers:
    """``rcond_ztz`` (with the view's stack) and ``rcond_ata`` are computed on first
    read, not when a view is built, and no estimate reads ``rcond_ata``."""

    def test_building_a_view_computes_neither(self):
        view = make_instance(3)
        assert "stack" not in vars(view) and "rcond_ata" not in vars(view)
        assert view.rcond_ata == data.rcond_symmetric(view.ata)
        assert "rcond_ata" in vars(view) and "stack" not in vars(view)
        assert view.rcond_ztz == data.rcond_symmetric(view.ztz) and "stack" in vars(view)

    def test_estimates_do_not_read_rcond_ata(self):
        view = make_instance(4, q=3)
        for label in ("ols", "tsls", "fuller:4"):
            estimate(view, EstimatorSpec.parse(label))
        pulse_estimate(view)
        assert "rcond_ata" not in vars(view)
        assert "stack" in vars(view)  # its rcond_ztz read once by the path's Z^T Z check

    def test_diagnose_prints_the_condition_numbers(self, tmp_path, capsys):
        rows = [
            (1.0, 2.0, 0.5, 1.0), (2.5, 1.0, 1.5, -1.0), (0.5, 3.0, -0.5, 2.0),
            (3.0, 2.5, 2.0, 0.0), (-1.0, 0.5, -1.5, 1.5), (2.0, 4.0, 1.0, 3.0),
            (0.0, -1.0, -2.0, -0.5), (1.5, 1.5, 0.0, 0.5),
        ]
        path = tmp_path / "d.csv"
        path.write_text("y,x1,a1,a2\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
        args = ["diagnose", "--data", str(path), "--target", "y", "--endogenous", "x1"]
        assert main([*args, "--instruments", "a1,a2", "--intercept"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "rcond(Z^T Z) = 6.790e-02   rcond(A^T A) = 2.210e-01"


class TestLosses:
    def test_ols_zero_at_interpolant(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(2, 2))
        alpha = rng.normal(size=2)
        y = z @ alpha
        ds = Dataset(y=y, x=z, a=rng.normal(size=(2, 2)))
        view = DesignView(ds)
        assert view.ols_loss(alpha) <= 1e-20

    def test_ols_at_zero_coefficient(self):
        view = make_instance(6)
        expected = float(view.dataset.y @ view.dataset.y) / view.n
        assert view.ols_loss(np.zeros(view.k)) == pytest.approx(expected, rel=1e-12)

    def test_losses_match_residual_oracle(self):
        view = make_instance(7, n=60, d1=2, q=3)
        y, z, a = raw_matrices(view)
        rng = np.random.default_rng(8)
        for _ in range(5):
            alpha = rng.normal(size=view.k)
            lo, li = loss_by_residuals(y, z, a, alpha)
            assert view.ols_loss(alpha) == pytest.approx(lo, rel=1e-10)
            assert view.iv_loss(alpha) == pytest.approx(li, rel=1e-10)

    def test_iv_loss_zero_when_residual_orthogonal(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(30, 2))
        q_basis, _ = np.linalg.qr(a)
        resid = rng.normal(size=30)
        resid -= q_basis @ (q_basis.T @ resid)
        z = rng.normal(size=(30, 1))
        y = z[:, 0] * 2.0 + resid
        view = DesignView(Dataset(y=y, x=z, a=a))
        assert view.iv_loss(np.array([2.0])) <= 1e-18

    def test_iv_loss_eigen_root_oracle(self):
        view = make_instance(10, n=40, d1=1, q=3)
        y, z, a = raw_matrices(view)
        alpha = np.array([0.3])
        w, v = np.linalg.eigh(a.T @ a)
        isqrt = (v / np.sqrt(w)) @ v.T
        r = isqrt @ (a.T @ (y - z @ alpha))
        assert view.iv_loss(alpha) == pytest.approx(float(r @ r) / view.n, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_iv_loss_below_ols_loss(self, seed):
        view = make_instance(seed % 50, n=40, d1=1, q=2)
        alpha = np.random.default_rng(seed).normal(size=view.k)
        li, lo = view.iv_loss(alpha), view.ols_loss(alpha)
        assert 0.0 <= li <= lo + 1e-12 * max(1.0, lo)

    def test_strict_convexity_at_midpoint(self):
        view = make_instance(11, n=50, d1=2, q=2)
        rng = np.random.default_rng(12)
        for _ in range(10):
            a1, a2 = rng.normal(size=(2, view.k))
            mid = view.ols_loss(0.5 * (a1 + a2))
            avg = 0.5 * (view.ols_loss(a1) + view.ols_loss(a2))
            if np.linalg.norm(a1 - a2) > 1e-8:
                assert mid < avg - 1e-12 * max(1.0, avg) or np.isclose(mid, avg)
                assert mid <= avg

    def test_center_commutes_with_projection(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(40, 2)) + 3.0
        v = rng.normal(size=40) + 1.0
        a_c = a - a.mean(axis=0)
        v_c = v - v.mean()
        left = projection_apply(a_c, v_c)
        right = projection_apply(a_c, v)
        right -= right.mean()
        np.testing.assert_allclose(left, right, atol=1e-10)


class TestPartitionAndView:
    def test_identification_classes(self):
        part = ModelPartition((0,), ())
        assert part.identification_class(1) is IdentificationClass.JUST
        assert part.identification_class(3) is IdentificationClass.OVER
        part2 = ModelPartition((0, 1), ())
        assert part2.identification_class(1) is IdentificationClass.UNDER
        assert part2.identification_degree(1) == -1

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicate-free"):
            ModelPartition((0, 0))

    def test_out_of_range_rejected(self):
        ds = Dataset(y=[1.0, 2.0], x=[[1.0], [2.0]], a=[[1.0], [2.0]])
        with pytest.raises(ValueError, match="out of range"):
            DesignView(ds, ModelPartition((0,), (4,)))

    def test_view_orders_endogenous_first(self):
        rng = np.random.default_rng(14)
        ds = Dataset(
            y=rng.normal(size=10),
            x=rng.normal(size=(10, 2)),
            a=rng.normal(size=(10, 3)),
            x_names=("p", "r"),
            a_names=("u", "v", "w"),
        )
        view = DesignView(ds, ModelPartition((1,), (2, 0)))
        assert view.coef_names == ("r", "w", "u")
        z = np.column_stack([ds.x[:, 1], ds.a[:, 2], ds.a[:, 0]])
        np.testing.assert_allclose(view.ztz, z.T @ z, rtol=1e-12)
        np.testing.assert_allclose(view.atz, ds.a.T @ z, rtol=1e-12)

    def test_gram_caches_match_direct_products(self):
        view = make_instance(15, n=30, d1=2, q=3, q1=1)
        y, z, a = raw_matrices(view)
        np.testing.assert_allclose(view.ztz, z.T @ z, rtol=1e-12)
        np.testing.assert_allclose(view.atz, a.T @ z, rtol=1e-12)
        np.testing.assert_allclose(view.aty, a.T @ y, rtol=1e-12)
