import json
import math

import numpy as np
import pytest

from sdr.data import (Dataset, FittedReducer, IngestError, csv_text,
                      fit_centering, json_safe, load_csv, reduce,
                      reducer_from_json, reducer_to_json)
from sdr.intrinsic import SppcaState, fit_sppca
from sdr.wrappers import fit_pv


def _unit_cols(*cols):
    m = np.column_stack([np.asarray(c, dtype=float) for c in cols])
    return m / np.linalg.norm(m, axis=0)


class TestDataset:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="rows"):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 2)), np.zeros(1))

    def test_rejects_nonfinite(self):
        x = np.zeros((3, 2))
        x[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            Dataset(x, np.zeros(3))


class TestCentering:
    def test_plain_column_mean(self):
        data = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([4.0, 5.0, 6.0]))
        t = fit_centering(data)
        assert t.column_means[0] == 2.0
        assert t.y_mean == 5.0
        np.testing.assert_allclose(t.apply(data.X)[:, 0], [-1.0, 0.0, 1.0])

    def test_unit_scale_then_center(self):
        data = Dataset(np.array([[0.0], [5.0], [10.0]]), np.zeros(3))
        t = fit_centering(data, unit_scale=True)
        np.testing.assert_allclose(t.apply(data.X)[:, 0], [-0.5, 0.0, 0.5])

    def test_constant_column_flagged(self):
        data = Dataset(np.array([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]]), np.zeros(3))
        t = fit_centering(data, unit_scale=True)
        np.testing.assert_allclose(t.apply(data.X)[:, 0], [0.0, 0.0, 0.0])

    def test_fit_data_has_zero_means(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.uniform(1.0, 9.0, size=(50, 4)), rng.standard_normal(50))
        for unit_scale in (False, True):
            t = fit_centering(data, unit_scale=unit_scale)
            assert np.abs(t.apply(data.X).mean(axis=0)).max() <= 1e-10

    def test_row_of_means_maps_to_zero(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.standard_normal((10, 3)), rng.standard_normal(10))
        t = fit_centering(data)
        out = t.apply(t.column_means[None, :])
        np.testing.assert_allclose(out, np.zeros((1, 3)), atol=1e-15)

    def test_dimension_mismatch(self):
        data = Dataset(np.zeros((3, 2)), np.zeros(3))
        t = fit_centering(data)
        with pytest.raises(ValueError, match="columns"):
            t.apply(np.zeros((2, 5)))


class TestReduce:
    def test_pca_identity_basis_selects_columns(self):
        basis = np.eye(4)[:, :2]
        reducer = FittedReducer("pca", 2, basis=basis)
        x = np.arange(8.0).reshape(2, 4)
        np.testing.assert_array_equal(reduce(reducer, x), x[:, :2])

    def test_pv_single_step_selects_column(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 3))
        x -= x.mean(axis=0)
        reducer = fit_pv(Dataset(x, x[:, 1]), 1)
        np.testing.assert_array_equal(reducer.basis[:, 0], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(reduce(reducer, x)[:, 0], x[:, 1])

    def test_sppca_zero_noise_orthonormal_is_projection(self):
        u = _unit_cols([1, 0, 0], [0, 1, 0])
        state = SppcaState(loadings=u, response_loadings=np.array([1.0, 2.0]),
                           sigma_x=0.0, sigma_y=1.0)
        reducer = FittedReducer("sppca", 2, state.posterior_map())
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(reduce(reducer, x), x @ u, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        reducer = FittedReducer("pls", 2, basis=basis)
        x = rng.standard_normal((7, 5))
        assert reduce(reducer, x).tobytes() == reduce(reducer, x).tobytes()

    def test_dimension_mismatch(self):
        reducer = FittedReducer("pca", 1, basis=np.eye(3)[:, :1])
        with pytest.raises(ValueError, match="shape"):
            reduce(reducer, np.zeros((2, 5)))


class TestFittedReducerValidation:
    def test_requires_matching_state(self):
        # the tag says whether the map may be oblique
        oblique = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        for method in ("pv", "sppca"):
            assert FittedReducer(method, 2, oblique).basis is not None
        with pytest.raises(ValueError, match="orthonormal"):
            FittedReducer("pls", 2, oblique)

    def test_rejects_non_finite_basis(self):
        basis = np.eye(3)[:, :2]
        basis[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FittedReducer("pv", 2, basis)
        with pytest.raises(ValueError, match="orthonormal"):
            FittedReducer("pca", 2, basis)

    def test_rejects_basis_not_p_by_k(self):
        with pytest.raises(ValueError, match="P x K"):
            FittedReducer("pv", 2, np.ones(3))
        with pytest.raises(ValueError, match="P x K"):
            FittedReducer("pv", 2, np.ones((3, 1)))

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError, match="orthonormal"):
            FittedReducer("pca", 2, basis=np.ones((3, 2)))

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown"):
            FittedReducer("magic", 1, basis=np.eye(2)[:, :1])

    def test_rejects_k_above_p(self):
        with pytest.raises(ValueError):
            FittedReducer("pca", 3, basis=np.eye(2))


class TestSerialization:
    def test_basis_roundtrip_bitwise(self):
        rng = np.random.default_rng(4)
        basis = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        reducer = FittedReducer("lspca", 3, basis=basis,
                                hyperparams={"gamma": 0.125, "iterations": 17})
        back = reducer_from_json(reducer_to_json(reducer))
        assert back.method == "lspca" and back.k == 3
        assert np.array_equal(back.basis, basis)
        assert back.hyperparams == reducer.hyperparams

    def _fitted_data(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 6))
        y = x @ rng.standard_normal(6) + rng.standard_normal(40)
        return Dataset(x - x.mean(axis=0), y - y.mean()), rng.standard_normal((9, 6))

    def test_pv_roundtrip_bitwise(self):
        data, x_new = self._fitted_data()
        reducer = fit_pv(data, 3)
        back = reducer_from_json(reducer_to_json(reducer))
        assert (back.method, back.k) == ("pv", 3)
        assert back.hyperparams == reducer.hyperparams
        assert reduce(back, x_new).tobytes() == reduce(reducer, x_new).tobytes()

    def test_sppca_roundtrip_and_infinite_gamma(self):
        data, x_new = self._fitted_data()
        reducer = fit_sppca(data, 2)
        reducer.hyperparams["gamma"] = math.inf
        back = reducer_from_json(reducer_to_json(reducer))
        assert (back.method, back.k) == ("sppca", 2)
        assert back.hyperparams == reducer.hyperparams
        assert back.hyperparams["gamma"] == math.inf
        assert reduce(back, x_new).tobytes() == reduce(reducer, x_new).tobytes()

    def test_document_without_basis_rejected(self):
        # the per-method state documents written before every reducer was
        # one basis
        old = json.dumps({"method": "pv", "k": 1, "pv_state": [
            {"indices": [0], "direction": [1.0], "deflation": [1.0, 0.0]}],
            "hyperparams": {}})
        with pytest.raises(ValueError, match="basis"):
            reducer_from_json(old)


class TestJsonSafe:
    def _roundtrip(self, hyperparams):
        reducer = FittedReducer("pca", 1, basis=np.eye(2)[:, :1],
                                hyperparams=hyperparams)
        return reducer_from_json(reducer_to_json(reducer)).hyperparams

    def test_infinities(self):
        hyper = {"gamma": math.inf, "low": -math.inf, "grid": [0.0, -math.inf]}
        assert json_safe(hyper) == {"gamma": "inf", "low": "-inf",
                                    "grid": [0.0, "-inf"]}
        assert self._roundtrip(hyper) == hyper

    def test_numpy_scalars(self):
        hyper = {"m": np.int64(3), "mse": np.float64(0.25),
                 "gamma": np.float64(np.inf), "converged": np.bool_(True)}
        plain = json_safe(hyper)
        assert plain == {"m": 3, "mse": 0.25, "gamma": "inf", "converged": True}
        assert [type(v) for v in plain.values()] == [int, float, str, bool]
        assert self._roundtrip(hyper) == {"m": 3, "mse": 0.25,
                                          "gamma": math.inf, "converged": True}

    def test_arrays_nested_in_lists(self):
        hyper = {"steps": [np.array([1.5, -np.inf]), (np.arange(2), 7)]}
        assert json_safe(hyper) == {"steps": [[1.5, "-inf"], [[0, 1], 7]]}
        assert self._roundtrip(hyper) == {"steps": [[1.5, -math.inf], [[0, 1], 7]]}


def test_csv_text_cells():
    # None is empty; any float, numpy's too, is its round-trip repr
    text = csv_text(("name", "n", "value"), [("a", 3, 0.1), ("b,c", 4, None),
                                             ("d", np.int64(5), np.float64(1 / 3))])
    assert text == ('name,n,value\na,3,0.1\n"b,c",4,\n'
                    "d,5,0.3333333333333333\n")


class TestLoadCsv:
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_semicolon_delimiter(self, tmp_path):
        path = self._write(tmp_path, "a;b;quality\n1;2;3\n4;5;6\n")
        data, names = load_csv(path, "quality", delimiter=";")
        assert names == ["a", "b"]
        np.testing.assert_array_equal(data.X, [[1, 2], [4, 5]])
        np.testing.assert_array_equal(data.y, [3, 6])

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM, before the first name
        path = self._write(tmp_path, "\ufeffy,a,b\n1,2,3\n4,5,6\n")
        data, names = load_csv(path, "y")
        assert names == ["a", "b"]
        np.testing.assert_array_equal(data.X, [[2, 3], [5, 6]])
        np.testing.assert_array_equal(data.y, [1, 4])
        data, names = load_csv(path, "b", drop=("y",))
        assert names == ["a"]
        np.testing.assert_array_equal(data.y, [3, 6])

    def test_missing_response_column(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(IngestError, match="'quality' not found"):
            load_csv(path, "quality")

    @pytest.mark.parametrize("header, repeated", [("a,y,b,y", "y"),
                                                  ("a,b,a,y", "a")])
    def test_column_named_twice(self, tmp_path, header, repeated):
        path = self._write(tmp_path, f"{header}\n1,2,3,4\n5,6,7,8\n")
        with pytest.raises(IngestError, match="named twice") as exc:
            load_csv(path, "y")
        assert exc.value.column == repeated
        assert f"column {repeated!r}" in str(exc.value)

    def test_non_numeric_cell_coordinates(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,3\n4,oops,6\n")
        with pytest.raises(IngestError) as exc:
            load_csv(path, "y")
        assert exc.value.row == 2
        assert exc.value.column == "b"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_coordinates(self, tmp_path, cell):
        path = self._write(tmp_path, f"a,b,y\n1,2,3\n4,5,6\n7,8,{cell}\n")
        with pytest.raises(IngestError, match="non-finite cell") as exc:
            load_csv(path, "y")
        assert (exc.value.row, exc.value.column) == (3, "y")

    def test_drop_leaving_no_feature(self, tmp_path):
        path = self._write(tmp_path, "id,a,y\nx1,2,3\nx2,5,6\n")
        with pytest.raises(IngestError, match="no feature column left"):
            load_csv(path, "y", drop=("id", "a"))

    def test_drop_columns(self, tmp_path):
        path = self._write(tmp_path, "id,a,y\nx1,2,3\nx2,5,6\n")
        data, names = load_csv(path, "y", drop=("id",))
        assert names == ["a"]
        np.testing.assert_array_equal(data.X[:, 0], [2, 5])

    @pytest.mark.parametrize("cell", ["١٢", "1_0", "+.5", "infinity", "1e-400",
                                      "\xa01.5", "0x10", "1__0", " -0 "])
    def test_cells_read_as_float_reads_them(self, tmp_path, cell):
        path = self._write(tmp_path, f"a,y\n{cell},1\n2,3\n")
        try:
            want = float(cell)
        except ValueError:
            with pytest.raises(IngestError, match="non-numeric cell") as exc:
                load_csv(path, "y")
            assert (exc.value.row, exc.value.column) == (1, "a")
            return
        if not math.isfinite(want):
            with pytest.raises(IngestError, match="non-finite cell"):
                load_csv(path, "y")
            return
        data, _ = load_csv(path, "y")
        assert data.X[0, 0].hex() == want.hex()

    def test_values_bit_equal_to_float(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((50, 4)) * np.logspace(-300, 300, 4)
        fmts = ["{!r}", "{:.17g}", " {:+.3e} ", "{:.5f}"]
        lines = ["id,a,y,b,c"]
        for i, row in enumerate(vals):
            cells = [f.format(float(v)) for f, v in zip(fmts, row)]
            lines.append(",".join([f"r{i}", cells[0], cells[1], cells[2], cells[3]]))
            if i == 10:
                lines.append(" , ,,,")  # blank row, skipped
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        data, names = load_csv(path, "y", drop=("id",))
        cells = [line.split(",")[1:] for line in lines[1:] if line.strip(" ,")]
        want = np.array([[float(c) for c in row] for row in cells])
        assert names == ["a", "b", "c"]
        assert data.X.tobytes() == np.ascontiguousarray(want[:, [0, 2, 3]]).tobytes()
        assert data.y.tobytes() == want[:, 1].tobytes()
        assert data.X.flags.c_contiguous and data.y.flags.c_contiguous

    @pytest.mark.parametrize("text, row, column", [
        ("a,b,y\n1,oops,3\n4,5\n", 1, "b"),   # the bad cell comes first
        ("a,b,y\n1,2\n4,oops,6\n", 1, None),  # the short row comes first
        ("\ufeffa,b,y\n1,2,3\n\n4,5,inf\n", 3, "y"),  # a BOM, a blank row
    ])
    def test_first_bad_row_is_named(self, tmp_path, text, row, column):
        with pytest.raises(IngestError) as exc:
            load_csv(self._write(tmp_path, text), "y")
        assert (exc.value.row, exc.value.column) == (row, column)
