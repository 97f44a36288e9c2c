import numpy as np
import pytest

from dnspn.data import (MAX_ROWS, Dataset, SyntheticSpec, Task, add_noise,
                        gen_base, gen_xor, generate, load_csv, split,
                        standardize, train_test, write_csv)
from dnspn.errors import DataError, ParameterError
from dnspn.numeric import RngState


class TestLoadCsv:
    def _write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_round_trip(self, tmp_path):
        p = self._write(tmp_path,
                        "a,b,label\n1.0,2.0,yes\n3.0,4.0,no\n5.0,6.0,yes\n")
        ds = load_csv(p, "label", "classification")
        assert ds.n == 3 and ds.d == 2
        assert ds.task.n_classes == 2

    def test_sorted_label_mapping(self, tmp_path):
        p = self._write(tmp_path, "a,label\n1,yes\n2,no\n")
        ds = load_csv(p, "label", "classification")
        assert ds.task.labels == ["no", "yes"]
        assert ds.y.tolist() == [1, 0]

    def test_label_by_index(self, tmp_path):
        p = self._write(tmp_path, "x,y,z\n1,2,0\n3,4,1\n")
        ds = load_csv(p, 2, "classification")
        assert ds.d == 2 and ds.y.tolist() == [0, 1]

    def test_malformed_row_names_row(self, tmp_path):
        p = self._write(tmp_path, "a,b,label\n1,2,x\n1,oops,y\n3,4,x\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p, "label", "classification")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "nope.csv", "label", "classification")

    def test_missing_column(self, tmp_path):
        p = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(p, "label", "classification")

    def test_empty_dataset(self, tmp_path):
        p = self._write(tmp_path, "a,label\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p, "label", "classification")

    @pytest.mark.parametrize("label", ["label", 0])
    def test_label_only_rejected(self, tmp_path, label):
        p = self._write(tmp_path, "label\n1\n0\n")
        with pytest.raises(DataError) as info:
            load_csv(p, label, "classification")
        assert str(info.value) == (f"dataset file {p} has no feature "
                                   "column, only the label column 'label'")

    @pytest.mark.parametrize("header", ["f0,f0,label", "f0,label,label",
                                        "f0, f1,f1 ,label"])
    def test_repeated_header_name_rejected(self, tmp_path, header):
        p = self._write(tmp_path, header + "\n" + "1," * header.count(",")
                        + "0\n")
        name = "label" if header.endswith("label,label") else \
            header.split(",")[1].strip()
        with pytest.raises(DataError) as info:
            load_csv(p, 0, "classification")
        assert str(info.value) == (f"dataset file {p} repeats the column "
                                   f"name {name!r} in its header")

    @pytest.mark.parametrize("kind", ["classification", "regression"])
    @pytest.mark.parametrize("cell", ["", "  ", '""'])
    def test_empty_label_rejected(self, tmp_path, kind, cell):
        # a blank label is not a class named '' (nor a target)
        p = self._write(tmp_path, f"a,label\n0.5,{cell}\n1.5,1\n2.5,0\n"
                        "3.5,1\n")
        with pytest.raises(DataError) as info:
            load_csv(p, "label", kind)
        assert str(info.value) == (f"malformed rows in {p}: row 2: label "
                                   "is empty")

    def test_empty_labels_all_named(self, tmp_path):
        p = self._write(tmp_path, "label,a\n,0.5\n1,1.5\n ,2.5\n0,3.5\n")
        with pytest.raises(DataError) as info:
            load_csv(p, 0, "classification")
        assert str(info.value) == (f"malformed rows in {p}: row 2: label "
                                   "is empty; row 4: label is empty")

    @pytest.mark.parametrize("label", ["label", 0])
    @pytest.mark.parametrize("row", ["1,2.5,-3", '0,"1_0",4'])
    @pytest.mark.parametrize("head", ["label,a,b", '"label",a,b'])
    def test_byte_order_mark_is_not_in_the_header(self, tmp_path, label,
                                                  row, head):
        # as Excel's "CSV UTF-8" writes it; the quoted row takes the row walk
        text = f"{head}\r\n0,0.5,2\r\n{row}\r\n1,1e-3,5\r\n"
        plain = load_csv(self._write(tmp_path, text), label,
                         "classification")
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        ds = load_csv(marked, label, "classification")
        assert ds.X.tobytes() == plain.X.tobytes() and ds.X.shape == (3, 2)
        assert np.array_equal(ds.y, plain.y) and ds.task == plain.task

    def test_regression_labels(self, tmp_path):
        p = self._write(tmp_path, "a,label\n1.0,0.5\n2.0,-1.5\n")
        ds = load_csv(p, "label", "regression")
        assert ds.task.kind == "regression"
        assert ds.y.tolist() == [0.5, -1.5]

    def test_write_then_load_round_trip(self, tmp_path):
        rng = RngState(3)
        ds = gen_xor(20, 0.1, rng)
        p = tmp_path / "xor.csv"
        write_csv(p, ds)
        back = load_csv(p, "label", "classification")
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)


class TestGenBase:
    def test_reproducible(self):
        a = gen_base(50, RngState(4))
        b = gen_base(50, RngState(4))
        assert np.array_equal(a, b)
        assert a.shape == (50, 100)

    def test_column_means_clt_bound(self):
        n = 20000
        X = gen_base(n, RngState(8))
        assert np.max(np.abs(X.mean(axis=0))) < 4.0 / np.sqrt(n)

    def test_cross_column_independence(self):
        n = 20000
        X = gen_base(n, RngState(9))
        sub = X[:, :12]
        corr = np.corrcoef(sub.T)
        off = corr[~np.eye(12, dtype=bool)]
        assert np.max(np.abs(off)) < 5.0 / np.sqrt(n)


class TestAddNoise:
    def test_sigma_zero_identity(self, rng):
        X = rng.normal(10, 5)
        out = add_noise(X, 0.0, RngState(1))
        assert np.array_equal(out, X)

    def test_variance_additivity(self):
        X = gen_base(40000, RngState(5))
        noisy = add_noise(X, 1.0, RngState(6))
        var = noisy.var(axis=0)
        assert np.max(np.abs(var - 2.0)) < 0.05


class TestGenLinear:
    def test_noiseless_separable_by_true_model(self):
        spec = SyntheticSpec(kind="linear", k=5, sigma=0.0, n_train=500,
                             n_test=100, seed=3)
        ds = generate(spec)
        dims = np.array(ds.meta["dims"])
        w = np.array(ds.meta["w"])
        b = ds.meta["b"]
        recomputed = (ds.X[:, dims] @ w + b > 0).astype(int)
        assert np.array_equal(recomputed, ds.y)

    def test_labels_unaffected_by_noise(self):
        # same seed, different sigma: identical labels, different features
        a = generate(SyntheticSpec(kind="linear", k=5, sigma=0.0,
                                   n_train=300, n_test=50, seed=11))
        b = generate(SyntheticSpec(kind="linear", k=5, sigma=2.0,
                                   n_train=300, n_test=50, seed=11))
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.X, b.X)

    def test_class_balance_monte_carlo(self):
        for seed in (0, 1, 2, 3):
            spec = SyntheticSpec(kind="linear", k=50, sigma=1.0,
                                 n_train=9000, n_test=1000, seed=seed)
            ds = generate(spec)
            frac = float(np.mean(ds.y == 1))
            assert 0.30 <= frac <= 0.70

    def test_determinism(self):
        spec = SyntheticSpec(kind="linear", k=7, sigma=0.5, n_train=100,
                             n_test=20, seed=42)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert a.meta == b.meta

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            SyntheticSpec(kind="linear", k=200, sigma=0.0)

    @pytest.mark.parametrize("sigma,message", [
        (-0.5, "sigma must be >= 0"), (float("nan"), "sigma must be finite"),
        ([0.0, 1.0], "sigma must be a scalar")])
    def test_sigma_out_of_domain(self, sigma, message):
        with pytest.raises(ParameterError, match=f"^{message}"):
            SyntheticSpec(kind="linear", k=3, sigma=sigma)

    @pytest.mark.parametrize("name,value", [
        ("k", 5.0), ("n_train", 100.0), ("k", True), ("seed", 1.5)])
    def test_counts_and_seed_must_be_integers(self, name, value):
        # a float or a bool ended in a numpy traceback inside generate, or
        # generated without a word
        with pytest.raises(ParameterError, match=(
                f"^{name} must be an integer, got {value!r}$")):
            SyntheticSpec(kind="linear", **{"k": 3, name: value})

    @pytest.mark.parametrize("n_train,n_test,name", [
        (0, 0, "n_train"), (MAX_ROWS + 1, 0, "n_train"),
        (10 ** 15, 2000, "n_train"), (10, -1, "n_test"),
        (MAX_ROWS - 10, 11, "n_test"), (1, MAX_ROWS, "n_test")])
    def test_row_count_out_of_range(self, n_train, n_test, name):
        with pytest.raises(ParameterError, match=f"^{name} must be in "):
            SyntheticSpec(kind="linear", k=3, n_train=n_train, n_test=n_test)

    def test_row_count_up_to_the_bound(self):
        SyntheticSpec(kind="linear", k=3, n_train=MAX_ROWS - 10, n_test=10)
        SyntheticSpec(kind="linear", k=3, n_train=MAX_ROWS, n_test=0)


class TestGenQuadratic:
    def test_labels_match_independent_evaluator(self):
        spec = SyntheticSpec(kind="quadratic", k=6, sigma=0.0, n_train=400,
                             n_test=100, seed=5)
        ds = generate(spec)
        d1 = np.array(ds.meta["dims1"])
        d2 = np.array(ds.meta["dims2"])
        w1 = np.array(ds.meta["w1"])
        w2 = np.array(ds.meta["w2"])
        b = ds.meta["b"]
        # independent per-row evaluation of the stored map
        expected = []
        for row in ds.X:
            score = b
            for j, dim in enumerate(d1):
                score += w1[j] * row[dim] ** 2
            for j, dim in enumerate(d2):
                score += w2[j] * row[dim]
            expected.append(1 if score > 0 else 0)
        assert np.array_equal(np.array(expected), ds.y)

    def test_zero_quadratic_part_reduces_to_linear(self):
        # with w1 = 0 the stored map is exactly the linear rule
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 100))
        d2 = np.arange(5)
        w2 = rng.standard_normal(5)
        b = 0.3
        quad = (X[:, :5] ** 2 @ np.zeros(5) + X[:, d2] @ w2 + b > 0)
        lin = (X[:, d2] @ w2 + b > 0)
        assert np.array_equal(quad, lin)

    def test_determinism(self):
        spec = SyntheticSpec(kind="quadratic", k=4, sigma=1.0, n_train=50,
                             n_test=10, seed=9)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)


class TestSplit:
    def _ds(self, n=100, seed=0):
        rng = RngState(seed)
        X = rng.normal(n, 3)
        y = (rng.random(n) > 0.3).astype(np.int64)
        return Dataset(X, y, Task(kind="classification", n_classes=2))

    def test_80_20(self):
        tr, te = split(self._ds(100), 0.8, RngState(1))
        assert tr.n == 80 and te.n == 20

    def test_union_is_original_multiset(self):
        ds = self._ds(57)
        tr, te = split(ds, 0.7, RngState(2))
        merged = np.vstack([tr.X, te.X])
        assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.X, axis=0))
        assert sorted(np.concatenate([tr.y, te.y])) == sorted(ds.y)

    def test_stratification_drift(self):
        ds = self._ds(1000, seed=5)
        tr, te = split(ds, 0.8, RngState(3))
        overall = np.mean(ds.y)
        assert abs(np.mean(tr.y) - overall) <= 0.02
        assert abs(np.mean(te.y) - overall) <= 0.02

    def test_empty_side_rejected(self):
        ds = self._ds(3)
        with pytest.raises(ParameterError):
            split(ds, 0.99, RngState(0))

    def test_train_test_slices(self):
        spec = SyntheticSpec(kind="linear", k=3, sigma=0.0, n_train=80,
                             n_test=20, seed=0)
        ds = generate(spec)
        tr, te = train_test(ds, 80)
        assert tr.n == 80 and te.n == 20
        assert np.array_equal(np.vstack([tr.X, te.X]), ds.X)


class TestStandardize:
    def test_train_means_zero(self, rng):
        tr = Dataset(rng.normal(200, 4) * 3 + 5, np.zeros(200),
                     Task(kind="regression"))
        te = Dataset(rng.normal(50, 4), np.zeros(50), Task(kind="regression"))
        tr2, te2, scaler = standardize(tr, te)
        assert np.max(np.abs(tr2.X.mean(axis=0))) < 1e-12
        assert np.max(np.abs(tr2.X.std(axis=0) - 1.0)) < 1e-12

    def test_constant_feature_maps_to_zero(self, rng):
        X = rng.normal(30, 2)
        X[:, 0] = 4.2
        tr = Dataset(X, np.zeros(30), Task(kind="regression"))
        tr2, _, scaler = standardize(tr, tr)
        assert np.all(tr2.X[:, 0] == 0.0)
        assert scaler.std[0] == 0.0

    def test_test_uses_train_stats(self, rng):
        # asymmetric data: the test set is shifted, so its transformed mean
        # reflects the shift rather than being re-centred
        tr = Dataset(rng.normal(500, 1), np.zeros(500),
                     Task(kind="regression"))
        te = Dataset(rng.normal(500, 1) + 10.0, np.zeros(500),
                     Task(kind="regression"))
        _, te2, _ = standardize(tr, te)
        assert te2.X.mean() > 5.0

    @pytest.mark.parametrize("scale", [1e300, 1.7e308])
    def test_overflowing_feature_rejected(self, rng, scale):
        # 1e300 overflows the variance, 1.7e308 already the mean's sum
        X = rng.normal(40, 3)
        X[:, 2] = scale * np.where(np.arange(40) % 3, 1.0, -0.5)
        tr = Dataset(X, np.zeros(40), Task(kind="regression"))
        with pytest.raises(DataError, match="feature column 2 "):
            standardize(tr, tr)
