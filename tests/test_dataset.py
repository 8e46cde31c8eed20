import numpy as np
import pytest

import latentqubo as lq
from latentqubo import _native
from latentqubo._text import float_text


def make_dataset(rows, labels, tag="random"):
    X = np.asarray(rows, dtype=np.uint8)
    Y = np.asarray(labels, dtype=np.float64)
    return lq.LabeledDataset(X=X, Y=Y, provenance=(tag,) * len(Y))


class TestConstruction:
    def test_basic_properties(self):
        data = make_dataset([[0, 1], [1, 1]], [0.25, 0.75])
        assert data.n == 2
        assert len(data) == 2
        assert data.max_label() == 0.75
        vec, label = data.best_row()
        assert vec.tolist() == [1, 1] and label == 0.75

    def test_best_row_first_on_ties(self):
        data = make_dataset([[1, 0], [0, 1]], [0.5, 0.5])
        vec, _ = data.best_row()
        assert vec.tolist() == [1, 0]

    def test_empty(self):
        data = lq.LabeledDataset.empty(5)
        assert data.n == 5
        assert len(data) == 0
        with pytest.raises(ValueError, match="empty"):
            data.max_label()

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            make_dataset([[0, 2]], [0.5])

    def test_non_finite_label_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_dataset([[0, 1]], [np.nan])

    def test_length_mismatch_rejected(self):
        X = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            lq.LabeledDataset(X=X, Y=np.zeros(3), provenance=("a", "b", "c"))

    @pytest.mark.parametrize("tag", ["has space", "", "a\tb", "a\u2003b", "a\x1cb", "a\xa0b"])
    def test_bad_tag_rejected(self, tag):
        X = np.zeros((1, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="tag"):
            lq.LabeledDataset(X=X, Y=np.zeros(1), provenance=(tag,))

    def test_non_ascii_tag_accepted(self):
        data = lq.LabeledDataset(X=np.zeros((1, 3), dtype=np.uint8), Y=np.zeros(1),
                                 provenance=("zürich_µ-α",))
        assert data.provenance == ("zürich_µ-α",)

    def test_arrays_locked(self):
        data = make_dataset([[0, 1]], [0.5])
        with pytest.raises(ValueError):
            data.X[0, 0] = 1


class TestMembership:
    def test_contains(self):
        data = make_dataset([[0, 1, 1], [1, 0, 0]], [0.1, 0.2])
        assert data.contains(np.array([0, 1, 1], dtype=np.uint8))
        assert not data.contains(np.array([1, 1, 1], dtype=np.uint8))

    def test_append_dedup_against_existing(self):
        data = make_dataset([[0, 1]], [0.1])
        merged, added = data.append_rows(
            np.array([[0, 1], [1, 1]], dtype=np.uint8),
            np.array([0.9, 0.5]),
            tags=("iter1", "iter1"),
        )
        assert added == 1
        assert len(merged) == 2
        # the existing label for [0, 1] survives
        assert merged.Y[0] == 0.1
        assert merged.X[1].tolist() == [1, 1]
        assert merged.provenance == ("random", "iter1")

    def test_append_dedup_within_batch(self):
        data = lq.LabeledDataset.empty(2)
        merged, added = data.append_rows(
            np.array([[1, 0], [1, 0], [0, 0]], dtype=np.uint8),
            np.array([0.3, 0.8, 0.2]),
            tags=("iter1",) * 3,
        )
        assert added == 2
        # first occurrence wins
        assert merged.Y.tolist() == [0.3, 0.2]

    @pytest.mark.parametrize("n", [1, 8, 16, 180])
    def test_keys_are_each_rows_bytes(self, n):
        # rows with trailing zero bytes and all-zero rows among them, and views of other strides
        rng = np.random.default_rng(n)
        X = rng.integers(0, 2, (300, n)).astype(np.uint8)
        X[:3] = 0
        X[3:6, -1] = 0
        data = make_dataset(X, np.zeros(300))
        assert data._keys == {row.tobytes() for row in X}
        merged, added = lq.LabeledDataset.empty(n).append_rows(X[::-2], np.zeros(150), ("t",) * 150)
        assert merged._keys == {row.tobytes() for row in X[::-2]} and added == len(merged._keys)
        assert lq.LabeledDataset.empty(n)._keys == frozenset()

    def test_append_width_mismatch(self):
        data = make_dataset([[1, 0]], [0.5])
        with pytest.raises(ValueError):
            data.append_rows(
                np.array([[1, 0, 1]], dtype=np.uint8), np.array([0.1]), tags=("t",)
            )

    def test_subset(self):
        data = make_dataset([[0, 0], [0, 1], [1, 0]], [0.1, 0.2, 0.3])
        sub = data.subset([2, 0])
        assert sub.X.tolist() == [[1, 0], [0, 0]]
        assert sub.Y.tolist() == [0.3, 0.1]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, (25, 9)).astype(np.uint8)
        Y = rng.random(25)
        data = lq.LabeledDataset(X=X, Y=Y, provenance=tuple(f"iter{i}" for i in range(25)))
        path = tmp_path / "data.txt"
        lq.save_dataset(data, path)
        loaded = lq.load_dataset(path)
        assert loaded.X.tolist() == data.X.tolist()
        assert loaded.Y.tolist() == data.Y.tolist()
        assert loaded.provenance == data.provenance

    def test_file_layout(self, tmp_path):
        data = make_dataset([[1, 0, 1]], [0.5], tag="seed")
        path = tmp_path / "data.txt"
        lq.save_dataset(data, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "DATASET v1 n=3 count=1"
        assert lines[1] == "101 0.5 seed"

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "data.txt"
        lq.save_dataset(lq.LabeledDataset.empty(4), path)
        loaded = lq.load_dataset(path)
        assert loaded.n == 4 and len(loaded) == 0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("DATA v1 n=3 count=1\n101 0.5 seed\n")
        with pytest.raises(ValueError, match="header"):
            lq.load_dataset(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("DATASET v1 n=3 count=2\n101 0.5 seed\n")
        with pytest.raises(ValueError):
            lq.load_dataset(path)


class TestAtScale:
    """About 1,500 rows in three batches, as the loop's dataset grows, against per-row code."""

    N = 16
    EDGE_LABELS = [5e-324, -0.0, 1e300, 0.1]
    TAGS = ["random", "iter0", "zürich_µ-α", "日本", "ß"]

    def batches(self):
        """Three (X, Y, tags) batches with repeats inside each and across them."""
        rng = np.random.default_rng(25)
        pool = rng.integers(0, 2, (900, self.N)).astype(np.uint8)
        out = []
        for count in (1200, 200, 100):
            X = pool[rng.integers(0, len(pool), count)]
            Y = rng.normal(size=count)
            Y[rng.integers(0, count, 4 * len(self.EDGE_LABELS))] = self.EDGE_LABELS * 4
            tags = tuple(self.TAGS[i] for i in rng.integers(0, len(self.TAGS), count))
            out.append((X, Y, tags))
        return out

    def reference_append(self, rows, labels, tags, X, Y, new_tags):
        """append_rows one row at a time: a row seen before keeps its first label."""
        seen = {tuple(row) for row in rows}
        added = 0
        for x, y, tag in zip(X.tolist(), Y, new_tags):
            if tuple(x) not in seen:
                seen.add(tuple(x))
                rows.append(x), labels.append(y), tags.append(tag)
                added += 1
        return added

    def grown(self):
        data = lq.LabeledDataset.empty(self.N)
        for X, Y, tags in self.batches():
            data, _ = data.append_rows(X, Y, tags)
        return data

    def test_append_rows_matches_per_row_reference(self):
        data = lq.LabeledDataset.empty(self.N)
        rows, labels, tags = [], [], []
        for X, Y, new_tags in self.batches():
            data, added = data.append_rows(X, Y, new_tags)
            assert added == self.reference_append(rows, labels, tags, X, Y, new_tags)
            assert data.X.tolist() == rows
            assert data.Y.view(np.uint64).tolist() == np.array(labels).view(np.uint64).tolist()
            assert data.provenance == tuple(tags)
        assert 700 < len(data) < 900  # repeats were dropped within and across batches
        assert all(data.contains(row) for row in data.X)
        absent = np.random.default_rng(3).integers(0, 2, (200, self.N)).astype(np.uint8)
        for row in absent:
            assert data.contains(row) == (row.tolist() in rows)

    def test_a_batch_is_checked_whole(self):
        data = self.grown()
        X, Y, tags = self.batches()[1]
        X = X.copy()
        X[-1, 3] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            data.append_rows(X, Y, tags)
        with pytest.raises(ValueError, match="0 or 1"):
            data.contains(X[-1])
        with pytest.raises(ValueError, match="1-D"):
            data.contains(np.zeros(0, dtype=np.uint8))

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_saved_bytes_are_the_per_row_text(self, tmp_path, monkeypatch, compiled, order):
        data = self.grown()
        data = lq.LabeledDataset(X=np.asarray(data.X, order=order), Y=data.Y,
                                 provenance=data.provenance)
        if not compiled:
            monkeypatch.setattr(_native, "library", lambda: None)
        path = tmp_path / "data.txt"
        lq.save_dataset(data, path)
        lines = [f"DATASET v1 n={self.N} count={len(data)}"] + [
            f"{''.join(map(str, x))} {float_text(y)} {tag}"
            for x, y, tag in zip(data.X, data.Y, data.provenance)
        ]
        assert path.read_bytes() == "".join(f"{line}\n" for line in lines).encode()

    def test_load_gives_back_every_bit(self, tmp_path):
        data = self.grown()
        path = tmp_path / "data.txt"
        lq.save_dataset(data, path)
        loaded = lq.load_dataset(path)
        assert loaded.X.dtype == np.uint8 and loaded.X.tolist() == data.X.tolist()
        assert loaded.Y.view(np.uint64).tolist() == data.Y.view(np.uint64).tolist()
        assert loaded.provenance == data.provenance
        assert set(np.array(self.EDGE_LABELS).view(np.uint64).tolist()) <= set(
            loaded.Y.view(np.uint64).tolist())
