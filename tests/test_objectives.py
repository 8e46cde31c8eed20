import math

import numpy as np
import pytest

import latentqubo as lq


class TestTargetOverlap:
    def test_perfect_match(self, half_plane_target):
        obj = lq.TargetOverlapObjective(target=half_plane_target)
        assert obj.evaluate(half_plane_target) == 1.0

    def test_complement_scores_zero(self, half_plane_target):
        obj = lq.TargetOverlapObjective(target=half_plane_target)
        assert obj.evaluate(1 - half_plane_target) == 0.0

    def test_partial_overlap(self):
        target = np.zeros((4, 4), dtype=np.uint8)
        target[:2, :] = 1
        probe = np.zeros((4, 4), dtype=np.uint8)
        probe[0, :] = 1
        obj = lq.TargetOverlapObjective(target=target)
        # one row wrong out of four
        assert obj.evaluate(probe) == pytest.approx(0.75)

    def test_shape_mismatch(self, half_plane_target):
        obj = lq.TargetOverlapObjective(target=half_plane_target)
        with pytest.raises(ValueError, match="match target"):
            obj.evaluate(np.zeros((4, 4), dtype=np.uint8))

    def test_non_binary_pattern_rejected(self, half_plane_target):
        obj = lq.TargetOverlapObjective(target=half_plane_target)
        with pytest.raises(ValueError, match="0 or 1"):
            obj.evaluate(np.full((8, 8), 0.5))

    def test_name(self, half_plane_target):
        assert lq.TargetOverlapObjective(target=half_plane_target).name == "target_overlap"


class TestProductEfficiency:
    def test_all_zero_frozen_value(self):
        obj = lq.ProductEfficiencyObjective(target_fill=0.5, smoothness_weight=1.0)
        val = obj.evaluate(np.zeros((8, 8), dtype=np.uint8))
        assert val == pytest.approx(math.exp(-12.5), rel=1e-12)

    def test_solid_at_target_fill(self):
        # fill exactly on target and no boundaries: both factors are 1
        obj = lq.ProductEfficiencyObjective(target_fill=0.5, smoothness_weight=2.0)
        half = np.zeros((8, 8), dtype=np.uint8)
        half[:4, :] = 1
        boundary = 8 / (2 * 8 * 7)
        assert obj.evaluate(half) == pytest.approx(1.0 / (1.0 + 2.0 * boundary))

    def test_checkerboard_maximally_jagged(self):
        obj = lq.ProductEfficiencyObjective(target_fill=0.5, smoothness_weight=1.0)
        board = np.indices((8, 8)).sum(axis=0) % 2
        # every 4-neighbor pair is unequal
        assert obj.evaluate(board) == pytest.approx(0.5)

    def test_zero_weight_ignores_boundaries(self):
        obj = lq.ProductEfficiencyObjective(target_fill=0.5, smoothness_weight=0.0)
        board = np.indices((8, 8)).sum(axis=0) % 2
        assert obj.evaluate(board) == pytest.approx(1.0)

    def test_equal_statistics_score_equally(self):
        obj = lq.ProductEfficiencyObjective(target_fill=0.3, smoothness_weight=1.5)
        a = np.zeros((6, 6), dtype=np.uint8)
        a[1:3, 1:3] = 1
        b = np.roll(a, shift=(2, 2), axis=(0, 1))
        assert obj.evaluate(a) == obj.evaluate(b)

    def test_range_over_random_patterns(self):
        obj = lq.ProductEfficiencyObjective(target_fill=0.4, smoothness_weight=3.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            val = obj.evaluate(rng.integers(0, 2, (5, 5)))
            assert 0.0 <= val <= 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="target_fill"):
            lq.ProductEfficiencyObjective(target_fill=0.0, smoothness_weight=1.0)
        with pytest.raises(ValueError, match="target_fill"):
            lq.ProductEfficiencyObjective(target_fill=1.0, smoothness_weight=1.0)
        with pytest.raises(ValueError, match="smoothness_weight"):
            lq.ProductEfficiencyObjective(target_fill=0.5, smoothness_weight=-1.0)

    def test_non_square_rejected(self):
        obj = lq.ProductEfficiencyObjective(target_fill=0.5, smoothness_weight=1.0)
        with pytest.raises(ValueError, match="square"):
            obj.evaluate(np.zeros((3, 4), dtype=np.uint8))


class TestEvaluateFom:
    def test_passes_through(self, half_plane_target):
        obj = lq.TargetOverlapObjective(target=half_plane_target)
        assert lq.evaluate_fom(obj, half_plane_target) == 1.0

    def test_out_of_range_caught(self):
        class Broken(lq.FigureOfMerit):
            name = "broken"

            def evaluate(self, pattern):
                return 2.0

        with pytest.raises(ValueError, match="outside"):
            lq.evaluate_fom(Broken(), np.zeros((2, 2)))

    def test_abstract_base_unusable(self):
        with pytest.raises(NotImplementedError):
            lq.FigureOfMerit().evaluate(np.zeros((2, 2)))


def product_efficiency_alone(obj, count: int, unequal: int, m: int) -> float:
    """The product-efficiency formula in Python floats, for one pattern's two counts."""
    fill = count / (m * m)
    eff_in = float(np.exp(-((fill - obj.target_fill) ** 2) / 0.02))
    eff_out = 1.0 / (1.0 + obj.smoothness_weight * (unequal / (2 * m * (m - 1))))
    return eff_in * eff_out


def every_pattern(m: int) -> np.ndarray:
    states = np.arange(2 ** (m * m))[:, None] >> np.arange(m * m) & 1
    return states.astype(np.uint8).reshape(-1, m, m)


def every_fill(m: int, per_count: int = 3) -> np.ndarray:
    """per_count random patterns of each of the m*m + 1 fill counts."""
    rng = np.random.default_rng(m)
    flat = np.zeros((m * m + 1, per_count, m * m), dtype=np.uint8)
    for count in range(m * m + 1):
        for k in range(per_count):
            flat[count, k, rng.permutation(m * m)[:count]] = 1
    return flat.reshape(-1, m, m)


def alone(values_by_key, keys) -> list[float]:
    """Each pattern's value, looked up by its key among the distinct keys."""
    distinct, inverse = np.unique(keys, axis=0, return_inverse=True)
    table = [values_by_key(*key) for key in distinct.tolist()]
    return [table[i] for i in inverse.ravel().tolist()]


class TestStacks:
    """evaluate_fom over a stack gives each pattern the bits it gets alone."""

    # every pattern at m = 4 and every fill count at m = 8 and 16; at 0.3379... (m = 4) and
    # 0.9504... (m = 8 and 16), (fill - target) ** 2 and (fill - target) * (fill - target)
    # differ in their last bit for some fill
    @pytest.mark.parametrize("target_fill", [0.4, 0.5, 0.33791122550713326, 0.9504636963259353])
    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_product_efficiency(self, m, target_fill):
        obj = lq.ProductEfficiencyObjective(target_fill=target_fill, smoothness_weight=2.0)
        stack = every_pattern(4) if m == 4 else every_fill(m)
        values = lq.evaluate_fom(obj, stack)
        assert values.shape == (len(stack),) and values.dtype == np.float64
        # a pattern's formula depends on its fill count and its count of unequal neighbours
        unequal = (np.sum(stack[:, :, 1:] != stack[:, :, :-1], axis=(1, 2))
                   + np.sum(stack[:, 1:, :] != stack[:, :-1, :], axis=(1, 2)))
        keys = np.stack([stack.sum(axis=(1, 2)), unequal], axis=1)
        assert values.tolist() == alone(lambda c, u: product_efficiency_alone(obj, c, u, m), keys)
        for r in range(0, len(stack), 61):
            assert lq.evaluate_fom(obj, stack[r]) == obj.evaluate(stack[r]) == values[r]

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_target_overlap(self, m):
        target = np.zeros((m, m), dtype=np.uint8)
        target[: m // 2] = 1
        obj = lq.TargetOverlapObjective(target=target)
        stack = every_pattern(4) if m == 4 else every_fill(m)
        values = lq.evaluate_fom(obj, stack)
        matches = np.sum(stack == target, axis=(1, 2))[:, None]
        assert values.tolist() == alone(lambda c: float(np.mean(np.arange(m * m) < c)), matches)
        for r in range(0, len(stack), 61):
            assert lq.evaluate_fom(obj, stack[r]) == obj.evaluate(stack[r]) == values[r]

    def test_a_custom_objective_scores_each_pattern_of_a_stack(self):
        class Fill(lq.FigureOfMerit):
            name = "fill"

            def evaluate(self, pattern):
                assert pattern.shape == (3, 3)
                return float(pattern.mean())

        stack = every_fill(3, per_count=1)
        assert lq.evaluate_fom(Fill(), stack).tolist() == [c / 9 for c in range(10)]

    def test_one_score_outside_the_range_rejects_the_stack(self):
        class Broken(lq.FigureOfMerit):
            name = "broken"

            def evaluate(self, pattern):
                return 2.0 if pattern.all() else 0.5

        with pytest.raises(ValueError, match="returned 2.0, outside"):
            lq.evaluate_fom(Broken(), every_fill(2, per_count=1))

    def test_a_stack_of_other_shapes_rejected(self):
        obj = lq.ProductEfficiencyObjective(target_fill=0.5, smoothness_weight=1.0)
        with pytest.raises(ValueError, match="square"):
            lq.evaluate_fom(obj, np.zeros((3, 4, 5)))
        with pytest.raises(ValueError, match="square"):
            lq.evaluate_fom(obj, np.zeros((2, 3, 4, 4)))
        with pytest.raises(ValueError, match="square"):
            obj.evaluate(np.zeros((3, 4, 4)))


class TestStratification:
    def spec(self):
        return lq.StratificationSpec(
            bands=((0.0, 0.5), (0.5, 1.0)), fractions=(0.5, 0.5)
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="lower < upper"):
            lq.StratificationSpec(bands=((0.5, 0.5),), fractions=(1.0,))
        with pytest.raises(ValueError, match="sum to 1"):
            lq.StratificationSpec(bands=((0.0, 1.0),), fractions=(0.9,))
        with pytest.raises(ValueError, match="overlap"):
            lq.StratificationSpec(
                bands=((0.0, 0.6), (0.5, 1.0)), fractions=(0.5, 0.5)
            )
        with pytest.raises(ValueError, match="one fraction per band"):
            lq.StratificationSpec(bands=((0.0, 1.0),), fractions=(0.5, 0.5))

    def test_top_band_is_closed(self):
        spec = self.spec()
        labels = np.array([0.0, 0.5, 1.0])
        assert spec.band_mask(labels, 0).tolist() == [True, False, False]
        assert spec.band_mask(labels, 1).tolist() == [False, True, True]

    def test_quota_split(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, (100, 4)).astype(np.uint8)
        Y = np.concatenate([rng.uniform(0.0, 0.45, 50), rng.uniform(0.55, 1.0, 50)])
        pool = lq.LabeledDataset(X=X, Y=Y, provenance=("random",) * 100)
        out = lq.stratify_dataset(pool, self.spec(), total=40, seed=7)
        assert len(out) == 40
        assert int(np.sum(out.Y < 0.5)) == 20
        assert int(np.sum(out.Y >= 0.5)) == 20

    def test_rounding_of_quotas(self):
        # fractions 0.75/0.25 of total=6 round to 5 and 2 (half rounds up)
        spec = lq.StratificationSpec(
            bands=((0.0, 0.5), (0.5, 1.0)), fractions=(0.75, 0.25)
        )
        rng = np.random.default_rng(2)
        X = rng.integers(0, 2, (40, 3)).astype(np.uint8)
        Y = np.concatenate([np.full(20, 0.2), np.full(20, 0.8)])
        pool = lq.LabeledDataset(X=X, Y=Y, provenance=("random",) * 40)
        out = lq.stratify_dataset(pool, spec, total=6, seed=0)
        assert int(np.sum(out.Y < 0.5)) == 5
        assert int(np.sum(out.Y >= 0.5)) == 2

    def test_deficit_error(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 2, (10, 3)).astype(np.uint8)
        pool = lq.LabeledDataset(X=X, Y=np.full(10, 0.9), provenance=("random",) * 10)
        with pytest.raises(ValueError, match="deficit 5"):
            lq.stratify_dataset(pool, self.spec(), total=10, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.integers(0, 2, (60, 5)).astype(np.uint8)
        Y = rng.random(60)
        pool = lq.LabeledDataset(X=X, Y=Y, provenance=("random",) * 60)
        a = lq.stratify_dataset(pool, self.spec(), total=20, seed=9)
        b = lq.stratify_dataset(pool, self.spec(), total=20, seed=9)
        assert a.X.tolist() == b.X.tolist()
        assert a.Y.tolist() == b.Y.tolist()


class TestLatentDataset:
    def test_build(self, toy_bvae, half_plane_target):
        obj = lq.TargetOverlapObjective(target=half_plane_target)
        data = lq.build_latent_dataset(toy_bvae, obj, count=30, seed=5)
        assert len(data) == 30
        assert data.n == 16
        assert data.provenance == ("random",) * 30
        assert np.all((0 <= data.Y) & (data.Y <= 1))

    def test_labels_reproducible_from_rows(self, toy_bvae, half_plane_target):
        obj = lq.TargetOverlapObjective(target=half_plane_target)
        data = lq.build_latent_dataset(toy_bvae, obj, count=10, seed=6)
        for r in range(10):
            _, pattern = lq.decode(toy_bvae, data.X[r])
            assert data.Y[r] == lq.evaluate_fom(obj, pattern)

    def test_deterministic(self, toy_bvae, half_plane_target):
        obj = lq.TargetOverlapObjective(target=half_plane_target)
        a = lq.build_latent_dataset(toy_bvae, obj, count=12, seed=7)
        b = lq.build_latent_dataset(toy_bvae, obj, count=12, seed=7)
        assert a.X.tolist() == b.X.tolist()
        assert a.Y.tolist() == b.Y.tolist()

    def test_count_validated(self, toy_bvae, half_plane_target):
        obj = lq.TargetOverlapObjective(target=half_plane_target)
        with pytest.raises(ValueError, match="count"):
            lq.build_latent_dataset(toy_bvae, obj, count=0, seed=0)


class TestToyCorpus:
    def test_half_planes_enumerate_all(self):
        corpus = lq.generate_toy_corpus("half_planes", m=8, count=256, seed=11)
        assert corpus.shape == (256, 8, 8)
        distinct = {img.tobytes() for img in corpus}
        # 2(m-1) half planes plus the empty and full patterns
        assert len(distinct) == 16

    def test_half_planes_are_half_planes(self):
        corpus = lq.generate_toy_corpus("half_planes", m=5, count=12, seed=0)
        for img in corpus:
            # every row (or column) is constant for axis-aligned half planes
            rows_const = np.all(img == img[:, :1])
            cols_const = np.all(img == img[:1, :])
            assert rows_const or cols_const

    def test_deterministic(self):
        a = lq.generate_toy_corpus("stripes", m=6, count=20, seed=3)
        b = lq.generate_toy_corpus("stripes", m=6, count=20, seed=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", lq.CORPUS_KINDS)
    def test_binary_output(self, kind):
        corpus = lq.generate_toy_corpus(kind, m=8, count=10, seed=1)
        assert corpus.shape == (10, 8, 8)
        assert np.all((corpus == 0) | (corpus == 1))

    def test_blobs_balanced_fill(self):
        corpus = lq.generate_toy_corpus("blobs", m=16, count=8, seed=2)
        fills = corpus.mean(axis=(1, 2))
        # median thresholding keeps fill near one half
        assert np.all(np.abs(fills - 0.5) < 0.2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown corpus kind"):
            lq.generate_toy_corpus("spirals", m=8, count=4, seed=0)

    def test_small_side_rejected(self):
        with pytest.raises(ValueError, match=">= 4"):
            lq.generate_toy_corpus("half_planes", m=3, count=4, seed=0)
