"""The dense coupling store of QuboProblem and IsingProblem and the batched energies."""

import numpy as np
import pytest

import latentqubo as lq
from conftest import random_qubo


def dense_qubo(rng, n):
    return lq.QuboProblem(
        linear=rng.normal(size=n), quadratic=np.triu(rng.normal(size=(n, n)), 1), offset=0.25
    )


class TestConstruction:
    def test_dict_and_matrix_give_equal_problems(self):
        rng = np.random.default_rng(1)
        q = random_qubo(rng, 6, density=0.5)
        matrix = np.zeros((6, 6))
        for (i, j), c in q.quadratic.items():
            matrix[i, j] = c
        assert lq.QuboProblem(linear=q.linear, quadratic=matrix, offset=q.offset) == q
        assert np.array_equal(q.upper, matrix)
        m = lq.IsingProblem(h=[1.0, 2.0, 3.0], j={(0, 2): -1.5})
        assert lq.IsingProblem(h=[1.0, 2.0, 3.0], j=m.upper) == m
        assert m.j == {(0, 2): -1.5}

    def test_no_couplings_is_a_zero_matrix(self):
        q = lq.QuboProblem(linear=[1.0, 2.0])
        assert q.upper.shape == (2, 2) and not q.upper.any()
        assert q.quadratic == {}

    @pytest.mark.parametrize(
        "matrix, msg",
        [
            ([[0.0, 0.0], [1.0, 0.0]], "upper triangular"),
            ([[1.0, 0.0], [0.0, 0.0]], "upper triangular"),
            ([[0.0, np.nan], [0.0, 0.0]], "finite"),
            ([[0.0, np.inf], [0.0, 0.0]], "finite"),
            ([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], "shape"),
            ([0.0, 1.0], "shape"),
        ],
    )
    def test_bad_matrix_rejected(self, matrix, msg):
        with pytest.raises(ValueError, match=msg):
            lq.QuboProblem(linear=[0.0, 0.0], quadratic=matrix)
        with pytest.raises(ValueError, match=msg):
            lq.IsingProblem(h=[0.0, 0.0], j=matrix)

    def test_read_only(self):
        q = lq.QuboProblem(linear=[1.0, 2.0], quadratic={(0, 1): 3.0})
        m = lq.qubo_to_ising(q)
        for array in (q.upper, q.linear, m.upper, m.h):
            with pytest.raises(ValueError):
                array[0] = 9.0
        with pytest.raises(AttributeError):
            q.upper = np.zeros((2, 2))
        with pytest.raises(AttributeError):
            m.offset = 1.0
        with pytest.raises(TypeError):
            q.quadratic[(0, 1)] = 9.0
        with pytest.raises(TypeError):
            m.j[(0, 1)] = 9.0

    def test_input_matrix_is_copied(self):
        matrix = np.array([[0.0, 1.0], [0.0, 0.0]])
        q = lq.QuboProblem(linear=[0.0, 0.0], quadratic=matrix)
        matrix[0, 1] = 5.0
        assert q.upper[0, 1] == 1.0


class TestEquality:
    def test_ignores_label_transform(self):
        a = lq.QuboProblem(linear=[1.0, 2.0], quadratic={(0, 1): 3.0}, offset=0.5)
        b = lq.QuboProblem(
            linear=[1.0, 2.0],
            quadratic={(0, 1): 3.0},
            offset=0.5,
            label_transform=lq.LabelTransform(c=2.0),
        )
        assert a == b

    def test_every_stored_field_counts(self):
        base = dict(linear=[1.0, 2.0], quadratic={(0, 1): 3.0}, offset=0.5)
        q = lq.QuboProblem(**base)
        assert q != lq.QuboProblem(**{**base, "linear": [1.0, 2.5]})
        assert q != lq.QuboProblem(**{**base, "quadratic": {(0, 1): 3.5}})
        assert q != lq.QuboProblem(**{**base, "offset": 0.0})

    def test_qubo_never_equals_ising(self):
        q = lq.QuboProblem(linear=[1.0], offset=0.5)
        assert q != lq.IsingProblem(h=[1.0], offset=0.5)


def test_connectivity_counts_nonzero_couplings():
    matrix = np.triu(np.ones((5, 5)), 1)
    matrix[0, 3] = matrix[2, 4] = 0.0
    report = lq.analyze_connectivity(lq.QuboProblem(linear=np.zeros(5), quadratic=matrix), 5)
    assert report.edge_count == 8
    assert report.is_fully_connected is False
    sparse = lq.QuboProblem(linear=np.zeros(3), quadratic={(0, 1): 1.0, (1, 2): 0.0})
    assert lq.analyze_connectivity(sparse, 3).edge_count == 1


def test_fm_to_qubo_is_the_upper_gram_triangle():
    rng = np.random.default_rng(4)
    model = lq.FmModel(w0=0.5, w=rng.normal(size=6), V=rng.normal(size=(6, 3)))
    q = lq.fm_to_qubo(model)
    assert np.array_equal(q.upper, np.triu(model.V @ model.V.T, 1))
    assert np.array_equal(q.linear, model.w) and q.offset == model.w0


class TestBatchedEnergy:
    @pytest.mark.parametrize("n", [16, 64, 180])
    def test_batch_equals_row_by_row_exactly(self, n):
        rng = np.random.default_rng(n)
        q = dense_qubo(rng, n)
        X = rng.integers(0, 2, (40, n))
        batch = lq.qubo_energy(q, X)
        assert isinstance(batch, np.ndarray) and batch.shape == (40,)
        assert batch.tolist() == [lq.qubo_energy(q, x) for x in X]
        # a state's energy does not depend on the batch around it
        assert np.concatenate([lq.qubo_energy(q, X[:7]), lq.qubo_energy(q, X[7:])]).tolist() == (
            batch.tolist()
        )

    def test_matches_pair_sum_reference(self):
        rng = np.random.default_rng(3)
        q = random_qubo(rng, 12, density=0.6)
        X = rng.integers(0, 2, (50, 12))
        reference = [
            q.offset
            + float(q.linear @ x)
            + sum(c for (i, j), c in q.quadratic.items() if x[i] and x[j])
            for x in X
        ]
        assert lq.qubo_energy(q, X) == pytest.approx(reference, rel=1e-12, abs=1e-12)

    def test_ising_batch_equals_row_by_row(self):
        rng = np.random.default_rng(5)
        m = lq.qubo_to_ising(dense_qubo(rng, 20))
        S = 2 * rng.integers(0, 2, (30, 20)) - 1
        assert lq.ising_energy(m, S).tolist() == [lq.ising_energy(m, s) for s in S]

    def test_batch_validation(self):
        q = lq.QuboProblem(linear=[1.0, 2.0])
        with pytest.raises(ValueError, match="n=2.*length 3"):
            lq.qubo_energy(q, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="0 or 1"):
            lq.qubo_energy(q, [[0, 1], [2, 0]])
        with pytest.raises(ValueError, match="1-D"):
            lq.qubo_energy(q, np.zeros((2, 2, 2)))

    def test_samplers_report_the_same_energies(self):
        rng = np.random.default_rng(6)
        q = random_qubo(rng, 10)
        for sample_set in (
            lq.brute_force_sample(q, top_k=12),
            lq.simulated_annealing_sample(q, lq.AnnealSchedule(num_sweeps=20), seed=3),
        ):
            for entry in sample_set.entries:
                assert entry.energy == lq.qubo_energy(q, entry.vector)
