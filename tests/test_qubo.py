import re

import numpy as np
import pytest

import latentqubo as lq
from conftest import all_bit_vectors, random_qubo


class TestEnergy:
    def test_known_values(self):
        q = lq.QuboProblem(linear=[1, 2], quadratic={(0, 1): 4.0})
        assert lq.qubo_energy(q, [1, 1]) == 7.0
        assert lq.qubo_energy(q, [0, 0]) == 0.0
        assert lq.qubo_energy(q, [1, 0]) == 1.0

    def test_offset_adds_to_every_energy(self):
        q = lq.QuboProblem(linear=[1, 2], quadratic={(0, 1): 4.0}, offset=2.25)
        assert lq.qubo_energy(q, [0, 0]) == 2.25
        assert lq.qubo_energy(q, [1, 1]) == 9.25

    def test_dimension_mismatch_message(self):
        q = lq.QuboProblem(linear=[1, 2])
        with pytest.raises(ValueError, match="n=2.*length 3"):
            lq.qubo_energy(q, [0, 1, 0])

    def test_non_binary_rejected(self):
        q = lq.QuboProblem(linear=[1, 2])
        with pytest.raises(ValueError, match="0 or 1"):
            lq.qubo_energy(q, [0, 2])

    def test_ising_known_values(self):
        # the spins s score as the bits x = (s + 1) / 2 of the QUBO form
        q = lq.ising_to_qubo(lq.IsingProblem(h=[1.5, 2], j={(0, 1): 1.0}, offset=2.5))
        assert lq.qubo_energy(q, [1, 1]) == 7.0
        assert lq.qubo_energy(q, [0, 0]) == 0.0
        assert lq.qubo_energy(q, [1, 0]) == 1.0


class TestConstruction:
    def test_quadratic_keys_must_be_upper_triangular(self):
        with pytest.raises(ValueError, match="0 <= i < j < n"):
            lq.QuboProblem(linear=[1, 2], quadratic={(1, 0): 4.0})
        with pytest.raises(ValueError, match="0 <= i < j < n"):
            lq.QuboProblem(linear=[1, 2], quadratic={(0, 0): 4.0})
        with pytest.raises(ValueError, match="0 <= i < j < n"):
            lq.QuboProblem(linear=[1, 2], quadratic={(0, 2): 4.0})

    @pytest.mark.parametrize("problem", [lq.QuboProblem, lq.IsingProblem])
    @pytest.mark.parametrize("key", [(0.5, 1), (1.9, 2), ("0", "1"), (0, 1, 2), (0,), (True, 1),
                                     0, "01"])
    def test_coupling_keys_must_be_pairs_of_integers(self, problem, key):
        with pytest.raises(ValueError, match=f"coupling key {re.escape(repr(key))} must be a "
                                             f"pair of integers"):
            problem([1, 2, 3], {key: 4.0})

    def test_coupling_keys_take_numpy_integers(self):
        q = lq.QuboProblem(linear=[1, 2, 3], quadratic={(np.int8(0), np.uint64(2)): 4.0})
        assert q.quadratic == {(0, 2): 4.0}

    def test_zero_coefficients_dropped(self):
        q = lq.QuboProblem(linear=[1, 2], quadratic={(0, 1): 0.0})
        assert q.quadratic == {}

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            lq.QuboProblem(linear=[np.nan, 1])
        with pytest.raises(ValueError, match="finite"):
            lq.QuboProblem(linear=[1, 2], quadratic={(0, 1): np.inf})
        with pytest.raises(ValueError, match="finite"):
            lq.QuboProblem(linear=[1, 2], offset=np.nan)

    def test_empty_problem_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            lq.QuboProblem(linear=[])

    def test_arrays_locked(self):
        q = lq.QuboProblem(linear=[1, 2])
        with pytest.raises(ValueError):
            q.linear[0] = 9.0


class TestConversion:
    def test_worked_example(self):
        q = lq.QuboProblem(linear=[1, 2], quadratic={(0, 1): 4.0})
        m = lq.qubo_to_ising(q)
        assert m.h.tolist() == [1.5, 2.0]
        assert m.j == {(0, 1): 1.0}
        assert m.offset == 2.5

    def test_zero_problem_maps_to_zero(self):
        m = lq.qubo_to_ising(lq.QuboProblem(linear=[0.0, 0.0]))
        assert m.h.tolist() == [0.0, 0.0] and m.j == {} and m.offset == 0.0
        q = lq.ising_to_qubo(lq.IsingProblem(h=[0.0]))
        assert q.linear.tolist() == [0.0] and q.offset == 0.0

    def test_single_variable_both_ways(self):
        m = lq.qubo_to_ising(lq.QuboProblem(linear=[-1.0]))
        assert m.h.tolist() == [-0.5] and m.offset == -0.5
        q = lq.ising_to_qubo(lq.IsingProblem(h=[1.0]))
        assert q.linear.tolist() == [2.0] and q.offset == -1.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_energy_equivalence(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            q = random_qubo(rng, n)
            m = lq.qubo_to_ising(q)
            back = lq.ising_to_qubo(m)
            for x in all_bit_vectors(n):
                e = lq.qubo_energy(q, x)
                s = 2.0 * x - 1.0
                assert m.offset + m.h @ s + s @ m.upper @ s == pytest.approx(e, abs=1e-9)
                assert lq.qubo_energy(back, x) == pytest.approx(e, abs=1e-9)

    def test_offset_shift_keeps_argmin_set(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            q = random_qubo(rng, 5)
            shifted = lq.QuboProblem(
                linear=q.linear, quadratic=q.quadratic, offset=q.offset + 17.5
            )
            grid = all_bit_vectors(5)
            e = np.array([lq.qubo_energy(q, x) for x in grid])
            e2 = np.array([lq.qubo_energy(shifted, x) for x in grid])
            mins = np.flatnonzero(e <= e.min() + 1e-12)
            mins2 = np.flatnonzero(e2 <= e2.min() + 1e-12)
            assert mins.tolist() == mins2.tolist()


class TestSerialization:
    def test_qubo_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        q = random_qubo(rng, 6, density=0.5)
        path = tmp_path / "problem.txt"
        lq.save_qubo(q, path)
        loaded = lq.load_qubo(path)
        assert loaded.linear.tolist() == q.linear.tolist()
        assert loaded.quadratic == q.quadratic
        assert loaded.offset == q.offset

    def test_header_shape(self, tmp_path):
        q = lq.QuboProblem(linear=[0.0, 1.0], quadratic={(0, 1): 2.0}, offset=0.5)
        path = tmp_path / "problem.txt"
        lq.save_qubo(q, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "QUBO v1 n=2 offset=0.5"
        assert lines[1] == "L 1 1"
        assert lines[2] == "Q 0 1 2"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "problem.txt"
        path.write_text("QUBO v2 n=1 offset=0\n")
        with pytest.raises(ValueError, match="expected header"):
            lq.load_qubo(path)
        path.write_text("ISING v1 n=1 offset=0\nL 0 1\n")
        with pytest.raises(ValueError, match="expected header"):
            lq.load_qubo(path)
