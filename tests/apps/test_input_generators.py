"""Unit tests for the benchmark input generators: determinism and the
structural guarantees the kernels rely on."""

import numpy as np
import pytest

from repro.apps import get_app, list_apps
from repro.apps.base import AppSpec
from repro.errors import OmpError


class TestRegistry:
    def test_all_apps_listed(self):
        assert set(list_apps()) == {
            "pi", "jacobi", "lu", "md", "fft", "qsort", "bfs",
            "clustering", "wordcount"}

    def test_unknown_app(self):
        with pytest.raises(OmpError, match="unknown app"):
            get_app("nbody")

    def test_specs_are_complete(self):
        for name in list_apps():
            spec = get_app(name)
            assert isinstance(spec, AppSpec)
            assert spec.title
            assert set(spec.sizes) >= {"test", "default", "paper"}
            assert callable(spec.kernel)
            assert callable(spec.kernel_dt)
            assert callable(spec.sequential)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["jacobi", "lu", "qsort", "bfs",
                                      "wordcount", "fft", "md"])
    def test_same_seed_same_input(self, name):
        spec = get_app(name)
        first = spec.inputs("test")
        second = spec.inputs("test")
        for key, value in first.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, second[key])
            elif not hasattr(value, "nodes"):  # graphs compared below
                assert value == second[key]

    def test_clustering_graph_deterministic(self):
        spec = get_app("clustering")
        first = spec.inputs("test")["graph"]
        second = spec.inputs("test")["graph"]
        assert sorted(first.edges()) == sorted(second.edges())

    def test_different_seed_different_data(self):
        from repro.apps.jacobi import make_system
        a1, _b1 = make_system(8, seed=1)
        a2, _b2 = make_system(8, seed=2)
        assert a1 != a2


class TestStructuralGuarantees:
    def test_jacobi_matrix_diagonally_dominant(self):
        from repro.apps.jacobi import make_system
        a, _b = make_system(24)
        for i, row in enumerate(a):
            off_diagonal = sum(abs(v) for j, v in enumerate(row)
                               if j != i)
            assert abs(row[i]) > off_diagonal

    def test_lu_matrix_diagonally_dominant(self):
        from repro.apps.lu import make_matrix
        a = make_matrix(16)
        for i, row in enumerate(a):
            assert abs(row[i]) > sum(abs(v) for j, v in enumerate(row)
                                     if j != i)

    def test_fft_rejects_non_power_of_two(self):
        spec = get_app("fft")
        with pytest.raises(ValueError, match="power of two"):
            spec.inputs("test", n=300)

    def test_maze_has_connected_entrance_exit(self):
        from repro.apps.bfs import make_maze, sequential
        for seed in (1, 7, 31, 99):
            grid = make_maze(25, seed=seed)
            assert grid[0][0] == 0
            assert grid[24][24] == 0
            reached, _count = sequential(grid, 25)
            assert reached, f"seed {seed} produced a blocked maze"

    def test_corpus_is_zipf_like(self):
        import collections
        from repro.apps.wordcount import make_corpus
        corpus = make_corpus(800, vocabulary_size=500)
        counts = collections.Counter(
            word for line in corpus for word in line.split())
        frequencies = sorted(counts.values(), reverse=True)
        # Heavy head: the top 10% of words carry most of the mass.
        head = sum(frequencies[:50])
        assert head > 0.4 * sum(frequencies)

    def test_corpus_has_heavy_tailed_line_lengths(self):
        from repro.apps.wordcount import make_corpus
        corpus = make_corpus(400)
        lengths = [len(line.split()) for line in corpus]
        assert max(lengths) > 6 * (sum(lengths) / len(lengths))

    def test_corpus_matches_per_line_weights(self):
        """The corpus cumulates its Zipf weights once; the draws are
        those of passing the weights on every line."""
        import random
        from repro.apps.wordcount import _make_vocabulary, make_corpus

        def per_line_weights(lines, vocabulary_size, seed):
            rng = random.Random(seed)
            vocabulary = _make_vocabulary(vocabulary_size, rng)
            weights = [1.0 / (rank + 1)
                       for rank in range(vocabulary_size)]
            corpus = []
            for index in range(lines):
                length = rng.randint(200, 400) if index % 97 == 0 \
                    else rng.randint(3, 30)
                corpus.append(" ".join(
                    rng.choices(vocabulary, weights=weights, k=length)))
            return corpus

        for lines, vocabulary_size, seed in ((500, 600, 1003),
                                             (400, 300, 5),
                                             (100, 2000, 777)):
            assert make_corpus(lines, vocabulary_size, seed) == \
                per_line_weights(lines, vocabulary_size, seed)

    def test_md_particles_shapes(self):
        from repro.apps.md import make_particles
        pos, vel, acc = make_particles(30)
        assert len(pos) == len(vel) == len(acc) == 3
        assert all(len(axis) == 30 for axis in pos + vel + acc)


class TestDtInputVariants:
    def test_dt_inputs_are_numpy_where_declared(self):
        for name in ("jacobi", "lu", "md", "fft"):
            spec = get_app(name)
            inputs = spec.inputs("test", dt=True)
            assert any(isinstance(v, np.ndarray)
                       for v in inputs.values()), name

    def test_qsort_dt_keeps_list(self):
        spec = get_app("qsort")
        inputs = spec.inputs("test", dt=True)
        assert isinstance(inputs["data"], list)

    def test_overrides_reach_generators(self):
        spec = get_app("pi")
        assert spec.inputs("test", n=123)["n"] == 123
