import csv
import math
import os
import tracemalloc

import numpy as np
import pytest

from pmmwm.errors import SpecInvalid
from pmmwm.graph import (
    ABSENT,
    MAX_CELLS,
    MAX_TOTAL_WEIGHT,
    MAX_WEIGHT,
    BipartiteGraph,
    load_instance,
)
from pmmwm.instgen import (
    BENCHMARK_GROUPS,
    InstanceSpec,
    benchmark_specs,
    generate,
    generate_benchmark,
    instance_filename,
    write_instance,
)
from pmmwm.matching import MatchState


def spec_of(**kw):
    base = dict(n1=10, n2=12, m=3, ubar=4, density=0.5,
                weight_model="INDEPENDENT", w_max=100, seed=7)
    base.update(kw)
    return InstanceSpec(**base)


class TestGenerate:
    def test_full_density_is_complete(self):
        g = generate(spec_of(density=1.0))
        assert g.edge_count() == 10 * 12

    def test_always_feasible(self):
        for seed in range(10):
            for model in ("CONSISTENT", "INDEPENDENT"):
                g = generate(spec_of(density=0.1, weight_model=model, seed=seed))
                assert g.has_perfect_matching()

    def test_deterministic_files(self, tmp_path):
        spec = spec_of(seed=123)
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        write_instance(spec, p1)
        write_instance(spec, p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_different_seeds_differ(self):
        a = generate(spec_of(seed=1))
        b = generate(spec_of(seed=2))
        assert (a.weight != b.weight).any()

    def test_weights_in_range(self):
        for model in ("CONSISTENT", "INDEPENDENT"):
            g = generate(spec_of(weight_model=model, density=1.0, w_max=50))
            present = g.weight[g.weight != ABSENT]
            assert present.min() >= 1
            assert present.max() <= 50

    def test_density_within_binomial_bounds(self):
        # presence coins apply to the n1*(n2-1) non-planted pairs
        spec = spec_of(n1=40, n2=40, ubar=14, density=0.3, seed=5)
        g = generate(spec)
        trials = 40 * 39
        extra = g.edge_count() - 40
        mean = trials * 0.3
        sigma = math.sqrt(trials * 0.3 * 0.7)
        assert abs(extra - mean) <= 3 * sigma

    def test_consistent_rows_more_correlated(self):
        def mean_row_correlation(model, seed):
            g = generate(spec_of(n1=12, n2=12, ubar=5, density=1.0,
                                 weight_model=model, w_max=10_000, seed=seed))
            rows = g.weight.astype(float)
            cors = []
            for i in range(12):
                for j in range(i + 1, 12):
                    c = np.corrcoef(rows[i], rows[j])[0, 1]
                    if not math.isnan(c):
                        cors.append(c)
            return sum(cors) / len(cors)

        cons = sum(mean_row_correlation("CONSISTENT", s) for s in range(20)) / 20
        ind = sum(mean_row_correlation("INDEPENDENT", s) for s in range(20)) / 20
        assert cons > ind + 0.3

    def test_spec_validation(self):
        with pytest.raises(SpecInvalid):
            generate(spec_of(n1=5, n2=3))
        with pytest.raises(SpecInvalid):
            generate(spec_of(m=2, ubar=2, n1=5, n2=5))
        with pytest.raises(SpecInvalid):
            generate(spec_of(density=0.0))
        with pytest.raises(SpecInvalid):
            generate(spec_of(weight_model="OTHER"))
        with pytest.raises(SpecInvalid):
            generate(spec_of(w_max=0))
        # past the loader's limits, failing before any table is allocated;
        # m * ubar >= n1 in each, so the limit is the only fault
        with pytest.raises(SpecInvalid):
            generate(spec_of(w_max=MAX_WEIGHT + 1))
        with pytest.raises(SpecInvalid):
            generate(spec_of(w_max=MAX_TOTAL_WEIGHT // 10 + 1))  # n1 = 10
        side = math.isqrt(MAX_CELLS) + 1
        with pytest.raises(SpecInvalid):
            generate(spec_of(n1=side, n2=side, m=1, ubar=side))

    @pytest.mark.parametrize("model", ["CONSISTENT", "INDEPENDENT"])
    def test_memory_stays_near_the_weight_table(self, model):
        # The weight walk fills the table in place: no per-cell Python lists.
        spec = spec_of(n1=300, n2=300, m=10, ubar=30, density=1.0, weight_model=model)
        generate(spec)
        tracemalloc.start()
        try:
            g = generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * g.weight.nbytes

    def test_graph_and_match_state_copy_the_table_at_most_once(self):
        # The graph adds only its bool ban table (0.13x the weight table), the
        # matcher state its eff table plus masks (1.13x); one more copy or a
        # gather of the present cells breaks its cap.
        g = generate(spec_of(n1=300, n2=300, m=10, ubar=30, density=0.3))
        peaks = []
        for build in (lambda: BipartiteGraph(g.n1, g.n2, g.m, g.ubar, g.weight),
                      lambda: MatchState(g)):
            tracemalloc.start()
            try:
                build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= g.weight.nbytes // 4
        assert peaks[1] <= 1.5 * g.weight.nbytes


class TestBenchmark:
    def test_group_sweep_size(self):
        specs = benchmark_specs("independent-dense")
        assert len(specs) == 4 * 3 * 5
        assert all(s.ubar == math.ceil(1.2 * s.n1 / s.m) for s in specs)

    def test_unknown_group(self):
        with pytest.raises(SpecInvalid):
            benchmark_specs("nope")

    def test_generate_benchmark_files_and_manifest(self, tmp_path):
        # trimmed sweep via monkeypatching would touch module constants; use
        # the real sparse group but only verify the emitted artifacts
        out = str(tmp_path / "bench")
        paths = generate_benchmark("independent-sparse", out)
        assert len(paths) == 60
        manifest = os.path.join(out, "manifest.csv")
        with open(manifest) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        listed = {row["file"] for row in rows}
        assert listed == {os.path.basename(p) for p in paths}
        # spot-check a few files reload cleanly with matching headers
        for row in rows[::13]:
            g = load_instance(os.path.join(out, row["file"]))
            assert g.n1 == int(row["n1"])
            assert g.m == int(row["m"])
            assert g.ubar == int(row["ubar"])

    def test_filenames_unique(self):
        for group in BENCHMARK_GROUPS:
            names = [instance_filename(s) for s in benchmark_specs(group)]
            assert len(names) == len(set(names))
