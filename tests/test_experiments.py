import numpy as np
import pytest

from privsample import (
    FrequencyHistogram,
    PrivacyParams,
    SamplingScheme,
    SbhConfig,
    compute_pi,
    expected_reported_fraction,
    nrmse_experiment,
    run_sweep,
    sampled_sbh_report_prob,
    sbh_report_prob,
    uniform_histogram,
    zipf_histogram,
)
from privsample.experiments import DELTA_GRID_DEFAULT


def tau_points(kind, taus, params):
    return [(tau, params, SamplingScheme(kind, tau)) for tau in taus]


class TestZipf:
    def test_flat_at_alpha_zero(self):
        hist = zipf_histogram(1000, 0.0, 37)
        assert hist.counts == {37: 1000}

    def test_top_rank_gets_w_max(self):
        hist = zipf_histogram(100, 1.3, 5000)
        assert 5000 in hist.counts

    def test_total_mass_consistent(self):
        # direct summation oracle over ranks; the harmonic-like normalizer
        # uses the same floored-and-rounded per-rank values (consistency,
        # not the raw harmonic series, which the floor at 1 inflates)
        n, alpha, w_max = 100_000, 1.0, 10_000
        hist = zipf_histogram(n, alpha, w_max)
        ranks = np.arange(1, n + 1, dtype=float)
        per_rank = np.maximum(1, np.rint(w_max * ranks**-alpha))
        got = sum(f * c for f, c in hist.counts.items())
        assert got == per_rank.sum()
        assert got == pytest.approx(w_max * np.sum(per_rank / w_max), rel=0.01)

    def test_floor_at_one(self):
        hist = zipf_histogram(10_000, 2.0, 100)
        assert min(hist.counts) == 1
        assert hist.n_keys == 10_000


class TestUniform:
    def test_even_split(self):
        hist = uniform_histogram(200_000, 1, 200)
        assert set(hist.counts) == set(range(1, 201))
        assert all(c == 1000 for c in hist.counts.values())

    def test_remainder_spread(self):
        hist = uniform_histogram(7, 1, 3)
        assert hist.counts == {1: 3, 2: 2, 3: 2}


class TestReportedFraction:
    def test_certain_reporting(self):
        hist = FrequencyHistogram.from_counts({1: 5, 9: 5})
        assert expected_reported_fraction(hist, np.ones(10)) == 1.0

    def test_never_reporting(self):
        hist = FrequencyHistogram.from_counts({1: 5, 9: 5})
        assert expected_reported_fraction(hist, np.zeros(10)) == 0.0

    def test_single_frequency(self):
        hist = FrequencyHistogram.from_counts({7: 123})
        assert expected_reported_fraction(hist, np.full(8, 0.25)) == 0.25

    def test_weighted_average(self):
        hist = FrequencyHistogram.from_counts({1: 3, 2: 1})
        assert expected_reported_fraction(hist, np.array([0.0, 0.0, 1.0])) == 0.25


@pytest.fixture(scope="module")
def small_zipf():
    return zipf_histogram(2000, 1.0, 500)


class TestRunSweep:

    def test_delta_one_reports_everything(self, small_zipf):
        points = [(1.0, PrivacyParams(0.1, 1.0), SamplingScheme.none())]
        rows = {r.method: r.result for r in run_sweep(small_zipf, "delta", points,
                                                      ("pws-keys", "sbh"))}
        assert rows["pws-keys"] == pytest.approx(1.0, abs=1e-12)
        assert rows["sbh"] < 1.0  # the baseline loses keys even without privacy

    def test_reported_fraction_monotone_in_delta(self, small_zipf):
        points = [(d, PrivacyParams(0.1, d), SamplingScheme.none()) for d in DELTA_GRID_DEFAULT]
        rows = run_sweep(small_zipf, "delta", points, ("pws-keys",))
        fractions = [r.result for r in rows]  # grid runs from delta=1 downward
        assert all(a >= b - 1e-15 for a, b in zip(fractions, fractions[1:]))

    def test_pws_dominates_sampled_baseline_per_point(self, small_zipf):
        points = tau_points("ppswor", (1.0, 0.1, 0.01, 0.001), PrivacyParams(0.1, 0.001))
        rows = run_sweep(small_zipf, "tau", points, ("pws-keys", "sampled-sbh"))
        by_value = {}
        for r in rows:
            by_value.setdefault(r.value, {})[r.method] = r.result
        for value, methods in by_value.items():
            assert methods["pws-keys"] >= methods["sampled-sbh"] - 1e-12

    def test_per_frequency_dominance(self, params_std):
        # the sweep-level dominance follows from per-frequency dominance
        cfg = SbhConfig(PrivacyParams(0.1, 0.001))
        scheme = SamplingScheme.ppswor(0.05)
        rv = compute_pi(cfg.params, scheme, 300)
        for i in range(1, 301):
            assert rv.pi[i] >= sampled_sbh_report_prob(cfg, scheme, i) - 1e-12

    def test_reporting_monotone_in_delta_per_frequency(self):
        # a larger delta never reduces any reporting probability
        scheme = SamplingScheme.ppswor(0.3)
        prev = np.zeros(201)
        for delta in [1e-8, 1e-6, 1e-4, 1e-2, 1.0]:
            pi = compute_pi(PrivacyParams(0.1, delta), scheme, 200).pi
            assert np.all(pi >= prev - 1e-15)
            prev = pi

    def test_rejects_unknown_method_before_any_row(self, monkeypatch):
        def compute(*args):
            raise AssertionError("a row was computed before the methods were checked")

        monkeypatch.setattr("privsample.experiments._reported_fraction", compute)
        points = tau_points("ppswor", (1.0,), PrivacyParams(0.1, 0.01))
        with pytest.raises(ValueError, match="distinct method names from .*, got 'pws-keys,bogus'"):
            run_sweep(uniform_histogram(100, 1, 5), "tau", points, ("pws-keys", "bogus"))

    @pytest.mark.parametrize("methods", [(), ("pws-keys", "pws-keys"), ("sbh", "nonprivate", "sbh")])
    def test_rejects_empty_or_repeated_methods_before_any_row(self, monkeypatch, methods):
        def compute(*args):
            raise AssertionError("a row was computed before the methods were checked")

        monkeypatch.setattr("privsample.experiments._reported_fraction", compute)
        points = tau_points("ppswor", (1.0,), PrivacyParams(0.1, 0.01))
        with pytest.raises(ValueError, match="distinct method names"):
            run_sweep(uniform_histogram(100, 1, 5), "tau", points, methods)


@pytest.fixture(scope="module")
def rows_by_method():
    hist = uniform_histogram(20_000, 1, 60)
    points = tau_points("pps", (1.0, 0.1, 0.01, 0.001), PrivacyParams(0.1, 0.01))
    out = {}
    for r in nrmse_experiment(hist, points):
        out.setdefault(r.method, {})[r.value] = r.result
    return out


class TestNrmseExperiment:

    def test_nonprivate_exact_at_tau_one(self, rows_by_method):
        assert rows_by_method["nonprivate"][1.0] == 0.0

    def test_private_beats_baseline_without_sampling(self, rows_by_method):
        assert rows_by_method["pws-freq-mle"][1.0] < rows_by_method["sampled-sbh"][1.0]

    def test_deterministic(self):
        hist = uniform_histogram(5000, 1, 30)
        points = tau_points("pps", (0.5, 0.01), PrivacyParams(0.1, 0.01))
        r1 = nrmse_experiment(hist, points)
        r2 = nrmse_experiment(hist, points)
        assert [(a.value, a.method, a.result) for a in r1] == [
            (a.value, a.method, a.result) for a in r2
        ]

    def test_rejects_unknown_method_before_any_table(self, monkeypatch):
        def build(*args):
            raise AssertionError("a table was built before the methods were checked")

        monkeypatch.setattr("privsample.experiments._pws_mle_nrmse", build)
        points = tau_points("ppswor", (1.0,), PrivacyParams(0.1, 0.01))
        with pytest.raises(ValueError, match="distinct method names from .*, got 'pws-freq-mle,bogus'"):
            nrmse_experiment(uniform_histogram(100, 1, 5), points, ("pws-freq-mle", "bogus"))

    @pytest.mark.parametrize("methods", [(), ("nonprivate", "nonprivate"),
                                         ("pws-freq-mle", "sampled-sbh", "pws-freq-mle")])
    def test_rejects_empty_or_repeated_methods_before_any_table(self, monkeypatch, methods):
        def build(*args):
            raise AssertionError("a table was built before the methods were checked")

        for name in ("_pws_mle_nrmse", "sbh_moment_table", "nonprivate_moment_table"):
            monkeypatch.setattr(f"privsample.experiments.{name}", build)
        points = tau_points("ppswor", (1.0,), PrivacyParams(0.1, 0.01))
        with pytest.raises(ValueError, match="distinct method names"):
            nrmse_experiment(uniform_histogram(100, 1, 5), points, methods)
