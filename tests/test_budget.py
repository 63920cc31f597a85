"""The one memory budget: every suite is priced from the arrays it builds.

A price must bound the tracemalloc peak of the call it admits, within a
factor 1.5, and a refused size must raise before its first large array.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from sympairs import chaos, core, modular, network, pairs, suites
from sympairs.chaos import ChaosError, basis_build, term_count
from sympairs.modular import ModularError
from sympairs.network import NetworkError
from sympairs.pairs import PairError


def path(n):
    """Edge list of the unit path on n vertices."""
    return "".join(f"{i} {i + 1} 1\n" for i in range(n - 1))


def complete(n, name=str):
    """Edge list of the complete graph on n vertices, unit conductances."""
    return "".join(f"{name(i)} {name(j)} 1\n"
                   for i in range(n) for j in range(i + 1, n))


def long_name(i):
    """A 40-character vertex name."""
    return f"{'v' * 32}{i:08d}"


def pair(n1, n2):
    """Params of a real symmetric pair: A is n2 x n1 and B = A^T."""
    A = np.arange(n1 * n2, dtype=float).reshape(n2, n1)

    def entries(M):
        return {"rows": M.shape[0], "cols": M.shape[1],
                "entries": [[x, 0.0] for x in M.reshape(-1).tolist()]}

    return {"A": entries(A), "B": entries(A.T)}


def spy_prices(monkeypatch):
    """Every nbytes handed to check_budget, from any layer."""
    prices = []

    def spy(nbytes, what, error):
        prices.append(nbytes)
        return core.check_budget(nbytes, what, error)

    for mod in (chaos, modular, network, suites):
        monkeypatch.setattr(mod, "check_budget", spy)
    return prices


def test_budget_message():
    core.check_budget(core.MAX_BYTES, "at the limit", ModularError)
    # within 0.1% of the limit the price reads in MiB, tenths rounded up,
    # so it never reads as the limit itself
    with pytest.raises(ModularError, match=r"^x refused: needs 768\.1 MiB "
                       r"\(limit 768\.0 MiB\)$"):
        core.check_budget(core.MAX_BYTES + 1, "x", ModularError)
    with pytest.raises(ModularError, match=r"needs 768\.8 MiB \(limit 768"):
        core.check_budget(core.MAX_BYTES * 1001 // 1000, "x", ModularError)
    with pytest.raises(ModularError, match=r"needs 0\.7508 GiB \(limit 0\.75 "):
        core.check_budget(core.MAX_BYTES * 1001 // 1000 + 1, "x",
                          ModularError)
    with pytest.raises(core.OperatorError, match=r"needs over 2\^1200 bytes"):
        core.check_budget(2**1200 + 1, "y", core.OperatorError)


# each swept size peaks at 16 MiB or more
SWEEP = [
    ("malliavin", {"d": 2, "N": 30}),
    ("malliavin", {"d": 2, "N": 40}),
    ("malliavin", {"d": 3, "N": 16}),
    ("malliavin", {"d": 5, "N": 9}),
    ("malliavin", {"d": 8, "N": 8}),
    ("malliavin", {"d": 64, "N": 3}),
    ("modular", {"n": 6}),
    ("modular", {"n": 7}),
    ("modular", {"n": 8}),
    ("network", {"graph": path(1000)}),
    ("defect", {"rule": "constant", "r": 1.0, "nmax": 10**6}),
    # the edge phase of a dense graph sets its peak
    ("network", {"graph": complete(300)}),
    ("pair", pair(1, 1000)),
    ("pair", pair(300, 300)),
]


@pytest.mark.parametrize("kind, params", SWEEP,
                         ids=["malliavin-2-30", "malliavin-2-40",
                              "malliavin-3-16", "malliavin-5-9",
                              "malliavin-8-8", "malliavin-64-3", "modular-6",
                              "modular-7", "modular-8", "network-1000",
                              "defect-1e6", "network-K300", "pair-1-1000",
                              "pair-300-300"])
def test_price_bounds_the_measured_peak(monkeypatch, kind, params):
    prices = spy_prices(monkeypatch)
    modular._algebras.cache_clear()  # the modular price is the cold build's
    tracemalloc.start()
    try:
        records = suites.run_entry(kind, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        modular._algebras.cache_clear()
    assert all(r.passed for r in records)
    assert peak >= 16 * 2**20
    assert peak <= max(prices) <= 1.5 * peak


class Admitted(Exception):
    """Raised by a patched builder: the size passed the budget."""


def admit(*args, **kwargs):
    raise Admitted


def verdict(monkeypatch, kind, params):
    """'admitted' or the refusal message, with the first large array of
    each kind patched to raise: nothing is built either way."""
    monkeypatch.setattr(chaos, "basis_build", admit)
    monkeypatch.setattr(modular, "_algebras", admit)
    monkeypatch.setattr(network.np, "zeros", admit)
    monkeypatch.setattr(pairs.np, "zeros", admit)
    try:
        suites.run_entry(kind, params)
    except Admitted:
        return "admitted"
    except (ChaosError, ModularError, NetworkError, PairError) as exc:
        return str(exc)
    finally:
        monkeypatch.undo()
    raise AssertionError("the patched builder was not reached")


@pytest.mark.parametrize("kind, params", [
    # default_config, the benchmark, CI and the tier-1 tests
    *(("malliavin", {"d": d, "N": N}) for d, N in (
        (2, 6), (2, 10), (3, 6), (3, 7), (3, 8), (4, 5), (4, 8), (5, 8),
        (2, 40), (1, 169))),
    *(("modular", {"n": n}) for n in range(1, 9)),
    ("network", {"graph": path(2000)}),
    ("network", {"graph": path(2896)}),
    ("defect", {"rule": "constant", "r": 1.0, "nmax": 10**6}),
    ("defect", {"rule": "constant", "r": 1.0, "nmax": 9_151_207}),
    *(("malliavin", {"d": d, "N": N}) for d, N in ((8, 8), (64, 3))),
    # the largest path; the benchmark's desk and sweep pairs, and the
    # largest pair
    ("network", {"graph": path(3172)}),
    *(("pair", pair(n1, n2)) for n1, n2 in (
        (20, 40), (40, 20), (30, 30), (25, 35), (150, 150), (1, 3171))),
])
def test_sizes_in_use_stay_admitted(monkeypatch, kind, params):
    assert verdict(monkeypatch, kind, params) == "admitted"


@pytest.mark.parametrize("kind, params, size", [
    # the smallest d refused at N = 8, and the smallest N at d = 2 and 3
    ("malliavin", {"d": 10, "N": 8}, "0.9483 GiB"),
    ("malliavin", {"d": 2, "N": 44}, "0.7688 GiB"),
    ("malliavin", {"d": 3, "N": 23}, "0.9802 GiB"),
    ("malliavin", {"d": 10**6, "N": 2}, "2.98e+10 GiB"),
    ("modular", {"n": 9}, "1.33 GiB"),
    # within 0.1% of the limit: MiB, tenths rounded up
    ("network", {"graph": path(3173)}, "768.2 MiB"),
    ("defect", {"rule": "constant", "r": 1.0, "nmax": 9_151_208},
     "768.1 MiB"),
    # the smallest pair refused, and a 1 x 4000 pair
    ("pair", pair(1, 3172), "768.2 MiB"),
    ("pair", pair(1, 4000), "1.193 GiB"),
])
def test_oversized_refused_before_any_large_array(monkeypatch, kind, params,
                                                   size):
    message = verdict(monkeypatch, kind, params)
    limit = "768.0 MiB" if size.endswith("MiB") else "0.75 GiB"
    assert message.endswith(f"refused: needs {size} (limit {limit})")


@pytest.mark.parametrize("limit_mib", [4, 10])
def test_graph_peak_stays_under_the_budget(monkeypatch, limit_mib):
    # under a small budget every graph peaks at or under it: admitted, or
    # refused for its vertex count after an edge phase priced under the
    # budget, or refused for its edge phase before any line is split
    monkeypatch.setattr(core, "MAX_BYTES", limit_mib * 2**20)
    texts = [*(complete(n) for n in (100, 200, 300)),
             *(path(n) for n in (200, 300, 400)),
             *(complete(n, long_name) for n in (60, 150)),
             "".join(f"{long_name(i)} {long_name(i + 1)} 1\n"
                     for i in range(250))]
    verdicts = []
    for text in texts:
        tracemalloc.start()
        try:
            suites.run_entry("network", {"graph": text})
            verdicts.append("admitted")
        except NetworkError as exc:
            verdicts.append(str(exc).split(" refused")[0].split()[-1])
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= core.MAX_BYTES, (verdicts[-1], peak)
        if verdicts[-1] == "lines":
            assert peak < 2**16, peak
    assert set(verdicts) == {"admitted", "vertices", "lines"}


def test_cheaper_price_first(monkeypatch):
    # huge d is refused by the basis price, O(1) binomials, before the O(N)
    # term count runs
    monkeypatch.setattr(chaos, "term_count", admit)
    monkeypatch.setattr(chaos, "basis_build", admit)
    for d, N in ((10**6, 2), (10**400, 3), (20, 169)):
        with pytest.raises(ChaosError, match="refused: needs"):
            suites.suite_malliavin(d, N)
    # N >= 170 is refused before any binomial, whatever d
    for d, N in ((2, 10**9), (10**6, 10**6), (10**400, 10**400)):
        with pytest.raises(ChaosError, match="N >= 170 refused"):
            suites.suite_malliavin(d, N)
    for d, N in ((2, 10), (2, 169)):  # small d reaches the term count
        with pytest.raises(Admitted):
            suites.suite_malliavin(d, N)


def slot_series(N):
    """sum over p + q = s of min(p, q) + 1, for s < N, by enumeration."""
    return [sum(min(p, s - p) + 1 for p in range(s + 1)) for s in range(N)]


@pytest.mark.parametrize("d", range(1, 6))
def test_term_count_matches_enumeration(d):
    # the closed form against a d-fold convolution of the enumerated
    # per-slot counts, N <= 40
    per_slot = slot_series(40)
    series = [1] + [0] * 39
    for _ in range(d):
        series = [sum(series[j] * per_slot[s - j] for j in range(s + 1))
                  for s in range(40)]
    for N in range(1, 41):
        assert term_count(d, N) == sum(series[:N])


@pytest.mark.parametrize("d, N", [(1, 20), (1, 60), (2, 10), (2, 30), (3, 8),
                                  (3, 12), (4, 8), (5, 6), (5, 8)])
def test_term_count_is_what_product_terms_yields(monkeypatch, d, N):
    counts, real = [], chaos.product_terms

    def counting(basis, P, Q):
        terms = real(basis, P, Q)
        counts.append(len(terms[0]))
        return terms

    monkeypatch.setattr(chaos, "product_terms", counting)
    chaos.derivation_residual(basis_build(d, N))
    assert counts == [term_count(d, N)]


def test_basis_refused_before_its_alphas(monkeypatch):
    # ChaosBasis prices its own (B, d) arrays: d = 1000, N = 2 has only
    # B = 501,501 elements but would rank 4 GB of multi-indices
    monkeypatch.setattr(itertools, "combinations", admit)
    with pytest.raises(ChaosError, match=r"basis d=1000, N=2 refused"):
        basis_build(1000, 2)
    with pytest.raises(Admitted):
        basis_build(3, 3)


def test_modular_price_ignores_the_cache(monkeypatch):
    # a warm n is priced like a cold one, so a verdict never depends on
    # what the process has cached
    modular.standard_form(2, np.eye(2) / 2)
    prices = spy_prices(monkeypatch)
    modular.standard_form(2, np.eye(2) / 2)
    modular._algebras.cache_clear()
    modular.standard_form(2, np.eye(2) / 2)
    assert prices[0] == prices[1] == 16 * (2 * 2**8 + 6 * 2**6)
