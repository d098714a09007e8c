"""The module caches: read-only, bounded, and built once per key.

A finite point reads its t-free arrays from one layout cache per (gamma, l)
of the bulk route (kernels._layout), whose layouts each hold the layout of
their ladder's chains (specfun._ChainLayout); every quadrature reads its
Gauss-Legendre rules from specfun._GL_CACHE and the Fredholm route its
Nystrom layouts from microscopic._NYSTROM.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import hardedge
from hardedge import kernels, microscopic, specfun
from hardedge.cli import main
from hardedge.distributions import FiniteSpec, gap_finite, smallest_finite, tabulate
from hardedge.kernels import BulkTables
from hardedge.microscopic import gap_micro

# Finite points on both parities of l, gap and density: (p, k, t).
POINTS = ((11, 3, 0.5), (20, 4, 1.0), (40, 3, 0.3), (1000, 3, 0.02))


def _values() -> list[float]:
    return [f(FiniteSpec(p=p, k=k, t=t)) for p, k, t in POINTS
            for f in (gap_finite, smallest_finite)]


def _arrays(value) -> list[np.ndarray]:
    """Every array a cached value holds, in tuples, dicts and attributes."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _arrays(item)]
    if isinstance(value, dict):
        return _arrays(list(value.values()))
    if hasattr(value, "__dict__"):
        return _arrays(list(vars(value).values()))
    return []


@pytest.fixture
def builds(monkeypatch: pytest.MonkeyPatch) -> dict[str, list[tuple]]:
    """Cold layout caches whose builders record every key they build."""
    built: dict[str, list[tuple]] = {"chain": [], "kernel": []}
    chain_layout, kernel_layout = kernels._ChainLayout, kernels._Layout

    def chain(*key):
        built["chain"].append(key)
        return chain_layout(*key)

    def kernel(*key):
        built["kernel"].append(key)
        return kernel_layout(*key)

    monkeypatch.setattr(kernels, "_ChainLayout", chain)
    monkeypatch.setattr(kernels, "_Layout", kernel)
    kernels._layout.cache_clear()
    yield built
    kernels._layout.cache_clear()


def _cached(name: str):
    _values()
    gap_micro(2, 5.0)
    if name == "gauss_legendre":
        return specfun._gauss_legendre(48)
    if name == "nystrom":
        return list(microscopic._NYSTROM.values())
    if name == "chain_layout":
        # The density ladder of (11, 3): gamma = 1, l = 14.
        return kernels._layout(1, 14).chain
    # The hatted gap table of (11, 3).
    return kernels._layout(0, 15)


@pytest.mark.parametrize("name", ["gauss_legendre", "nystrom", "chain_layout",
                                  "kernel_layout"])
def test_cached_arrays_are_read_only(name: str) -> None:
    # An in-place edit by a caller raises instead of corrupting every later
    # point that reads the same cache entry.
    arrays = _arrays(_cached(name))
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_curve_builds_each_layout_once(builds: dict[str, list[tuple]]) -> None:
    tabulate("smallest", 4, np.linspace(0.01, 1.5, 40), p=40)
    assert builds["kernel"] == [(1, 43)]
    assert len(builds["chain"]) == 1


def test_cold_converge_builds_one_layout_per_size(
        builds: dict[str, list[tuple]], tmp_path: Path,
        monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv("HARDEDGE_OUTDIR", str(tmp_path))
    assert main(["converge", "--k", "4", "--p", "10,20,40"]) == 0
    assert builds["kernel"] == [(1, 13), (1, 23), (1, 43)]
    assert len(builds["chain"]) == len(set(builds["chain"])) == 3


def test_cold_and_warm_values_are_bit_identical(builds: dict[str, list[tuple]]) -> None:
    cold = _values()
    built = len(builds["kernel"]), len(builds["chain"])
    assert _values() == cold
    assert (len(builds["kernel"]), len(builds["chain"])) == built
    kernels._layout.cache_clear()
    assert _values() == cold


def test_layout_caches_stay_bounded(builds: dict[str, list[tuple]]) -> None:
    # Each kernel layout builds its one chain layout, so the chain layouts
    # kept are bounded with the kernel layouts.
    for l in range(2, kernels._LAYOUTS + 4):
        BulkTables(0, l, [0.3], 1)
    assert len(set(builds["kernel"])) > kernels._LAYOUTS
    assert len(builds["chain"]) == len(builds["kernel"])
    info = kernels._layout.cache_info()
    assert info.maxsize == kernels._LAYOUTS
    assert info.currsize <= kernels._LAYOUTS


def test_production_code_has_no_assert() -> None:
    # Under python -O an assert vanishes, so production code checks its
    # input with typed exceptions; the oracles in reference/ may assert.
    sources = sorted(Path(hardedge.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
