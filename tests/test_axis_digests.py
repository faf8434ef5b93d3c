"""Pinned spec hashes and cell digests for every non-default run axis.

A cached result is addressed by its cell digest, so renaming an axis's
digest key, folding an axis into a different hash, or re-canonicalising
its value would silently orphan (or alias) cached results.  The default
digest body is pinned elsewhere; this module pins the literal sha256 of
each non-default axis alone and of all of them together, exactly as the
:class:`~repro.runner.Runner` computes them.  Note the asymmetry these
strings freeze: chaos folds into the cell digest only, never into the
spec hash.
"""

from __future__ import annotations

import os

import pytest

from repro.runner import ResultCache, Runner, Scenario, scenario
from repro.runner import spec as spec_module


@scenario
class PinnedAxesScenario(Scenario):
    """One trivial cell; the digests, not the value, are under test."""

    name = "test-pinned-axes"
    description = "test scenario: digest pinning"
    defaults = {"runs": 2}
    backends = ("packet", "fluid")

    def cells(self, p):
        yield ("k", 10), 7

    def run_cell(self, key, seed, p):
        return seed

    def run_cell_fluid(self, key, seed, p):
        return seed

    def assemble(self, p, values, failures):
        return None


CHAOS = {"chaos": "mixed", "chaos_intensity": 1.0, "chaos_horizon": 300.0}
STRATEGY = {"strategy_mix": {"freerider": 0.25}}
CONTENT = {"content": "group:4/6"}
WORKLOAD = {"workload": {"catalog": 2, "demand": "zipf:1.3"}}
BACKEND = {"backend": "fluid"}
ALL = {**BACKEND, **CHAOS, **STRATEGY, **CONTENT, **WORKLOAD}

#: axis set -> (spec_hash, cell_digest), computed before the axis table.
PINNED = {
    "default": (
        "a1c61918c36501522d60bcfa745ccb62c65e316fc155aa1aa282ec91fbc00233",
        "52e1136974304724b03b492404573f500819580f1619ebe2829b2a9fe76e4fc5",
    ),
    "backend": (
        "b783d4a72c56983f6011b8851f9d45f8a7f5e49258790cfbaaf198841f41d167",
        "dc403bb26295f82cadc47b50521eac8679b9531f6e965f4933c6b71c11b42a2b",
    ),
    "chaos": (
        "a1c61918c36501522d60bcfa745ccb62c65e316fc155aa1aa282ec91fbc00233",
        "3d8b2ebfc79ee2e9c33d665b0b879fc6fa732b37a1cc10fa0a3a01314f1bf44f",
    ),
    "strategy": (
        "ff5bedb2b0d3bd1863aa7f642f71b491f2b6688d88cfb26fdb087fd989044a51",
        "5591c756f99ef62aeb7579f948b57207790b78c3f731190cd0f1a013405f3c69",
    ),
    "content": (
        "6f71b39cefcf4e0b481e3a8318501509c8c23310663a049f9736d725d33b4eb2",
        "a18c62e9de78484c2710e214d93331c7ecde9b1c61c8f262e3264298e4094814",
    ),
    "workload": (
        "a3f5bca9a835a07c7e65f2c31dd441ad97242576cb4efff244b6901ca384e831",
        "6ef22b3a096d15c97c447fa835e1dbbf279224552af42d251638363e4331bd96",
    ),
    "all": (
        "16890ad1534963beb1954f4d8ad59cc1d2e5d1cee813bdd56c741c27ddb47883",
        "1a2a68ac9236fa50f0ef2fab29adacedb6f9280f549e1ca1033829050e8e19c2",
    ),
}

CASES = {
    "default": {},
    "backend": BACKEND,
    "chaos": CHAOS,
    "strategy": STRATEGY,
    "content": CONTENT,
    "workload": WORKLOAD,
    "all": ALL,
}


def _digests(tmp_path, monkeypatch, kwargs):
    monkeypatch.setattr(spec_module, "_CODE_VERSION", "pinned")
    cache = ResultCache(str(tmp_path))
    run = Runner(cache=cache, **kwargs).run("test-pinned-axes")
    assert run.failures == []
    digests = [
        name[: -len(".json")]
        for _, _, files in os.walk(str(tmp_path))
        for name in files
        if name.endswith(".json")
    ]
    assert len(digests) == 1
    return run.spec.spec_hash(), digests[0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_axis_digests_are_pinned(case, tmp_path, monkeypatch):
    assert _digests(tmp_path, monkeypatch, CASES[case]) == PINNED[case]


def test_chaos_folds_into_the_cell_digest_only():
    assert PINNED["chaos"][0] == PINNED["default"][0]
    assert PINNED["chaos"][1] != PINNED["default"][1]


def test_every_pinned_digest_is_distinct():
    cells = [cell for _, cell in PINNED.values()]
    assert len(set(cells)) == len(cells)
