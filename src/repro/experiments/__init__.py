"""Experiment reproductions — one registered scenario per figure.

========  ==========================================  =================
figure    content                                     scenario
========  ==========================================  =================
2(a)      bi- vs uni-TCP throughput over BER          ``fig2a``
2(b, c)   wireless-leg packets around congestion      ``fig2bc``
3(a)      download vs upload cap, wired               ``fig3a``
3(b)      download vs upload cap, wireless            ``fig3b``
3(c)      incentives x mobility download progress     ``fig3c``
4(a)      server mobility vs fixed-peer throughput    ``fig4a``
4(b, c)   rarest-first playability (20/400 pieces)    ``fig4bc``
8(a)      AM vs default over BER                      ``fig8a``
8(b)      identity retention under mobility           ``fig8b``
8(c)      LIHD vs bandwidth                           ``fig8c``
9(a, b)   mobility-aware fetching playability         ``fig9ab``
9(c)      role reversal upload throughput             ``fig9c``
========  ==========================================  =================

Importing this package registers every scenario (plus the ``figx_*``
extensions) with :mod:`repro.runner`; run one with
``run_scenario("fig2a", {"runs": 2})`` or
``python -m repro.experiments run fig2a``.  Each assembles an
:class:`repro.analysis.ExperimentResult` whose ``table()`` prints the
same rows/series the paper plots, alongside the paper's qualitative
expectation.
"""

from .base import (
    BulkSender,
    Payload,
    TransferStats,
    WirelessPairTopology,
    random_piece_subset,
    run_transfer,
)
from .fig2_bitcp import (
    cluster_drops,
    drop_response_ratio,
    post_congestion_starvation,
)
from . import fig3_incentives  # noqa: F401  (registers fig3a/b/c)
from .fig4_mobility import playability_run
from .fig8_wp2p import am_only_config, ia_config
from .fig9_wp2p import mf_only_config, rr_only_config
from .figx_arena import arena_run
from .figx_cdn import cdn_fluid_run, cdn_run
from .figx_chaos import chaos_run
from .figx_erasure import erasure_run, erasure_schedule
from .figx_hybrid import hybrid_cell
from .figx_scale import fluid_cell, packet_cell

__all__ = [
    "BulkSender",
    "Payload",
    "TransferStats",
    "WirelessPairTopology",
    "random_piece_subset",
    "run_transfer",
    "cluster_drops",
    "drop_response_ratio",
    "post_congestion_starvation",
    "playability_run",
    "am_only_config",
    "ia_config",
    "mf_only_config",
    "rr_only_config",
    "arena_run",
    "cdn_fluid_run",
    "cdn_run",
    "chaos_run",
    "erasure_run",
    "erasure_schedule",
    "hybrid_cell",
    "fluid_cell",
    "packet_cell",
]
