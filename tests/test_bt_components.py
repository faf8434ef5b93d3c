"""Unit tests for token bucket, ledger, and tracker."""

from __future__ import annotations

import random

import pytest

from repro.bittorrent import PeerLedger, TokenBucket
from repro.sim import Simulator


class TestTokenBucket:
    def test_unlimited(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=None)
        assert bucket.unlimited
        assert bucket.try_consume(10**9)
        assert bucket.time_until(10**9) == 0.0

    def test_zero_rate_blocks(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=0)
        assert bucket.blocked
        assert not bucket.try_consume(1)
        assert bucket.time_until(1) == float("inf")

    def test_consume_and_refill(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=1000.0)
        assert bucket.try_consume(1000)  # initial burst = rate
        assert not bucket.try_consume(500)
        sim.schedule(0.5, lambda: None)
        sim.run()
        assert bucket.try_consume(500)

    def test_time_until(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=100.0)
        bucket.try_consume(100)
        assert bucket.time_until(50) == pytest.approx(0.5)

    def test_burst_cap(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=100.0, burst=200.0)
        sim.schedule(100.0, lambda: None)
        sim.run()
        assert bucket.tokens == pytest.approx(200.0)

    def test_set_rate_live(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=100.0)
        bucket.set_rate(10_000.0)
        assert bucket.rate == 10_000.0
        bucket.set_rate(None)
        assert bucket.unlimited

    def test_negative_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TokenBucket(sim, rate=-1.0)
        bucket = TokenBucket(sim, rate=10.0)
        with pytest.raises(ValueError):
            bucket.set_rate(-5.0)


def _bucket_trace(seed: int, observe: bool):
    """Replay one random consume trace; optionally read ``tokens`` between ops."""
    rng = random.Random(seed)
    sim = Simulator()
    bucket = TokenBucket(sim, rate=rng.uniform(1e3, 1e5), burst=rng.uniform(1e3, 1e5))
    results = []
    t = 0.0
    for _ in range(60):
        t += rng.expovariate(20.0)
        nbytes = rng.uniform(1.0, 2e4)
        kind = rng.random()

        def op(nbytes=nbytes, kind=kind):
            if kind < 0.6:
                results.append(bucket.try_consume(nbytes))
            else:
                results.append(bucket.time_until(nbytes))

        sim.schedule_at(t, op)
        peek = t + rng.uniform(0.0, 0.05)
        if observe:
            sim.schedule_at(peek, lambda: bucket.tokens)
    sim.run()
    return results, bucket._tokens


class TestTokenBucketObservation:
    def test_interleaved_reads_change_nothing(self):
        # Reading ``tokens`` must not commit a partial refill: every
        # try_consume/time_until result and the final balance stay
        # bit-identical with and without an observer in between.
        for seed in range(50):
            assert _bucket_trace(seed, observe=False) == _bucket_trace(seed, observe=True)

    def test_audited_capped_wp2p_swarm_matches_unaudited(self):
        from repro import audit
        from repro.bittorrent.swarm import SwarmScenario
        from repro.wp2p import WP2PClient, WP2PConfig

        def run():
            sc = SwarmScenario(seed=5, file_size=512 * 1024, piece_length=16 * 1024)
            sc.add_wired_peer("seed", complete=True, up_rate=60_000.0)
            sc.add_wired_peer("w0", up_rate=30_000.0)
            for i in range(3):
                sc.add_wireless_peer(
                    f"m{i}", rate=80_000.0, ber=1e-5,
                    config=WP2PConfig(upload_limit=12_000.0, lihd_u_max=24_000.0),
                    client_factory=WP2PClient,
                )
            sc.start_all()
            sc.run_until_complete(timeout=400.0)
            return {
                name: (h.client.completion_time, h.client.downloaded.total,
                       h.client.uploaded.total)
                for name, h in sc.peers.items()
            }, sc.sim.events_processed

        plain = run()
        with audit.audited(sweep_interval=16) as auditors:
            checked = run()
        assert auditors and all(a.ok for a in auditors)
        assert checked == plain


class TestPeerLedger:
    def test_credit_accumulates(self):
        sim = Simulator()
        ledger = PeerLedger(sim, half_life=60.0)
        ledger.credit("p1", 60_000)
        assert ledger.rate("p1") == pytest.approx(1000.0)

    def test_unknown_peer_zero(self):
        sim = Simulator()
        ledger = PeerLedger(sim)
        assert ledger.rate("nobody") == 0.0

    def test_decay_halves_at_half_life(self):
        sim = Simulator()
        ledger = PeerLedger(sim, half_life=10.0)
        ledger.credit("p1", 1000)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert ledger.rate("p1") == pytest.approx(1000 / 10.0 / 2, rel=0.01)

    def test_credit_survives_gap(self):
        """The point of the ledger: credit persists across disconnection."""
        sim = Simulator()
        ledger = PeerLedger(sim, half_life=60.0)
        ledger.credit("stable-id", 600_000)
        sim.schedule(30.0, lambda: None)
        sim.run()
        assert ledger.rate("stable-id") > 0.5 * 10_000

    def test_forget(self):
        sim = Simulator()
        ledger = PeerLedger(sim)
        ledger.credit("p1", 100)
        ledger.forget("p1")
        assert ledger.rate("p1") == 0.0

    def test_invalid_half_life(self):
        with pytest.raises(ValueError):
            PeerLedger(Simulator(), half_life=0)


class TestTracker:
    def make_swarm(self, n_peers=3):
        from repro.bittorrent.swarm import SwarmScenario

        sc = SwarmScenario(seed=1, file_size=256 * 1024, piece_length=65_536)
        sc.add_wired_peer("seed", complete=True)
        for i in range(n_peers - 1):
            sc.add_wired_peer(f"l{i}")
        return sc

    def test_announce_registers_peer(self):
        sc = self.make_swarm(1)
        sc.start_all()
        sc.run(until=5.0)
        assert sc.tracker.swarm_size(sc.torrent.info_hash) == 1

    def test_peers_learn_each_other(self):
        sc = self.make_swarm(3)
        sc.start_all()
        sc.run(until=10.0)
        assert sc.tracker.swarm_size(sc.torrent.info_hash) == 3
        l0 = sc["l0"].client
        assert len(l0.known_addresses) >= 1

    def test_seed_and_leech_counts(self):
        sc = self.make_swarm(3)
        sc.start_all()
        sc.run(until=5.0)
        seeds, leeches = sc.tracker.seeds_and_leeches(sc.torrent.info_hash)
        assert seeds == 1
        assert leeches == 2

    def test_stopped_event_removes_record(self):
        sc = self.make_swarm(2)
        sc.start_all()
        sc.run(until=5.0)
        sc["l0"].client.stop()
        sc.run(until=10.0)
        assert sc.tracker.swarm_size(sc.torrent.info_hash) == 1

    def test_same_peer_id_updates_record_in_place(self):
        """Identity retention: re-announcing under the same ID replaces the
        stale address instead of adding a second swarm entry."""
        sc = self.make_swarm(2)
        sc.start_all()
        sc.run(until=5.0)
        l0 = sc["l0"].client
        old_records = {r.peer_id: r.ip for r in sc.tracker.swarm_peers(sc.torrent.info_hash)}
        from repro.net.mobility import disconnect_host, reconnect_host

        disconnect_host(sc["l0"].host, sc.internet, sc.alloc)
        reconnect_host(sc["l0"].host, sc.internet, sc.alloc)
        # suppress the default restart policy; announce manually with same id
        sc.sim.cancel(l0._restart_event)
        l0.announce()
        sc.run(until=15.0)
        assert sc.tracker.swarm_size(sc.torrent.info_hash) == 2
        records = {r.peer_id: r.ip for r in sc.tracker.swarm_peers(sc.torrent.info_hash)}
        assert records[l0.peer_id] == sc["l0"].host.ip
        assert records[l0.peer_id] != old_records[l0.peer_id]

    def test_new_peer_id_leaves_stale_record(self):
        """Deployed-client behaviour: a fresh ID after handoff leaves the old
        record (unroutable address) in the swarm until pruned (§3.5)."""
        sc = self.make_swarm(2)
        sc.start_all()
        sc.run(until=5.0)
        l0 = sc["l0"].client
        from repro.net.mobility import disconnect_host, reconnect_host

        disconnect_host(sc["l0"].host, sc.internet, sc.alloc)
        reconnect_host(sc["l0"].host, sc.internet, sc.alloc)
        sc.run(until=20.0)  # default policy restarts with a new peer id
        assert l0.task_restarts == 1
        assert sc.tracker.swarm_size(sc.torrent.info_hash) == 3  # stale + new

    def test_response_excludes_requester(self):
        sc = self.make_swarm(3)
        sc.start_all()
        sc.run(until=10.0)
        l0 = sc["l0"].client
        assert l0.peer_id not in l0.known_addresses
