"""Native-engine suite: the compiled kernel must mirror flat and object.

Two worlds are covered.  With the kernel available (a C toolchain or a
cached build), the ``native`` engine is pinned to the other two backends
decision-for-decision: identical per-request cost totals and preorder
topology signatures across arities, block policies and serving
interfaces, plus checkpoint transfer in every engine direction.  Without
it (simulated via ``REPRO_NATIVE=0``), ``engine="native"`` must degrade
to ``flat`` with a single ``RuntimeWarning`` while specs and sessions
keep working — the suite passes in both worlds.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import _native
from repro.core import engine as engine_module
from repro.core.engine import (
    ENGINES,
    best_available_engine,
    engine_tree_class,
    native_available,
    resolve_engine,
)
from repro.core.flat import FlatTree, tree_signature
from repro.core.native import NativeTree
from repro.core.splaynet import KArySplayNet
from repro.errors import EngineError
from repro.net import NetworkSpec, build_network, open_session
from repro.workloads.synthetic import uniform_trace, zipf_trace

needs_kernel = pytest.mark.skipif(
    not native_available(), reason="compiled serve kernel unavailable"
)


def result_tuple(res):
    return (res.routing_cost, res.rotations, res.links_changed)


# ----------------------------------------------------------------------
# availability and resolution
# ----------------------------------------------------------------------
class TestEngineResolution:
    def test_native_registered(self):
        assert "native" in ENGINES

    def test_best_available_engine(self):
        best = best_available_engine()
        assert best in ("native", "flat")
        assert (best == "native") == native_available()

    def test_resolution_matches_availability(self):
        resolved = resolve_engine("native")
        if native_available():
            assert resolved == "native"
        else:
            assert resolved == "flat"

    def test_engine_tree_class_mapping(self):
        assert engine_tree_class("flat") is FlatTree
        assert engine_tree_class("native") is NativeTree
        with pytest.raises(EngineError):
            engine_tree_class("object")

    def test_spec_accepts_native_and_round_trips(self):
        spec = NetworkSpec("kary-splaynet", n=16, k=3, engine="native")
        assert NetworkSpec.from_json(spec.to_json()) == spec


# ----------------------------------------------------------------------
# the no-toolchain world (simulated: REPRO_NATIVE=0)
# ----------------------------------------------------------------------
@pytest.fixture
def no_native(monkeypatch):
    """Make the kernel unavailable and re-arm the one-time warning."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    _native._reset_for_tests()
    monkeypatch.setattr(engine_module, "_native_fallback_warned", False)
    yield
    _native._reset_for_tests()


class TestNoToolchainFallback:
    def test_unavailable_and_reason_recorded(self, no_native):
        assert not native_available()
        assert "REPRO_NATIVE" in _native.build_error()

    def test_native_builds_as_flat_and_warns_once(self, no_native):
        with pytest.warns(RuntimeWarning, match="falling back"):
            net = KArySplayNet(16, 2, engine="native")
        assert net.engine == "flat"
        assert type(net.flat) is FlatTree
        # The warning fires once per process, not once per construction.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = KArySplayNet(16, 2, engine="native")
        assert again.engine == "flat"

    def test_spec_round_trip_still_builds(self, no_native):
        spec = NetworkSpec("kary-splaynet", n=12, k=2, engine="native")
        restored = NetworkSpec.from_json(spec.to_json())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            net = build_network(restored)
        assert net.engine == "flat"
        assert net.serve(1, 9).routing_cost > 0

    def test_best_available_engine_degrades(self, no_native):
        assert best_available_engine() == "flat"

    @pytest.mark.parametrize(
        "position, bad", [("middle", -1), ("last", 41), ("last", -7)]
    )
    def test_fallback_keeps_the_range_check(self, monkeypatch, position, bad):
        """A NativeTree whose kernel goes away serves on the pure-Python
        path, which must reject out-of-range identifiers all-or-nothing
        just as the kernel does (a negative id would otherwise wrap
        around the Python lists)."""
        from repro.core.builders import build_balanced_tree

        n, k = 40, 4
        trace = zipf_trace(n, 300, 1.2, seed=33)
        nat = NativeTree.from_tree(build_balanced_tree(n, k))
        clean = FlatTree.from_tree(build_balanced_tree(n, k))
        for tree in (nat, clean):
            tree.serve_many(trace.sources[:150], trace.targets[:150])
        signature = nat.signature()  # syncs a resident handle out
        assert signature == clean.signature()
        monkeypatch.setattr(_native, "load_kernel", lambda: None)

        sources = trace.sources[150:].copy()
        targets = trace.targets[150:]
        index = len(sources) // 2 if position == "middle" else -1
        sources[index] = bad
        with pytest.raises(EngineError, match=r"1\.\.40"):
            nat.serve_many(sources, targets)
        with pytest.raises(EngineError, match=r"1\.\.40"):
            nat.serve_one(1, bad)
        assert nat.signature() == signature

        more = zipf_trace(n, 200, 1.2, seed=34)
        assert nat.serve_many(more.sources, more.targets) == clean.serve_many(
            more.sources, more.targets
        )
        assert nat.signature() == clean.signature()


# ----------------------------------------------------------------------
# kernel equivalence (only with the kernel present)
# ----------------------------------------------------------------------
@needs_kernel
class TestNativeEquivalence:
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("policy", ["center", "left", "right"])
    def test_per_request_equivalence(self, k, policy):
        """Single-request batches through the kernel mirror the object
        engine request by request, including the evolving topology."""
        n, m = 32, 250
        trace = uniform_trace(n, m, seed=4000 * k + len(policy))
        obj = KArySplayNet(n, k, engine="object", policy=policy)
        nat = KArySplayNet(n, k, engine="native", policy=policy)
        assert nat.engine == "native"
        assert type(nat.flat) is NativeTree
        for i, (u, v) in enumerate(trace.pairs()):
            ra = obj.serve(u, v)
            batch = nat.serve_trace([u], [v])
            assert result_tuple(ra) == (
                batch.total_routing,
                batch.total_rotations,
                batch.total_links_changed,
            ), (k, policy, i)
            if i % 25 == 0:
                assert tree_signature(obj.tree) == nat.flat.signature()
        assert tree_signature(obj.tree) == nat.flat.signature()
        nat.flat.validate()

    @pytest.mark.parametrize("k", [2, 4])
    def test_batched_series_equivalence(self, k):
        n, m = 40, 500
        trace = zipf_trace(n, m, 1.3, seed=k)
        flat = KArySplayNet(n, k, engine="flat")
        nat = KArySplayNet(n, k, engine="native")
        ba = flat.serve_trace(trace, record_series=True)
        bb = nat.serve_trace(trace, record_series=True)
        assert (ba.total_routing, ba.total_rotations, ba.total_links_changed) == (
            bb.total_routing,
            bb.total_rotations,
            bb.total_links_changed,
        )
        assert np.array_equal(ba.routing_series, bb.routing_series)
        assert np.array_equal(ba.rotation_series, bb.rotation_series)
        assert flat.flat.signature() == nat.flat.signature()

    def test_mixed_scalar_and_batched_serving(self):
        """Scalar serves (Python path) interleaved with batches (kernel)
        stay on the one true topology."""
        n, k = 36, 3
        flat = KArySplayNet(n, k, engine="flat")
        nat = KArySplayNet(n, k, engine="native")
        rng = np.random.default_rng(7)
        for round_ in range(6):
            u = int(rng.integers(1, n + 1))
            v = int(rng.integers(1, n))
            v += v >= u
            assert result_tuple(flat.serve(u, v)) == result_tuple(nat.serve(u, v))
            us = rng.integers(1, n + 1, size=60)
            vs = rng.integers(1, n + 1, size=60)
            ba = flat.serve_trace(us, vs)
            bb = nat.serve_trace(us, vs)
            assert (
                ba.total_routing,
                ba.total_rotations,
                ba.total_links_changed,
            ) == (
                bb.total_routing,
                bb.total_rotations,
                bb.total_links_changed,
            ), round_
        assert flat.flat.signature() == nat.flat.signature()
        nat.flat.validate()

    def test_deep_splay_delegates_to_python(self):
        """depth > 2 is outside the kernel: the native engine must run the
        generalized discipline through the inherited Python path."""
        n, k, m = 28, 3, 150
        trace = uniform_trace(n, m, seed=17)
        obj = KArySplayNet(n, k, engine="object", splay_depth=3)
        nat = KArySplayNet(n, k, engine="native", splay_depth=3)
        ba = obj.serve_trace(trace)
        bb = nat.serve_trace(trace)
        assert (ba.total_routing, ba.total_rotations, ba.total_links_changed) == (
            bb.total_routing,
            bb.total_rotations,
            bb.total_links_changed,
        )
        assert tree_signature(obj.tree) == nat.flat.signature()

    def test_centroid_native_equivalence(self):
        from repro.core.centroid_splaynet import CentroidSplayNet

        n, k, m = 40, 2, 300
        trace = zipf_trace(n, m, 1.2, seed=5)
        flat = CentroidSplayNet(n, k, engine="flat")
        nat = CentroidSplayNet(n, k, engine="native")
        assert nat.engine == "native"
        ba = flat.serve_trace(trace.sources, trace.targets)
        bb = nat.serve_trace(trace.sources, trace.targets)
        assert (ba.total_routing, ba.total_rotations, ba.total_links_changed) == (
            bb.total_routing,
            bb.total_rotations,
            bb.total_links_changed,
        )
        nat.validate()

    def test_session_mid_stream_snapshot_transfer(self):
        """A checkpoint taken mid-stream on the native engine restores on
        flat and object sessions with identical replay costs."""
        n, k = 48, 3
        trace = zipf_trace(n, 600, 1.2, seed=21)
        native_session = open_session(
            "kary-splaynet", n=n, k=k, engine="native"
        )
        native_session.serve_stream(
            trace.sources[:400], trace.targets[:400], chunk=128
        )
        checkpoint = native_session.snapshot()
        tail = (trace.sources[400:].tolist(), trace.targets[400:].tolist())
        reference = [
            result_tuple(native_session.serve(u, v)) for u, v in zip(*tail)
        ]
        for engine in ("object", "flat", "native"):
            session = open_session("kary-splaynet", n=n, k=k, engine=engine)
            session.restore(checkpoint)
            replay = [
                result_tuple(session.serve(u, v)) for u, v in zip(*tail)
            ]
            assert replay == reference, engine


# ----------------------------------------------------------------------
# NativeTree unit behaviour (kernel present)
# ----------------------------------------------------------------------
@needs_kernel
class TestNativeTreeUnit:
    def make_tree(self, n=20, k=3):
        from repro.core.builders import build_balanced_tree

        return NativeTree.from_tree(build_balanced_tree(n, k))

    def test_copy_and_from_flat_preserve_class_and_topology(self):
        nat = self.make_tree()
        assert type(nat.copy()) is NativeTree
        assert nat.copy().signature() == nat.signature()
        as_flat = FlatTree.from_flat(nat)
        assert type(as_flat) is FlatTree
        assert as_flat.signature() == nat.signature()
        back = NativeTree.from_flat(as_flat)
        assert type(back) is NativeTree
        assert back.signature() == nat.signature()

    def test_series_list_buffers_supported(self):
        nat = self.make_tree()
        flat = FlatTree.from_flat(nat)
        sources = [1, 5, 9, 2, 2]
        targets = [12, 1, 4, 2, 17]
        rs_native, qs_native = [0] * 5, [0] * 5
        rs_flat, qs_flat = [0] * 5, [0] * 5
        totals_native = nat.serve_many(
            sources, targets, routing_series=rs_native, rotation_series=qs_native
        )
        totals_flat = flat.serve_many(
            sources, targets, routing_series=rs_flat, rotation_series=qs_flat
        )
        assert totals_native == totals_flat
        assert rs_native == rs_flat
        assert qs_native == qs_flat

    def test_series_buffers_must_come_together(self):
        nat = self.make_tree()
        with pytest.raises(EngineError, match="together"):
            nat.serve_many([1, 2], [2, 3], routing_series=[0, 0])

    def test_out_of_range_identifiers_rejected(self):
        nat = self.make_tree(n=10, k=2)
        with pytest.raises(EngineError, match="1..10"):
            nat.serve_many([1], [11])
        with pytest.raises(EngineError, match="1..10"):
            nat.serve_many([0], [3])

    def test_out_of_range_self_pairs_served_like_flat(self):
        """u == v short-circuits before any array access, so a degenerate
        out-of-range self-pair must serve at cost 0 on both engines."""
        nat = self.make_tree(n=10, k=2)
        flat = FlatTree.from_flat(nat)
        sources, targets = [50, 1], [50, 5]
        assert nat.serve_many(sources, targets) == flat.serve_many(
            sources, targets
        )
        assert nat.signature() == flat.signature()

    def test_validate_after_kernel_batch(self):
        nat = self.make_tree(n=30, k=4)
        trace = zipf_trace(30, 400, 1.3, seed=3)
        nat.serve_many(trace.sources.tolist(), trace.targets.tolist())
        nat.validate()


# ----------------------------------------------------------------------
# the resident runtime (kernel-owned tree state across calls)
# ----------------------------------------------------------------------
@needs_kernel
class TestResidentRuntime:
    """The handle-based kernel API: C-owned buffers, dirty-flag sync.

    A resident NativeTree keeps its authoritative state inside the
    kernel handle between serves; every inspection / snapshot /
    cross-engine path must transparently sync it back, and the next
    serve must reload the handle from the synced lists.
    """

    @pytest.mark.parametrize("sync_every", [1, 40])
    def test_scalar_serves_stay_resident_and_match_object(self, sync_every):
        """``sync_every=1`` forces the full load -> serve -> sync round
        trip on every request; 40 keeps the handle resident in between."""
        n, k = 36, 3
        obj = KArySplayNet(n, k, engine="object")
        nat = KArySplayNet(n, k, engine="native")
        trace = uniform_trace(n, 300, seed=11)
        for i, (u, v) in enumerate(trace.pairs()):
            assert result_tuple(obj.serve(u, v)) == result_tuple(
                nat.serve(u, v)
            ), i
            if i % sync_every == 0:
                # Inspection forces a handle -> lists sync mid-stream.
                assert tree_signature(obj.tree) == nat.flat.signature()
        assert tree_signature(obj.tree) == nat.flat.signature()
        nat.flat.validate()

    def test_scalar_out_of_range_rejected_resident(self):
        nat = KArySplayNet(12, 2, engine="native")
        with pytest.raises(EngineError, match="1..12"):
            nat.serve(1, 13)
        # Degenerate out-of-range self-pair short-circuits at cost 0.
        assert result_tuple(nat.serve(50, 50)) == (0, 0, 0)

    @pytest.mark.parametrize(
        "position, bad",
        [
            ("middle", 41),
            ("last", 0),
            ("middle", -(2**63)),
            ("last", 2**63 - 1),
        ],
    )
    def test_out_of_range_batch_is_all_or_nothing(self, position, bad):
        """The kernel checks a whole batch before serving any of it: a
        bad identifier anywhere leaves the resident tree untouched, and
        serving goes on as if the batch had never been sent."""
        from repro.core.builders import build_balanced_tree

        n, k = 40, 4
        trace = zipf_trace(n, 300, 1.2, seed=31)
        nat = NativeTree.from_tree(build_balanced_tree(n, k))
        clean = NativeTree.from_tree(build_balanced_tree(n, k))
        for tree in (nat, clean):
            tree.serve_many(trace.sources[:150], trace.targets[:150])
        assert nat._resident
        signature = clean.signature()

        sources = trace.sources[150:].copy()
        targets = trace.targets[150:]
        index = len(sources) // 2 if position == "middle" else -1
        sources[index] = bad
        with pytest.raises(EngineError, match=r"1\.\.40"):
            nat.serve_many(sources, targets)
        assert nat.signature() == signature

        more = zipf_trace(n, 200, 1.2, seed=32)
        assert nat.serve_many(more.sources, more.targets) == clean.serve_many(
            more.sources, more.targets
        )
        assert nat.signature() == clean.signature()

    def test_mid_stream_snapshot_restore_through_sync(self):
        """A checkpoint cut while the kernel owns the state (dirty-flag
        sync path) must restore identically on every engine."""
        n, k = 32, 3
        first = zipf_trace(n, 200, 1.3, seed=21)
        rest = zipf_trace(n, 200, 1.3, seed=22)
        native_session = open_session(
            "kary-splaynet", n=n, k=k, engine="native"
        )
        native_session.serve_stream(first)  # state now lives in the handle
        checkpoint = native_session.snapshot()
        outcomes = {}
        for engine in ENGINES:
            session = open_session("kary-splaynet", n=n, k=k, engine=engine)
            session.restore(checkpoint)
            batch = session.serve_stream(rest)
            flat = getattr(session.network, "flat", None)
            signature = (
                flat.signature()
                if flat is not None
                else tree_signature(session.network.tree)
            )
            outcomes[engine] = (
                batch.total_routing,
                batch.total_rotations,
                batch.total_links_changed,
                signature,
            )
        native_continue = native_session.serve_stream(rest)
        assert outcomes["native"] == outcomes["flat"] == outcomes["object"]
        assert native_continue.total_routing == outcomes["native"][0]
        assert native_session.network.flat.signature() == outcomes["native"][3]

    def test_cross_engine_adoption_syncs_resident_state(self):
        """FlatTree.from_flat on a resident tree must see the kernel's
        topology, not the stale Python lists."""
        from repro.core.builders import build_balanced_tree

        nat = NativeTree.from_tree(build_balanced_tree(24, 3))
        trace = zipf_trace(24, 150, 1.2, seed=8)
        nat.serve_many(trace.sources.tolist(), trace.targets.tolist())
        as_flat = FlatTree.from_flat(nat)
        assert as_flat.signature() == nat.signature()
        # And the adopted copy serves identically afterwards.
        more = zipf_trace(24, 80, 1.2, seed=9)
        assert nat.serve_many(
            more.sources.tolist(), more.targets.tolist()
        ) == as_flat.serve_many(more.sources.tolist(), more.targets.tolist())
