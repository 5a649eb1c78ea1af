"""Engine-equivalence suite: the flat engine must mirror the object engine.

The flat structure-of-arrays engine (:mod:`repro.core.flat`) reimplements
the serving discipline with index arithmetic; these tests pin it to the
object engine decision-for-decision: identical per-request cost totals,
identical preorder topology signatures after every request, across
arities, block policies, deep-splay depths and serving interfaces.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core._native as _native
from repro.core.builders import build_balanced_tree, build_random_tree
from repro.core.centroid_splaynet import CentroidSplayNet
from repro.core.engine import ENGINES, resolve_engine, set_default_engine
from repro.core.flat import FlatTree, tree_signature
from repro.core.rotations import BLOCK_POLICIES
from repro.core.splaynet import KArySplayNet
from repro.errors import EngineError, InvalidTreeError
from repro.network.lazy import LazyRebuildNetwork
from repro.network.simulator import Simulator
from repro.network.static import StaticTreeNetwork
from repro.workloads.synthetic import uniform_trace, zipf_trace

try:
    from hypothesis import given, seed, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is installed in CI
    given = None

#: Fixed hypothesis seed: the drawn cases are the same on every run, and a
#: failure reports its ``trace_seed`` in the falsifying example.
HYPOTHESIS_SEED = 20261017


def result_tuple(res):
    return (res.routing_cost, res.rotations, res.links_changed)


def make_pair(n, k, **kwargs):
    return (
        KArySplayNet(n, k, engine="object", **kwargs),
        KArySplayNet(n, k, engine="flat", **kwargs),
    )


class TestFlatTreeConversion:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_roundtrip_preserves_topology(self, k):
        tree = build_random_tree(40, k, seed=k)
        flat = FlatTree.from_tree(tree)
        assert flat.signature() == tree_signature(tree)
        back = flat.to_tree(validate=True)
        assert tree_signature(back) == tree_signature(tree)

    def test_flat_validate_catches_bad_wiring(self):
        flat = FlatTree.from_tree(build_balanced_tree(10, 2))
        flat.validate()
        # corrupt the parent mirror of some non-root child
        for nid in range(1, 11):
            if flat.parent[nid]:
                flat.parent[nid] = nid
                break
        with pytest.raises(InvalidTreeError):
            flat.validate()


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(EngineError):
            KArySplayNet(8, 2, engine="turbo")

    def test_resolve_and_default(self):
        assert resolve_engine(None) in ENGINES
        set_default_engine("flat")
        try:
            assert KArySplayNet(8, 2).engine == "flat"
        finally:
            set_default_engine("object")
        assert KArySplayNet(8, 2).engine == "object"

    def test_arity_conflict_rejected_even_without_n(self):
        # Satellite fix: the k-vs-tree arity check must not depend on n.
        tree = build_balanced_tree(20, 3)
        with pytest.raises(InvalidTreeError, match="conflicts"):
            KArySplayNet(initial=tree, k=2)
        with pytest.raises(InvalidTreeError, match="conflicts"):
            KArySplayNet(20, 2, initial=tree)
        # Omitting k adopts the tree's arity.
        assert KArySplayNet(initial=tree).k == 3
        assert KArySplayNet(initial=tree, k=3).k == 3

    def test_flat_engine_adopts_explicit_tree(self):
        tree = build_balanced_tree(15, 3)
        net = KArySplayNet(initial=tree, engine="flat")
        assert net.n == 15 and net.k == 3
        assert tree_signature(net.tree) == tree_signature(tree)


class TestScalarEquivalence:
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("policy", ["center", "left", "right"])
    def test_serve_equivalence_per_request(self, k, policy, rng):
        n, m = 32, 250
        trace = uniform_trace(n, m, seed=1000 * k + len(policy))
        obj, flat = make_pair(n, k, policy=policy)
        for i, (u, v) in enumerate(trace.pairs()):
            ra, rb = obj.serve(u, v), flat.serve(u, v)
            assert result_tuple(ra) == result_tuple(rb), (k, policy, i)
            if i % 25 == 0:
                assert tree_signature(obj.tree) == flat.flat.signature()
        assert tree_signature(obj.tree) == flat.flat.signature()
        flat.validate()
        obj.validate()

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("depth", [3, 4])
    def test_deep_splay_equivalence(self, k, depth):
        n, m = 28, 150
        trace = uniform_trace(n, m, seed=k * depth)
        obj, flat = make_pair(n, k, splay_depth=depth)
        for i, (u, v) in enumerate(trace.pairs()):
            ra, rb = obj.serve(u, v), flat.serve(u, v)
            assert result_tuple(ra) == result_tuple(rb), (k, depth, i)
        assert tree_signature(obj.tree) == flat.flat.signature()
        flat.validate()

    @pytest.mark.parametrize("k", [2, 4])
    def test_access_and_semi_equivalence(self, k, rng):
        n = 24
        obj, flat = make_pair(n, k)
        for _ in range(120):
            x = int(rng.integers(1, n + 1))
            assert result_tuple(obj.access(x)) == result_tuple(flat.access(x))
            u = int(rng.integers(1, n + 1))
            v = int(rng.integers(1, n))
            v += v >= u
            assert result_tuple(obj.serve_semi(u, v)) == result_tuple(
                flat.serve_semi(u, v)
            )
        assert tree_signature(obj.tree) == flat.flat.signature()
        flat.validate()

    def test_distance_and_depth_agree(self, rng):
        n, k = 30, 3
        obj, flat = make_pair(n, k)
        for _ in range(60):
            u = int(rng.integers(1, n + 1))
            v = int(rng.integers(1, n + 1))
            obj.serve(u, v) if u != v else None
            flat.serve(u, v) if u != v else None
            assert obj.distance(u, v) == flat.distance(u, v)
            assert obj.depth(u) == flat.depth(u)


class TestBatchedEquivalence:
    @pytest.mark.parametrize(
        "n, k, m, alpha, seed",
        [(40, 4, 400, 1.25, 8), (64, 3, 2000, 1.2, 0)],
        ids=["n40-k4", "n64-k3-m2000"],
    )
    def test_all_engines_batched_equivalence(self, n, k, m, alpha, seed):
        """Every registered engine — object, flat and native (which is
        flat's silent stand-in when the kernel is unavailable) — produces
        the identical topology and cost totals on one batched trace."""
        trace = zipf_trace(n, m, alpha, seed=seed)
        totals = {}
        signatures = {}
        for engine in ENGINES:
            net = KArySplayNet(n, k, engine=engine)
            batch = net.serve_trace(trace)
            totals[engine] = (
                batch.total_routing,
                batch.total_rotations,
                batch.total_links_changed,
            )
            signatures[engine] = tree_signature(net.tree)
        reference_totals = totals["object"]
        reference_signature = signatures["object"]
        assert all(t == reference_totals for t in totals.values()), totals
        assert all(s == reference_signature for s in signatures.values())

    @pytest.mark.parametrize(
        "k, policy, kernel_k",
        [
            pytest.param(
                k,
                policy,
                _native.MAX_NATIVE_K,
                id=str(k) if policy == "center" else f"{k}-{policy}",
            )
            for k in (2, 3, 5)
            for policy in BLOCK_POLICIES
        ]
        + [
            pytest.param(5, policy, 4, id=f"5-{policy}-past-kernel-arity")
            for policy in BLOCK_POLICIES
        ],
    )
    def test_serve_trace_matches_scalar_loop(self, k, policy, kernel_k, monkeypatch):
        # Past the kernel's arity, native serves through the flat engine.
        # No buildable tree gets there (the kernel's cap equals the
        # keyspace's MAX_K), so the cap is lowered instead.
        monkeypatch.setattr(_native, "MAX_NATIVE_K", kernel_k)
        n, m = 32, 300
        trace = uniform_trace(n, m, seed=k)
        outcomes = []
        for engine in ENGINES:
            scalar = KArySplayNet(n, k, engine=engine, policy=policy)
            batched = KArySplayNet(n, k, engine=engine, policy=policy)
            totals = [0, 0, 0]
            for u, v in trace.pairs():
                r = scalar.serve(u, v)
                totals[0] += r.routing_cost
                totals[1] += r.rotations
                totals[2] += r.links_changed
            batch = batched.serve_trace(trace.sources, trace.targets)
            assert (
                batch.total_routing,
                batch.total_rotations,
                batch.total_links_changed,
            ) == tuple(totals), engine
            signature = tree_signature(batched.tree)
            assert tree_signature(scalar.tree) == signature
            outcomes.append((tuple(totals), signature))
            if k > kernel_k:  # the kernel never took the state
                assert getattr(batched.flat, "_handle", None) is None
        assert all(outcome == outcomes[0] for outcome in outcomes)

    def test_serve_trace_series_and_cross_engine(self):
        n, k, m = 40, 3, 400
        trace = zipf_trace(n, m, 1.3, seed=5)
        obj, flat = make_pair(n, k)
        ba = obj.serve_trace(trace, record_series=True)
        bb = flat.serve_trace(trace.sources, trace.targets, record_series=True)
        assert ba.m == bb.m == m
        assert ba.total_routing == bb.total_routing
        assert ba.total_rotations == bb.total_rotations
        assert ba.total_links_changed == bb.total_links_changed
        assert np.array_equal(ba.routing_series, bb.routing_series)
        assert np.array_equal(ba.rotation_series, bb.rotation_series)
        flat.validate()

    def test_simulator_fast_path_matches_validated_loop(self):
        n, k, m = 24, 3, 200
        trace = uniform_trace(n, m, seed=9)
        for engine in ENGINES:
            fast = Simulator().run(KArySplayNet(n, k, engine=engine), trace)
            slow = Simulator(validate_every=50).run(
                KArySplayNet(n, k, engine=engine), trace
            )
            assert fast.total_routing == slow.total_routing
            assert fast.total_rotations == slow.total_rotations
            assert fast.total_links_changed == slow.total_links_changed


class TestCentroidEngineEquivalence:
    @pytest.mark.parametrize("k", [2, 3])
    def test_centroid_serve_equivalence(self, k):
        n, m = 40, 250
        trace = uniform_trace(n, m, seed=k)
        obj = CentroidSplayNet(n, k, engine="object")
        flat = CentroidSplayNet(n, k, engine="flat")
        for i, (u, v) in enumerate(trace.pairs()):
            ra, rb = obj.serve(u, v), flat.serve(u, v)
            assert result_tuple(ra) == result_tuple(rb), (k, i)
            assert obj.distance(u, v) == flat.distance(u, v)
        flat.validate()
        obj.validate()

    def test_centroid_serve_trace_matches_loop(self):
        n, k, m = 36, 2, 300
        trace = zipf_trace(n, m, 1.2, seed=3)
        loop = CentroidSplayNet(n, k, engine="flat")
        batched = CentroidSplayNet(n, k, engine="flat")
        totals = [0, 0, 0]
        for u, v in trace.pairs():
            r = loop.serve(u, v)
            totals[0] += r.routing_cost
            totals[1] += r.rotations
            totals[2] += r.links_changed
        batch = batched.serve_trace(trace.sources, trace.targets)
        assert (
            batch.total_routing,
            batch.total_rotations,
            batch.total_links_changed,
        ) == tuple(totals)
        batched.validate()


class TestStaticAndLazyBatched:
    def test_static_serve_trace_matches_scalar(self):
        from repro.core.builders import build_complete_tree

        n, m = 30, 200
        trace = uniform_trace(n, m, seed=4)
        net = StaticTreeNetwork(build_complete_tree(n, 3))
        scalar_total = sum(net.serve(u, v).routing_cost for u, v in trace.pairs())
        batch = net.serve_trace(trace.sources, trace.targets, record_series=True)
        assert batch.total_routing == scalar_total
        assert batch.total_rotations == 0
        assert int(batch.routing_series.sum()) == scalar_total

    @pytest.mark.parametrize("window", [None, 40])
    def test_lazy_serve_trace_matches_scalar(self, window):
        n, m = 16, 300
        trace = zipf_trace(n, m, 1.4, seed=7)
        scalar = LazyRebuildNetwork(n, 2, alpha=120.0, window=window)
        batched = LazyRebuildNetwork(n, 2, alpha=120.0, window=window)
        totals = [0, 0, 0]
        for u, v in trace.pairs():
            r = scalar.serve(u, v)
            totals[0] += r.routing_cost
            totals[1] += r.rotations
            totals[2] += r.links_changed
        batch = batched.serve_trace(trace.sources, trace.targets)
        assert (
            batch.total_routing,
            batch.total_rotations,
            batch.total_links_changed,
        ) == tuple(totals)
        assert scalar.rebuilds == batched.rebuilds
        assert np.array_equal(scalar._counts, batched._counts)
        assert scalar.tree.edge_set() == batched.tree.edge_set()


class TestReviewRegressions:
    def test_serve_many_requires_both_series_buffers(self):
        flat = KArySplayNet(10, 2, engine="flat").flat
        with pytest.raises(EngineError, match="together"):
            flat.serve_many([1, 2], [2, 3], routing_series=np.zeros(2, np.int64))

    def test_lazy_serve_trace_skips_self_pairs_like_serve(self):
        scalar = LazyRebuildNetwork(8, 2, alpha=50.0, window=10)
        batched = LazyRebuildNetwork(8, 2, alpha=50.0, window=10)
        us = [1, 3, 3, 5, 2, 2]
        vs = [2, 3, 4, 5, 7, 1]  # two self-pairs mixed in
        for u, v in zip(us, vs):
            scalar.serve(u, v)
        batched.serve_trace(np.array(us), np.array(vs))
        assert np.array_equal(scalar._counts, batched._counts)
        assert list(scalar._history) == list(batched._history)

    def test_potential_audit_works_on_flat_engine(self):
        from repro.analysis.potential import audit_splaynet_accesses

        net = KArySplayNet(20, 3, engine="flat")
        audits = audit_splaynet_accesses(net, [5, 12, 5, 19])
        assert len(audits) == 4


class TestFlatLongRun:
    def test_zipf_long_run_structural_integrity(self):
        n, k, m = 64, 4, 2_000
        trace = zipf_trace(n, m, 1.2, seed=11)
        obj, flat = make_pair(n, k)
        ba = obj.serve_trace(trace)
        bb = flat.serve_trace(trace)
        assert (ba.total_routing, ba.total_rotations, ba.total_links_changed) == (
            bb.total_routing,
            bb.total_rotations,
            bb.total_links_changed,
        )
        assert tree_signature(obj.tree) == flat.flat.signature()
        flat.validate()


# ----------------------------------------------------------------------
# interleaved scalar and batched serving (hypothesis, optional)
# ----------------------------------------------------------------------
if given is not None:

    @seed(HYPOTHESIS_SEED)
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        k=st.integers(min_value=2, max_value=6),
        policy=st.sampled_from(BLOCK_POLICIES),
        trace_seed=st.integers(min_value=0, max_value=2**32 - 1),
        chunks=st.lists(
            st.tuples(st.integers(0, 40), st.booleans()), min_size=1, max_size=8
        ),
    )
    def test_property_interleaved_scalar_and_batched(
        n, k, policy, trace_seed, chunks
    ):
        """Chunks served by ``serve_trace`` or request by request, in any
        interleaving, give every engine the same per-chunk totals and the
        same final topology.  This pins the batch loop's own code: the
        epoch scratch it shares with ``lca()``, the adjacency short-circuit
        and the native engine's resident/list syncs."""
        rng = np.random.default_rng(trace_seed)
        m = sum(size for size, _ in chunks)
        sources = rng.integers(1, n + 1, size=m).tolist()
        targets = rng.integers(1, n + 1, size=m).tolist()
        outcomes = []
        for engine in ENGINES:
            net = KArySplayNet(n, k, engine=engine, policy=policy)
            per_chunk = []
            start = 0
            for size, batched in chunks:
                us = sources[start : start + size]
                vs = targets[start : start + size]
                start += size
                if batched:
                    b = net.serve_trace(us, vs)
                    per_chunk.append(
                        (b.total_routing, b.total_rotations, b.total_links_changed)
                    )
                else:
                    results = [net.serve(u, v) for u, v in zip(us, vs)]
                    per_chunk.append(
                        (
                            sum(r.routing_cost for r in results),
                            sum(r.rotations for r in results),
                            sum(r.links_changed for r in results),
                        )
                    )
            outcomes.append((per_chunk, tree_signature(net.tree)))
        assert all(outcome == outcomes[0] for outcome in outcomes), ENGINES
