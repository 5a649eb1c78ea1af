"""The network construction registry: one way to build any network.

Every network in the repository — the paper's online self-adjusting
structures, the static baselines, the adjustment-policy wrappers, and any
user-registered algorithm — is built through :func:`build_network` from a
:class:`~repro.net.spec.NetworkSpec`.  Campaign cells
(:func:`repro.parallel.tasks.run_simulation_task`, run by
:func:`repro.scenarios.run_specs`), the CLI and the examples all construct
through here, so adding an algorithm is one :func:`register_network` call
away from every surface at once (scenario grids, sessions, the serve farm,
``repro simulate``).

Built-in algorithms:

====================  ======  ===================================================
``kary-splaynet``     online  :class:`~repro.core.splaynet.KArySplayNet`
``centroid-splaynet`` online  :class:`~repro.core.centroid_splaynet.CentroidSplayNet`
``splaynet``          online  binary :class:`~repro.splaynet.splaynet.SplayNet`
``lazy``              online  :class:`~repro.network.lazy.LazyRebuildNetwork`
``full-tree``         static  complete k-ary tree
``centroid-tree``     static  centroid k-ary tree
``optimal-tree``      static  Theorem 2 DP tree (needs demand)
``optimal-bst``       static  optimal BST network [22] (needs demand)
====================  ======  ===================================================

Static algorithms are wrapped in
:class:`~repro.network.static.StaticTreeNetwork`, so every build result
speaks the same serving interface (``serve`` / ``serve_trace`` /
``distance``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Union

from repro.core.builders import build_complete_tree
from repro.core.centroid import build_centroid_tree
from repro.core.centroid_splaynet import CentroidSplayNet
from repro.core.splaynet import KArySplayNet
from repro.errors import ExperimentError
from repro.net.spec import NetworkSpec, PolicySpec
from repro.network.lazy import LazyRebuildNetwork
from repro.network.policies import (
    FrozenNetwork,
    ProbabilisticNetwork,
    ThresholdedNetwork,
)
from repro.network.static import StaticTreeNetwork
from repro.splaynet.splaynet import SplayNet
from repro.workloads.demand import DemandMatrix

__all__ = [
    "BuildContext",
    "NetworkAlgorithm",
    "build_network",
    "engine_capable_algorithms",
    "network_algorithm",
    "network_algorithms",
    "online_algorithms",
    "register_network",
    "register_policy",
    "require_algorithm",
    "static_algorithms",
    "unregister_network",
]


@dataclass(frozen=True)
class BuildContext:
    """Demand-side inputs a factory may need beyond the spec itself.

    Only the demand-aware static constructions consume it; online
    algorithms build from the spec alone.  ``demand`` wins over ``trace``
    when both are given (callers holding a memoized matrix pass it
    directly so the trace is never re-counted).
    """

    trace: Optional[Any] = None
    demand: Optional[DemandMatrix] = None

    def require_demand(self, algorithm: str) -> DemandMatrix:
        """The demand matrix, derived from the trace when necessary."""
        if self.demand is not None:
            return self.demand
        if self.trace is not None:
            return DemandMatrix.from_trace(self.trace)
        raise ExperimentError(
            f"{algorithm!r} is demand-aware: pass trace= or demand= to"
            " build_network/open_session"
        )


@dataclass(frozen=True)
class NetworkAlgorithm:
    """One registry entry: a named network construction.

    Attributes
    ----------
    name:
        The registry key (``NetworkSpec.algorithm``).
    factory:
        ``factory(spec, context) -> network``.  The result must implement
        :class:`~repro.network.protocols.SelfAdjustingNetwork`; exposing
        ``serve_trace`` and ``snapshot_state``/``restore_state`` unlocks
        the batched and checkpointing session paths.
    kind:
        ``"online"`` (self-adjusting, simulated request by request) or
        ``"static"`` (built once, costed through the distance oracle).
    engine_capable:
        Whether the factory threads ``spec.engine`` through to the k-ary
        tree-engine backends of :mod:`repro.core.engine`.
    needs_demand:
        Whether the factory reads ``context.require_demand()`` (the
        demand-aware static constructions).
    description:
        One-line summary for listings.
    """

    name: str
    factory: Callable[[NetworkSpec, BuildContext], Any] = field(repr=False)
    kind: str = "online"
    engine_capable: bool = False
    needs_demand: bool = False
    description: str = ""


_REGISTRY: dict[str, NetworkAlgorithm] = {}

#: Policy-wrapper name → ``factory(inner, **params) -> wrapped network``.
POLICY_WRAPPERS: dict[str, Callable[..., Any]] = {}


def register_network(
    name: str,
    factory: Callable[[NetworkSpec, BuildContext], Any],
    *,
    kind: str = "online",
    engine_capable: bool = False,
    needs_demand: bool = False,
    description: str = "",
    replace: bool = False,
) -> NetworkAlgorithm:
    """Register a network algorithm under ``name``; returns the entry.

    Registered names are immediately buildable through
    :func:`build_network`, valid in :class:`~repro.net.spec.NetworkSpec`
    and (for traffic-carrying kinds) in
    :class:`~repro.scenarios.spec.ScenarioSpec` cells.
    """
    if not name:
        raise ExperimentError("algorithm name must be non-empty")
    if kind not in ("online", "static"):
        raise ExperimentError(
            f"kind must be 'online' or 'static', got {kind!r}"
        )
    if name in _REGISTRY and not replace:
        raise ExperimentError(
            f"algorithm {name!r} is already registered (pass replace=True)"
        )
    entry = NetworkAlgorithm(
        name=name,
        factory=factory,
        kind=kind,
        engine_capable=engine_capable,
        needs_demand=needs_demand,
        description=description,
    )
    _REGISTRY[name] = entry
    return entry


def unregister_network(name: str) -> None:
    """Remove a (typically user-registered) algorithm from the registry."""
    _REGISTRY.pop(name, None)


def network_algorithms() -> dict[str, NetworkAlgorithm]:
    """A snapshot of the registry (name → entry)."""
    return dict(_REGISTRY)


def network_algorithm(name: str) -> NetworkAlgorithm:
    """Look up one entry; raises with the known names on a miss."""
    return require_algorithm(name)


def require_algorithm(name: str) -> NetworkAlgorithm:
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ExperimentError(
            f"unknown algorithm {name!r}; choose from {sorted(_REGISTRY)}"
            " or register_network() it first"
        )
    return entry


def online_algorithms() -> frozenset[str]:
    """Names of the self-adjusting (simulated) algorithms."""
    return frozenset(n for n, e in _REGISTRY.items() if e.kind == "online")


def static_algorithms() -> frozenset[str]:
    """Names of the static (oracle-costed) constructions."""
    return frozenset(n for n, e in _REGISTRY.items() if e.kind == "static")


def engine_capable_algorithms() -> frozenset[str]:
    """Names whose factory threads the ``engine=`` backend selection."""
    return frozenset(n for n, e in _REGISTRY.items() if e.engine_capable)


def register_policy(
    name: str, factory: Callable[..., Any], *, replace: bool = False
) -> None:
    """Register a policy wrapper: ``factory(inner, **params) -> network``."""
    if name in POLICY_WRAPPERS and not replace:
        raise ExperimentError(
            f"policy {name!r} is already registered (pass replace=True)"
        )
    POLICY_WRAPPERS[name] = factory


def apply_policies(network: Any, policies: tuple[PolicySpec, ...]) -> Any:
    """Wrap ``network`` in a spec's policy chain, innermost-first."""
    for policy in policies:
        wrapper = POLICY_WRAPPERS.get(policy.policy)
        if wrapper is None:
            raise ExperimentError(
                f"unknown policy {policy.policy!r};"
                f" choose from {sorted(POLICY_WRAPPERS)}"
            )
        network = wrapper(network, **policy.params_dict())
    return network


def build_network(
    spec: Union[NetworkSpec, Mapping[str, Any], str, None] = None,
    *,
    trace: Optional[Any] = None,
    demand: Optional[DemandMatrix] = None,
    **kwargs: Any,
) -> Any:
    """Build any registered network from a spec (the one front door).

    ``spec`` may be a :class:`~repro.net.spec.NetworkSpec`, a mapping of
    its fields, an algorithm name (remaining fields as keyword arguments),
    or ``None`` with everything as keyword arguments::

        build_network(NetworkSpec("kary-splaynet", n=64, k=4))
        build_network({"algorithm": "lazy", "n": 64, "params": {"alpha": 500}})
        build_network("kary-splaynet", n=64, k=4, engine="flat")
        build_network(algorithm="optimal-tree", n=64, k=4, trace=trace)

    ``trace``/``demand`` feed the demand-aware static constructions; other
    algorithms ignore them.  The spec's policy chain is applied to the
    built network, innermost-first.
    """
    spec = coerce_network_spec(spec, **kwargs)
    entry = require_algorithm(spec.algorithm)
    context = BuildContext(trace=trace, demand=demand)
    network = entry.factory(spec, context)
    return apply_policies(network, spec.policies)


def coerce_network_spec(
    spec: Union[NetworkSpec, Mapping[str, Any], str, None] = None,
    **kwargs: Any,
) -> NetworkSpec:
    """Normalize :func:`build_network`-style arguments into a spec."""
    if isinstance(spec, NetworkSpec):
        return spec.replace(**kwargs) if kwargs else spec
    if isinstance(spec, str):
        return NetworkSpec(algorithm=spec, **kwargs)
    if isinstance(spec, Mapping):
        merged = {**spec, **kwargs}
        return NetworkSpec.from_dict(merged)
    if spec is None:
        if "algorithm" not in kwargs:
            raise ExperimentError(
                "build_network needs a spec, a mapping, or algorithm=..."
            )
        return NetworkSpec(**kwargs)
    raise ExperimentError(
        f"cannot build a network from {type(spec).__name__}: pass a"
        " NetworkSpec, a mapping, or an algorithm name"
    )


# ----------------------------------------------------------------------
# built-in registrations
# ----------------------------------------------------------------------
def _make_kary_splaynet(spec: NetworkSpec, context: BuildContext) -> KArySplayNet:
    return KArySplayNet(
        spec.n, spec.k, initial=spec.initial, engine=spec.engine,
        **spec.params_dict(),
    )


def _make_centroid_splaynet(
    spec: NetworkSpec, context: BuildContext
) -> CentroidSplayNet:
    return CentroidSplayNet(
        spec.n, spec.k, initial=spec.initial, engine=spec.engine,
        **spec.params_dict(),
    )


def _make_binary_splaynet(spec: NetworkSpec, context: BuildContext) -> SplayNet:
    # SplayNet is the k=2 baseline regardless of the axis value (and has a
    # single implementation — no engine selection).
    return SplayNet(spec.n, **spec.params_dict())


def _make_lazy(spec: NetworkSpec, context: BuildContext) -> LazyRebuildNetwork:
    return LazyRebuildNetwork(spec.n, spec.k, **spec.params_dict())


def _build_full(spec: NetworkSpec, context: BuildContext) -> StaticTreeNetwork:
    return StaticTreeNetwork(build_complete_tree(spec.n, spec.k))


def _build_centroid(spec: NetworkSpec, context: BuildContext) -> StaticTreeNetwork:
    return StaticTreeNetwork(build_centroid_tree(spec.n, spec.k))


def _build_optimal_kary(
    spec: NetworkSpec, context: BuildContext
) -> StaticTreeNetwork:
    from repro.optimal.general import optimal_static_tree

    demand = context.require_demand(spec.algorithm)
    return StaticTreeNetwork(optimal_static_tree(demand, spec.k).tree)


def _build_optimal_bst(
    spec: NetworkSpec, context: BuildContext
) -> StaticTreeNetwork:
    from repro.splaynet.optimal import optimal_static_bst

    demand = context.require_demand(spec.algorithm)
    return StaticTreeNetwork(optimal_static_bst(demand).network)


register_network(
    "kary-splaynet", _make_kary_splaynet, engine_capable=True,
    description="k-ary SplayNet (Section 4.1)",
)
register_network(
    "centroid-splaynet", _make_centroid_splaynet, engine_capable=True,
    description="(k+1)-SplayNet centroid heuristic (Section 4.2)",
)
register_network(
    "splaynet", _make_binary_splaynet,
    description="binary SplayNet baseline [22]",
)
register_network(
    "lazy", _make_lazy,
    description="threshold-triggered optimal-tree rebuilding [13]",
)
register_network(
    "full-tree", _build_full, kind="static",
    description="complete k-ary tree",
)
register_network(
    "centroid-tree", _build_centroid, kind="static",
    description="centroid k-ary tree (Theorem 7)",
)
register_network(
    "optimal-tree", _build_optimal_kary, kind="static", needs_demand=True,
    description="optimal routing-based k-ary tree (Theorem 2 DP)",
)
register_network(
    "optimal-bst", _build_optimal_bst, kind="static", needs_demand=True,
    description="optimal static BST network (the [22] DP)",
)

register_policy("thresholded", ThresholdedNetwork)
register_policy("probabilistic", ProbabilisticNetwork)
register_policy("frozen", FrozenNetwork)
