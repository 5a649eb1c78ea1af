"""ScenarioSpec: validation, classification, JSON round-trip."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.scenarios import (
    ScenarioSpec,
    specs_from_json,
    specs_to_json,
)
from repro.scenarios.spec import DEFAULT_ONLINE_ENGINE


def spec(**overrides):
    fields = dict(
        workload="temporal-0.5", n=32, m=200, seed=7, algorithm="kary-splaynet", k=3
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ExperimentError):
            spec(algorithm="teleport")

    def test_bad_k(self):
        with pytest.raises(ExperimentError):
            spec(k=1)

    def test_bad_engine(self):
        with pytest.raises(ExperimentError):
            spec(engine="quantum")

    def test_bad_cost_model(self):
        with pytest.raises(ExperimentError):
            spec(cost_model="gold-pressed-latinum")

    def test_trace_cells_need_requests(self):
        with pytest.raises(ExperimentError):
            spec(m=0)

    def test_analytic_cells_allow_m_zero(self):
        s = spec(algorithm="centroid-tree-distance", m=0)
        assert s.kind == "analytic"


class TestClassification:
    @pytest.mark.parametrize(
        "algorithm,kind",
        [
            ("kary-splaynet", "online"),
            ("centroid-splaynet", "online"),
            ("splaynet", "online"),
            ("full-tree", "static"),
            ("optimal-tree", "static"),
            ("optimal-uniform-distance", "analytic"),
        ],
    )
    def test_kind(self, algorithm, kind):
        m = 0 if kind == "analytic" else 200
        assert spec(algorithm=algorithm, m=m).kind == kind

    def test_engine_defaults_to_flat_for_capable_cells(self):
        assert spec().resolved_engine() == DEFAULT_ONLINE_ENGINE
        assert spec(engine="object").resolved_engine() == "object"

    def test_no_engine_for_engine_free_cells(self):
        assert spec(algorithm="splaynet").resolved_engine() is None
        assert spec(algorithm="full-tree", engine="object").resolved_engine() is None

    def test_task_bridge_threads_engine(self, monkeypatch):
        # The cell runner builds on spec.resolved_engine(): engine=None
        # still means the flat default, an explicit engine passes through.
        from repro.parallel import tasks

        built = []
        real = tasks.build_network

        def recording(network_spec, **kwargs):
            built.append(network_spec)
            return real(network_spec, **kwargs)

        monkeypatch.setattr(tasks, "build_network", recording)
        tasks.run_simulation_task(spec())
        tasks.run_simulation_task(spec(engine="object"))
        assert [b.engine for b in built] == [DEFAULT_ONLINE_ENGINE, "object"]

    def test_analytic_cells_have_no_task(self):
        from repro.parallel.tasks import run_simulation_task

        with pytest.raises(ExperimentError):
            run_simulation_task(spec(algorithm="complete-tree-distance", m=0))


class TestJsonRoundTrip:
    def test_single_spec(self):
        original = spec(engine="flat", cost_model="unit_rotations", group="t5")
        assert ScenarioSpec.from_json(original.to_json()) == original

    def test_dict_round_trip_is_lossless(self):
        original = spec()
        data = json.loads(original.to_json())
        assert ScenarioSpec.from_dict(data) == original

    def test_unknown_field_rejected(self):
        data = spec().to_dict()
        data["frobnication"] = 3
        with pytest.raises(ExperimentError):
            ScenarioSpec.from_dict(data)

    def test_non_object_rejected(self):
        with pytest.raises(ExperimentError):
            ScenarioSpec.from_json("[1, 2]")

    def test_spec_list_round_trip(self):
        originals = [spec(k=k) for k in (2, 3, 5)]
        assert specs_from_json(specs_to_json(originals)) == originals

    def test_replace(self):
        assert spec().replace(k=5).k == 5
        assert spec().replace(k=5) != spec()
