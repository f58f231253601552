"""Scenario specs: validation, derived seeds, the dict/JSON codec."""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from repro.scenario.spec import (
    ArbiterSpec,
    FaultSpec,
    NFSpec,
    ScenarioSpec,
    SpecError,
    TenantSpec,
    TopologySpec,
    TrafficSpec,
    derive_seed,
    from_dict,
    to_dict,
)


def demo_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        name="spec-demo",
        seed=11,
        description="round-trip fixture",
        tags=("test",),
        topology=TopologySpec(nic_model="commodity", n_cores=4,
                              arbiter=ArbiterSpec(policy="fcfs")),
        tenants=(
            TenantSpec(name="a", nf=NFSpec(kind="firewall",
                                           params={"rules": 16}),
                       dst_prefix="20.0.0.0/8"),
            TenantSpec(name="b", nf=NFSpec(kind="monitor"),
                       dst_prefix="30.0.0.0/8", dpi_units=1),
        ),
        traffic=TrafficSpec(n_packets=8),
        fault=FaultSpec(kind="bus_babble", start_ns=1_000, count=2),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestValidation:
    def test_unknown_nf_kind_rejected(self):
        with pytest.raises(SpecError):
            NFSpec(kind="quantum_router")

    def test_unknown_nic_model_rejected(self):
        with pytest.raises(SpecError):
            TopologySpec(nic_model="fpga")

    def test_unknown_arbiter_rejected(self):
        with pytest.raises(SpecError):
            ArbiterSpec(policy="lottery")

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(SpecError):
            FaultSpec(kind="gamma_ray")

    def test_bool_seed_rejected(self):
        with pytest.raises(SpecError):
            demo_spec(seed=True)

    def test_constructor_requires_seed(self):
        # seed has no default: a spec without one cannot be built.
        with pytest.raises(TypeError, match="seed"):
            ScenarioSpec(name="x")

    def test_duplicate_tenant_names_rejected(self):
        tenants = (
            TenantSpec(name="a", nf=NFSpec(kind="monitor"),
                       dst_prefix="20.0.0.0/8"),
            TenantSpec(name="a", nf=NFSpec(kind="monitor"),
                       dst_prefix="30.0.0.0/8"),
        )
        with pytest.raises(SpecError):
            demo_spec(tenants=tenants, fault=None)

    def test_core_overcommit_rejected(self):
        tenants = tuple(
            TenantSpec(name=f"t{i}", nf=NFSpec(kind="monitor"),
                       dst_prefix=f"{20 + i}.0.0.0/8", cores=3)
            for i in range(2))
        with pytest.raises(SpecError):
            demo_spec(tenants=tenants, fault=None,
                      topology=TopologySpec(n_cores=4))

    def test_fault_targeting_unknown_tenant_rejected(self):
        with pytest.raises(SpecError):
            demo_spec(fault=FaultSpec(kind="dma_error", tenant="ghost"))


class TestDerivedSeeds:
    def test_derive_seed_is_stable(self):
        # sha256-derived, so stable across processes and PYTHONHASHSEED.
        assert derive_seed(7, "nf", "fw") == derive_seed(7, "nf", "fw")
        assert derive_seed(7, "nf", "fw") != derive_seed(7, "nf", "mon")
        assert derive_seed(7, "nf", "fw") != derive_seed(8, "nf", "fw")

    def test_sub_seed_uses_spec_seed_and_name(self):
        spec = demo_spec()
        assert spec.sub_seed("traffic") == \
            derive_seed(11, "spec-demo", "traffic")
        assert demo_spec(seed=12).sub_seed("traffic") != \
            spec.sub_seed("traffic")


class TestRoundTrip:
    def test_dict_round_trip_identity(self):
        spec = demo_spec()
        data = spec.to_dict()
        assert ScenarioSpec.from_dict(data) == spec
        assert ScenarioSpec.from_dict(data).to_dict() == data

    def test_json_round_trip_identity(self):
        spec = demo_spec()
        data = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(data) == spec

    def test_faultless_spec_round_trips(self):
        spec = demo_spec(fault=None)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        data = demo_spec().to_dict()
        data["flux_capacitor"] = 1.21
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(data)

    def test_from_dict_requires_seed(self):
        data = demo_spec().to_dict()
        del data["seed"]
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(data)

    def test_params_render_as_dict_but_hash_as_tuple(self):
        nf = NFSpec(kind="firewall", params={"rules": 16})
        assert to_dict(nf)["params"] == {"rules": 16}
        assert nf.param("rules") == 16
        assert nf.param("missing", 5) == 5
        hash(nf)  # frozen + tuple-backed params stay hashable


class TestTenantSLO:
    def _slo_dict(self):
        return {"objectives": [
            {"kind": "p99_latency_ns", "threshold": 5000.0, "target": 0.99},
            {"kind": "interference_budget_ns", "threshold": 0.0,
             "target": 1.0},
        ]}

    def test_slo_dict_coerced_to_tenant_slo(self):
        from repro.obs.slo import TenantSLO

        tenant = TenantSpec(name="a", nf=NFSpec(kind="monitor"),
                            dst_prefix="20.0.0.0/8", slo=self._slo_dict())
        assert isinstance(tenant.slo, TenantSLO)
        assert tenant.slo.objective("p99_latency_ns").threshold == 5000.0

    def test_bad_slo_names_the_tenant(self):
        with pytest.raises(SpecError, match="tenant 'a'"):
            TenantSpec(name="a", nf=NFSpec(kind="monitor"),
                       dst_prefix="20.0.0.0/8",
                       slo={"objectives": [
                           {"kind": "availability", "threshold": 0.999}]})

    def test_slo_round_trips_through_json(self):
        tenants = (
            TenantSpec(name="a", nf=NFSpec(kind="monitor"),
                       dst_prefix="20.0.0.0/8", slo=self._slo_dict()),
            TenantSpec(name="b", nf=NFSpec(kind="monitor"),
                       dst_prefix="30.0.0.0/8"),
        )
        spec = demo_spec(tenants=tenants, fault=None)
        data = json.loads(json.dumps(spec.to_dict()))
        clone = ScenarioSpec.from_dict(data)
        assert clone == spec
        assert clone.tenants[0].slo == spec.tenants[0].slo
        assert clone.tenants[1].slo is None


class TestL2Ways:
    def test_l2_ways_round_trips(self):
        topo = TopologySpec(nic_model="snic", n_cores=4,
                            arbiter=ArbiterSpec(policy="temporal"),
                            l2_ways=12)
        spec = demo_spec(topology=topo)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_l2_ways_floor_enforced(self):
        with pytest.raises(SpecError, match="l2_ways"):
            TopologySpec(nic_model="snic", n_cores=4, l2_ways=1)


# ----------------------------------------------------------------------
# The codec: committed spec files round-trip, typos fail at any depth
# ----------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent
SPEC_FILES = sorted(p.name for p in (REPO / "examples").iterdir()
                    if p.suffix in (".json", ".yaml"))


def _committed_spec_dict(source: str) -> dict:
    """A committed spec file's raw dict, or one of the perf benchmark's
    generated spec dicts (``idle_spec``/``dense_spec``)."""
    if source in SPEC_FILES:
        text = (REPO / "examples" / source).read_text()
        if source.endswith(".yaml"):
            return pytest.importorskip("yaml").safe_load(text)
        return json.loads(text)
    module_spec = importlib.util.spec_from_file_location(
        "perf_workloads", REPO / "benchmarks" / "perf" / "workloads.py")
    workloads = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = workloads  # its dataclasses need it
    module_spec.loader.exec_module(workloads)
    return getattr(workloads, source)(7)


def _typo_base() -> dict:
    """Every record level present once: an SLO-bearing tenant, a fault."""
    tenants = (
        TenantSpec(name="a", nf=NFSpec(kind="monitor"),
                   dst_prefix="20.0.0.0/8",
                   slo={"objectives": [{"kind": "p99_latency_ns",
                                        "threshold": 5000.0}]}),
        TenantSpec(name="b", nf=NFSpec(kind="firewall"),
                   dst_prefix="30.0.0.0/8"),
    )
    return demo_spec(tenants=tenants).to_dict()


class TestCodec:
    @pytest.mark.parametrize("source",
                             SPEC_FILES + ["idle_spec", "dense_spec"])
    def test_committed_specs_round_trip(self, source):
        data = _committed_spec_dict(source)
        assert ScenarioSpec.from_dict(data).to_dict() == data

    @pytest.mark.parametrize("path, key", [
        ("", "flux_capacitor"),
        ("topology", "nic_modle"),
        ("topology.arbiter", "polcy"),
        ("tenants.0", "coers"),
        ("tenants.1.nf", "knid"),
        ("tenants.0.slo.objectives.0", "traget"),
        ("traffic", "n_packet"),
        ("fault", "strat_ns"),
    ])
    def test_misspelled_key_names_its_path(self, path, key):
        data = _typo_base()
        ScenarioSpec.from_dict(data)  # the base itself is valid
        record = data
        for part in filter(None, path.split(".")):
            record = record[int(part) if part.isdigit() else part]
        record[key] = 1
        cls = {"": "ScenarioSpec", "topology": "TopologySpec",
               "topology.arbiter": "ArbiterSpec", "tenants.0": "TenantSpec",
               "tenants.1.nf": "NFSpec", "traffic": "TrafficSpec",
               "tenants.0.slo.objectives.0": "SLOSpec",
               "fault": "FaultSpec"}[path]
        message = f"unknown {cls} fields: [{key!r}]"
        with pytest.raises(SpecError, match="^" + re.escape(
                f"{path}: {message}" if path else message) + "$"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("path, value, expected", [
        ("topology", 5, "topology: expected a TopologySpec mapping, "
                        "got int"),
        ("tenants", ["oops"], "tenants.0: expected a TenantSpec mapping, "
                              "got str"),
        ("tenants", "oops", "tenants: expected a list, got str"),
        ("tags", "perf", "tags: expected a list, got str"),
        ("tenants", [{"name": "a", "nf": {"kind": "monitor",
                                          "params": ["ab"]},
                      "dst_prefix": "20.0.0.0/8"}],
         "tenants.0.nf.params: expected a mapping, got list"),
        ("traffic", {"n_packets": "many"},
         "traffic.n_packets: expected int, got 'many'"),
    ])
    def test_bad_shape_names_its_path(self, path, value, expected):
        data = dict(_typo_base(), fault=None, **{path: value})
        with pytest.raises(SpecError, match="^" + re.escape(expected)):
            ScenarioSpec.from_dict(data)

    def test_missing_required_field_names_its_path(self):
        data = _typo_base()
        del data["tenants"][1]["nf"]["kind"]
        with pytest.raises(SpecError, match=re.escape(
                "tenants.1.nf: missing required field 'kind'")):
            ScenarioSpec.from_dict(data)

    def test_validation_error_names_its_path(self):
        data = _typo_base()
        data["topology"]["arbiter"]["policy"] = "lottery"
        with pytest.raises(SpecError, match=re.escape(
                "topology.arbiter: unknown arbiter policy 'lottery'")):
            ScenarioSpec.from_dict(data)

    def test_defaults_come_from_the_field_declarations(self):
        spec = ScenarioSpec.from_dict({
            "name": "bare", "seed": 1,
            "tenants": [{"name": "a", "nf": {"kind": "monitor"},
                         "dst_prefix": "20.0.0.0/8"}]})
        assert spec.topology == TopologySpec()
        assert spec.traffic == TrafficSpec()
        assert spec.tenants[0].cores == TenantSpec.__dataclass_fields__[
            "cores"].default
        assert from_dict(ArbiterSpec, {}) == ArbiterSpec()

