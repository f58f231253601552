"""``repro.scenario`` — declarative scenarios and the matrix sweep
runner.

* :mod:`repro.scenario.spec` — frozen, validated experiment specs,
  one lossless dict codec that rejects unknown keys at every level,
  and mandatory explicit seeding;
* :mod:`repro.scenario.build` — spec → live simulation, with
  context-managed setup/teardown;
* :mod:`repro.scenario.matrix` — the axis-product sweep behind
  ``python -m repro matrix``.

Each experiment has one entry point (a ``python -m repro`` command);
every cell of every experiment runs through
:func:`repro.obs.bench.cell_scope`.
"""

from repro.scenario.spec import (
    ARBITER_POLICIES,
    ArbiterSpec,
    FaultSpec,
    NF_KINDS,
    NFSpec,
    NIC_MODELS,
    ScenarioSpec,
    SpecError,
    TenantSpec,
    TopologySpec,
    TrafficSpec,
    derive_seed,
)
from repro.scenario.build import (
    BuiltScenario,
    ContentionRig,
    ScenarioBuildError,
    build_scenario,
    make_arbiter,
    make_nf,
    make_packets,
)

__all__ = [
    "ARBITER_POLICIES",
    "ArbiterSpec",
    "BuiltScenario",
    "ContentionRig",
    "FaultSpec",
    "NF_KINDS",
    "NFSpec",
    "NIC_MODELS",
    "ScenarioBuildError",
    "ScenarioSpec",
    "SpecError",
    "TenantSpec",
    "TopologySpec",
    "TrafficSpec",
    "build_scenario",
    "derive_seed",
    "make_arbiter",
    "make_nf",
    "make_packets",
]
