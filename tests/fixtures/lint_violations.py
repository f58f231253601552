# Seeded lint fixture: every SNIC rule must fire at least once on this
# file.  It is parsed by the lint engine in tests, never imported or
# executed — the code only has to be syntactically valid.
#
# ruff/mypy skip this file (see pyproject.toml): the violations are the
# point.

import random
import time

memory = None
sim = None
tracer = None
registry = None
ScenarioSpec = None
AttestationError = None

PACKETS_SEEN = 0


def isolation_bypass(nf_id, pages):
    # SNIC001: ownership call + raw access outside any mediation layer.
    memory.claim_pages(nf_id, pages)
    return memory.read(0, 64)


def wall_clock_latency():
    # SNIC002: wall-clock read in simulation code.
    start = time.time()
    return time.time() - start


def unseeded_jitter():
    # SNIC002: module-level draw on the shared unseeded RNG.
    return random.random() * 100


def schedule_from_set(flows):
    # SNIC002: set iteration order escapes into schedule() arguments.
    for flow in set(flows):
        sim.schedule(10, lambda f=flow: f.poll())


def on_packet():
    # SNIC003: kernel-scheduled callback mutating a module global.
    global PACKETS_SEEN
    PACKETS_SEEN += 1


def arm_callback():
    sim.schedule(100, on_packet)


def emit_telemetry(n_bytes):
    # SNIC004: tracer emission and registry mint with no tenant tag.
    tracer.instant("fixture.event", track="fixture")
    registry.counter("fixture_bytes_total", kind="rx").inc(n_bytes)


def emit_half_attributed_interference(victim):
    # SNIC004 (strict form): interference_* metrics must carry BOTH
    # tenant= (the victim) and culprit= — a victim-only edge is
    # half-attributed blame.
    registry.counter("interference_wait_ns_total", resource="bus",
                     tenant=victim).inc(100.0)
    registry.counter("interference_events_total", resource="bus").inc(1)


def emit_unattributable_slo(latency_ns):
    # SNIC004 (slo_* form): SLO metrics are per-tenant by definition,
    # so the tenant=None infrastructure escape hatch is rejected and a
    # missing tenant= is equally bad.
    registry.histogram("slo_latency_ns", tenant=None).observe(latency_ns)
    registry.counter("slo_alerts_total").inc()


def float_delay(latency_ns):
    # SNIC005: provably float-valued delay reaching the kernel.
    sim.schedule(latency_ns / 2, on_packet)
    sim.schedule(1.5, on_packet)


def chaos_fault_jitter(plan):
    # SNIC006: fault/chaos code must draw from the plan's seeded RNG —
    # an unseeded Random() and the process-global random module both
    # make the fault schedule unreplayable.
    rng = random.Random()
    random.seed(1234)
    return rng.random() + plan.jitter_ns


def implicit_seed_spec():
    # SNIC007: ScenarioSpec without an explicit seed= keyword — the
    # determinism source must be visible at the call site.
    return ScenarioSpec(name="fixture-demo")


def scenario_report_stamp(report):
    # SNIC007: wall-clock read in scenario-scoped code — one host
    # timestamp and same-seed matrix reports stop being byte-identical.
    report["created"] = time.strftime("%Y-%m-%dT%H:%M:%SZ")
    return report


def scrub_extent_quietly(owner):
    # SNIC008: scrubbing/releasing tenant pages without an audit emit —
    # the teardown witness trail has a hole.
    return memory.release_pages(owner, scrub=True)


class ShadowTLB:
    def __init__(self):
        self.entries = []

    def install(self, entry):
        # SNIC008: TLB mutation defined without an audit emit — installs
        # must be witnessed at the choke point.
        self.entries.append(entry)


def reject_stale_quote(nonce, outstanding):
    # SNIC008: attestation rejection without an audit verdict record.
    if nonce not in outstanding:
        raise AttestationError("stale or replayed nonce")
    return True


def flight_snapshot_stamp(entries):
    # SNIC008: wall-clock read in forensics-scoped code — post-mortem
    # bundles must be byte-identical across same-seed runs.
    return {"captured": time.time(), "n": len(entries)}


def shard_task_push(pool, task, built):
    # SNIC011: live simulation objects crossing a shard boundary — the
    # registry as a pool task argument, the runtime through a pool map.
    # Pool tasks carry serialized payloads only.
    pool.submit(task, {"metrics": registry})
    pool.map(task, [built.runtime])
