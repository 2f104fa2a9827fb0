"""One timed sample of a benchmark workload, in a fresh process.

Usage::

    python3 perfbench/sample.py --workload spec-1core --variant 3 \\
        --workdir .perfbench_run/x [--trace]

The ``src/`` tree of the checkout must be on ``PYTHONPATH``
(``perfbench/run.py`` arranges that).  The sample builds its inputs from
the workload definition in ``workloads.json`` and the input variant,
runs them through the simulator's public entry points, and prints one
JSON line:

- ``setup_s``: from the end of the host-speed probe (before ``repro``
  is imported) to the first simulated access -- for the simulation
  workloads, the moment ``Simulator.build_design`` returns; for the
  sweep, the first job handed to a pool worker;
- ``timed_s`` and ``accesses``: the timed phase and the simulated
  accesses it replayed, warm-up included;
- ``peak_rss_mb``: peak resident memory of this process and of every
  worker it waited for;
- ``host_speed``: the :mod:`hostspeed` probe, on as many processes as
  the workload runs simulations in parallel;
- ``digest``: SHA-256 of the simulated statistics (for the sweep, of
  the campaign report), compared by the caller with the pinned digest;
- ``attempted`` / ``failed``: simulations run and job errors;
- ``model``: model event counts summed over every simulation;
- ``layers`` (``--trace`` only): per-layer counts and self times.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import hostspeed  # perfbench/ is first on sys.path when run as a script

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seeds of the tenant scenario and the campaign are this plus the variant.
SEED_BASE = 2015


def load_json(name):
    with open(os.path.join(HERE, name)) as handle:
        return json.load(handle)


def result_digest(result):
    """SHA-256 over everything a simulation point reports."""
    payload = {
        "design": result.design_name,
        "cores": [[c.core_id, c.instructions, c.cycles, c.stall_cycles]
                  for c in result.cores],
        "elapsed_ns": result.elapsed_ns,
        "mean_l3_latency_cycles": result.mean_l3_latency_cycles,
        "energy_j": result.energy.total_j,
        "stats": result.stats,
        "tenants": result.tenants,
        "resize_events": result.resize_events,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def timed_simulator(config):
    """A ``Simulator`` that notes when its design has been built."""
    from repro.cpu.simulator import Simulator

    class TimedSimulator(Simulator):
        built_at = None

        def build_design(self, design_name):
            design = super().build_design(design_name)
            self.built_at = time.perf_counter()
            return design

    return TimedSimulator(config)


# ----------------------------------------------------------------------
# Workload kinds
# ----------------------------------------------------------------------
def run_traces(spec, variant, _workdir):
    """Single-core program or Table 5 mix through ``Simulator.run``."""
    from repro.common.config import default_system
    from repro.cpu.multicore import BoundTrace
    from repro.workloads.generator import TraceGenerator
    from repro.workloads.mixes import mix_programs
    from repro.workloads.spec import spec_profile

    programs = ([spec["program"]] if "program" in spec
                else list(mix_programs(spec["mix"])))
    scale = spec["scale"]
    config = default_system(cache_megabytes=spec["cache_mb"],
                            num_cores=len(programs), capacity_scale=scale)
    bindings = []
    for core, program in enumerate(programs):
        generator = TraceGenerator(spec_profile(program),
                                   capacity_scale=scale,
                                   seed_tag=("perfbench", variant, core))
        bindings.append(BoundTrace(core, core,
                                   generator.generate(spec["accesses"])))
    simulator = timed_simulator(config)
    result = simulator.run(spec["design"], bindings, engine=spec["engine"])
    end = time.perf_counter()
    return {
        "setup_end": simulator.built_at,
        "end": end,
        "accesses": sum(len(b.trace) for b in bindings),
        "results": [result],
        "failed": 0,
    }


def span_bound(scenario):
    """Largest off-package span ``scenario`` can take for any seed.

    Every tenant gets a private VPN window of three footprints plus a
    margin (see :func:`repro.workloads.tenants.build_schedule`); the
    bound takes the largest footprint any of the scenario's profiles
    has at that tenant's capacity scale.
    """
    from repro.workloads.spec import spec_profile
    from repro.workloads.tenants import VPN_WINDOW_MARGIN

    total = 0
    for tenant in range(scenario.tenants):
        scale = max(1, int(round(scenario.capacity_scale
                                 * (tenant + 1) ** scenario.footprint_zipf)))
        footprint = max(spec_profile(name).footprint_pages(scale)
                        for name in scenario.profiles)
        total += 3 * footprint + VPN_WINDOW_MARGIN
    return total


def run_tenants(spec, variant, _workdir):
    """Multi-tenant scenario through ``Simulator.run_tenants``."""
    from repro.common.config import default_system
    from repro.workloads.tenants import TenantScenarioSpec, build_schedule

    scenario = TenantScenarioSpec.from_dict(
        dict(load_json(spec["scenario"]), seed=SEED_BASE + variant))
    config = default_system(cache_megabytes=spec["cache_mb"],
                            num_cores=spec["cores"],
                            capacity_scale=spec["scale"])
    bound = span_bound(scenario)
    if bound > config.off_package_pages:
        raise SystemExit(
            f"scenario {scenario.name!r} may span {bound} off-package "
            f"pages but the machine has {config.off_package_pages}")
    schedule = build_schedule(scenario, spec["cores"])
    simulator = timed_simulator(config)
    result = simulator.run_tenants(spec["design"], schedule)
    end = time.perf_counter()
    return {
        "setup_end": simulator.built_at,
        "end": end,
        "accesses": schedule.total_accesses,
        "results": [result],
        "failed": 0,
    }


class SweepObserver:
    """Harness observer: first dispatch, queue waits and job times."""

    def __init__(self):
        self.first_dispatch = None
        self.queue_wait_s = 0.0
        self.exec_s = 0.0

    def job_done(self, outcome):
        pass

    def job_dispatched(self, index, spec, attempt, worker_id, wait_s):
        if self.first_dispatch is None:
            self.first_dispatch = time.perf_counter()
        self.queue_wait_s += wait_s

    def job_finished(self, index, spec, attempt, worker_id, status, wall):
        self.exec_s += wall


def run_sweep(spec, variant, workdir):
    """Campaign study through the campaign compiler and the harness."""
    # Workers are forked from this process and inherit the engine choice.
    os.environ["REPRO_ENGINE"] = spec["engine"]
    from repro.campaign import compile as campaign_compile
    from repro.campaign import report as campaign_report
    from repro.campaign.spec import CampaignSpec
    from repro.harness.cache import ResultCache
    from repro.harness.runner import Harness

    study = CampaignSpec.from_dict(
        dict(load_json(spec["study"]), seed=SEED_BASE + variant))
    cache_dir = os.path.join(workdir, "result-cache")
    if os.path.exists(cache_dir):
        raise SystemExit(f"result cache {cache_dir} is not fresh")
    observer = SweepObserver()
    harness = Harness(jobs=spec["jobs"], cache=ResultCache(cache_dir),
                      observer=observer)
    run = campaign_compile.run_campaign(study, harness)
    report = campaign_report.reduce_campaign(study, run.cell_results())
    text = campaign_report.render_markdown(report)
    end = time.perf_counter()
    if observer.first_dispatch is None:
        raise SystemExit("sweep dispatched no job to a worker")
    document = json.dumps(report.to_dict(), sort_keys=True) + "\n" + text
    results = [o.result for o in run.outcomes if o.ok]
    stores = harness.cache.stats.stores
    if stores != len(results):
        raise SystemExit(f"sweep stored {stores} of {len(results)} "
                         "computed points in its result cache")
    wall = end - observer.first_dispatch
    return {
        "setup_end": observer.first_dispatch,
        "end": end,
        "accesses": sum(o.spec.accesses * o.spec.num_cores
                        for o in run.outcomes),
        "results": results,
        "failed": len(run.outcomes) - len(results),
        "digest": hashlib.sha256(document.encode()).hexdigest(),
        "harness": {
            "harness.queue_wait_s": observer.queue_wait_s,
            "harness.exec_s": observer.exec_s,
            "harness.overhead_s": wall - observer.exec_s / spec["jobs"],
        },
    }


RUNNERS = {"traces": run_traces, "tenants": run_tenants, "sweep": run_sweep}

#: Model counts reported per 1k measured accesses: metric -> stat keys
#: summed (``*`` matches a per-core prefix such as ``core0_``).
MODEL_STATS = {
    "model.fills": ("engine_fills", "l3_misses"),
    "model.evictions": ("engine_fq_evictions_completed",),
    "model.writebacks": ("engine_writebacks", "l3_writebacks"),
    "model.tlb_misses": ("*_tlb_misses",),
    "model.context_switches": ("context_switches",),
    "model.resize_remapped_pages": ("resize_remapped_pages",),
}


def model_counts(results):
    counts = dict.fromkeys(MODEL_STATS, 0.0)
    measured = 0.0
    for result in results:
        stats = result.stats
        measured += stats.get("accesses", 0.0)
        for metric, keys in MODEL_STATS.items():
            for key in keys:
                if key.startswith("*"):
                    counts[metric] += sum(value for name, value
                                          in stats.items()
                                          if name.endswith(key[1:]))
                else:
                    counts[metric] += stats.get(key, 0.0)
    counts["measured_accesses"] = measured
    return counts


def peak_rss_mb():
    """Peak RSS of this process and of its waited-for workers, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # Linux reports kilobytes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spec = load_json("workloads.json")["workloads"][args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    # Probed before anything from ``src/`` is imported.
    host_speed = hostspeed.speed(processes=spec.get("jobs", 1))
    start = time.perf_counter()

    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer(worker_dir=args.workdir)
        tracer.install()

    run = RUNNERS[spec["kind"]](spec, args.variant, args.workdir)
    digest = run.get("digest")
    if digest is None:
        digest = hashlib.sha256("".join(
            result_digest(r) for r in run["results"]).encode()).hexdigest()
    out = {
        "setup_s": run["setup_end"] - start,
        "timed_s": run["end"] - run["setup_end"],
        "accesses": run["accesses"],
        "peak_rss_mb": peak_rss_mb(),
        "host_speed": host_speed,
        "digest": digest,
        "attempted": max(1, len(run["results"]) + run["failed"]),
        "failed": run["failed"],
        "model": model_counts(run["results"]),
    }
    if tracer is not None:
        out["workers_traced"] = tracer.merge_worker_files()
        out["layers"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "target_calls": dict(tracer.target_calls),
            "harness": run.get("harness", {}),
        }
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
