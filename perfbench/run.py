"""Simulator benchmark: end-to-end host cost of four user paths.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload spec-1core --seed 7 --trace 0
    python3 perfbench/run.py --workload sweep --seed 7 --trace 1
    python3 perfbench/run.py --pin            # re-pin every digest

``--trace 0`` runs fresh ``perfbench/sample.py`` processes one after
another until the next one would end past ``--seconds``, at least
three, and reports the median of ``accesses_per_s``, ``setup_s`` and
``peak_rss_mb`` over them.  The two timings are in reference seconds:
each sample's host seconds scaled by its :mod:`hostspeed` probe.  The
table also prints the unnormalised host figures.  ``--trace 1`` runs
one untraced and one traced sample on the same input and reports the
per-layer metrics of the traced one, plus ``trace.overhead_ratio``.

The seed picks an input variant (``--seed`` modulo the variant count in
``workloads.json``).  Sample ``i`` of a ``--trace 0`` run uses the
variant ``i`` places further on, wrapping round, so a run replays many
of the pinned inputs and one slow or fast input does not decide its
median.  Every sample's simulated output is hashed and compared with
the digest pinned in ``digests.json`` for its variant.  A mismatch, a
job error or a failed layer-split check counts as failed; the last
stdout line is the JSON result and the exit code is 1 when anything
failed.  A checkout
without ``src/repro`` is refused with exit code 2 and no result.

Metric names, units and directions come from ``BENCHMARK.json`` at the
checkout root.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from hostspeed import REFERENCE_SPEED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_run")

#: A sample that has not finished by then is killed and counted failed.
SAMPLE_TIMEOUT_S = 150.0
MIN_SAMPLES = 3
#: spec-1core must run nearly every access in the fused kernel.
MAX_FALLBACK_RATIO = 0.05
TAGLESS_KERNEL = "repro.cpu.batched:_run_tagless_kernel"


class SampleError(Exception):
    pass


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def sample_env(workdir):
    """Environment of a sample: this checkout's sources, nothing else."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")
           and key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = workdir
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "default-cache")
    return env


def run_sample(workload, variant, workdir, trace=False):
    """Run one sample in a fresh process group; return its JSON record."""
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "sample.py"),
           "--workload", workload, "--variant", str(variant),
           "--workdir", workdir]
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=sample_env(workdir),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleError(f"sample timed out after {SAMPLE_TIMEOUT_S:g}s")
    finally:
        # Pool workers share the sample's process group; none may
        # outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SampleError(f"sample exited {proc.returncode}: "
                          f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Outcome:
    """Attempts, failures and the reasons for them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_sample(self, record, pinned):
        self.attempted += record["attempted"]
        self.failed += record["failed"]
        if record["failed"]:
            self.problems.append(f"{record['failed']} job(s) failed")
        if record["digest"] != pinned:
            self.failed += record["attempted"] - record["failed"]
            self.problems.append(f"digest {record['digest'][:16]} != "
                                 f"pinned {pinned[:16]}")

    def add_error(self, error):
        self.attempted += 1
        self.failed += 1
        self.problems.append(str(error))

    def check(self, ok, message):
        """One layer-split prediction, counted as an attempted operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)


def sample_metrics(record):
    """End-to-end values of one sample, timings in reference seconds."""
    reference_s = record["host_speed"] / REFERENCE_SPEED  # per host second
    return {
        "accesses_per_s": record["accesses"]
        / (record["timed_s"] * reference_s),
        "setup_s": record["setup_s"] * reference_s,
        "peak_rss_mb": record["peak_rss_mb"],
        "host.accesses_per_s": record["accesses"] / record["timed_s"],
        "host.setup_s": record["setup_s"],
        "host.speed": record["host_speed"],
    }


def timed_run(args, variant, pinned, outcome, workdir):
    """Fresh-process samples until the budget is spent (end-to-end).

    ``pinned`` maps every variant to its digest; sample ``index`` runs
    variant ``variant + index``, wrapping round.
    """
    samples = []
    start = time.monotonic()
    index = 0
    while True:
        began = time.monotonic()
        current = (variant + index) % len(pinned)
        try:
            record = run_sample(args.workload, current,
                                os.path.join(workdir, f"s{index}"))
        except SampleError as error:
            outcome.add_error(error)
        else:
            outcome.add_sample(record, pinned[str(current)])
            samples.append(sample_metrics(record))
        index += 1
        took = time.monotonic() - began
        if (index >= MIN_SAMPLES
                and time.monotonic() - start + took > args.seconds):
            return samples


def layer_metrics(record, untraced):
    """Per-layer metric values of a traced sample."""
    layers = record["layers"]
    calls, self_s = layers["calls"], layers["self_s"]
    values = {}
    for name in ("cpu.batched", "cpu.multicore", "cpu.scheduled",
                 "designs.access_cycles", "designs.create",
                 "workloads.generate", "workloads.build_schedule",
                 "core.miss_handler", "core.allocate_and_fill",
                 "sram.invalidate_page", "vm.tlb_flush",
                 "dram.access_block", "harness.cache_key",
                 "harness.cache_put", "harness.shm_publish",
                 "campaign.expand", "campaign.report"):
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("designs.access_cycles", "core.miss_handler",
                 "core.allocate_and_fill", "sram.invalidate_page",
                 "sram.invalidate", "vm.tlb_install", "vm.tlb_flush",
                 "dram.access_block", "harness.cache_get"):
        values[f"{name}.calls"] = calls.get(name, 0)
    values["cpu.batched.fallback_ratio"] = (
        calls.get("designs.access_cycles", 0) / record["accesses"])
    for name in ("harness.queue_wait_s", "harness.exec_s",
                 "harness.overhead_s"):
        values[name] = layers["harness"].get(name, 0.0)
    model = record["model"]
    per_kilo = 1000.0 / model["measured_accesses"]
    for name, count in model.items():
        if name.startswith("model."):
            values[name] = count * per_kilo
    values["trace.overhead_ratio"] = (
        sample_metrics(untraced)["accesses_per_s"]
        / sample_metrics(record)["accesses_per_s"])
    return values


def check_layer_split(workload, values, record, outcome):
    """The layer split the benchmark's README predicts."""
    harness = [name for name in values if name.startswith("harness.")]
    if workload == "sweep":
        outcome.check(all(values[name] > 0 for name in harness),
                      "sweep: some harness.* metric is 0")
        outcome.check(record.get("workers_traced", 0) >= 1,
                      "sweep: no pool worker reported its layer counts")
    else:
        outcome.check(all(values[name] == 0 for name in harness),
                      f"{workload}: harness.* metrics outside the sweep")
    if workload == "spec-1core":
        kernel_runs = record["layers"]["target_calls"].get(TAGLESS_KERNEL, 0)
        outcome.check(kernel_runs >= 1,
                      "spec-1core: the fused tagless kernel never ran")
        outcome.check(
            values["cpu.batched.fallback_ratio"] < MAX_FALLBACK_RATIO,
            f"spec-1core: fallback ratio "
            f"{values['cpu.batched.fallback_ratio']:.4f} is not below "
            f"{MAX_FALLBACK_RATIO}")
        outcome.check(values["sram.invalidate_page.calls"] == 0,
                      "spec-1core: on-die page invalidations happened")


def traced_run(args, variant, pinned, outcome, workdir):
    """One untraced and one traced sample on the same input."""
    try:
        untraced = run_sample(args.workload, variant,
                              os.path.join(workdir, "untraced"))
        traced = run_sample(args.workload, variant,
                            os.path.join(workdir, "traced"), trace=True)
    except SampleError as error:
        outcome.add_error(error)
        return None
    outcome.add_sample(untraced, pinned)
    outcome.add_sample(traced, pinned)
    values = layer_metrics(traced, untraced)
    check_layer_split(args.workload, values, traced, outcome)
    return values


def pin(workloads, names):
    """Recompute and store every variant's digest of ``names``."""
    path = os.path.join(HERE, "digests.json")
    digests = load_json(path) if os.path.exists(path) else {}
    for name in names:
        pinned = {}
        for variant in range(workloads["variants"]):
            workdir = os.path.join(WORK_ROOT, f"pin-{os.getpid()}")
            try:
                record = run_sample(name, variant, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if record["failed"]:
                raise SampleError(f"{name} variant {variant}: "
                                  f"{record['failed']} job(s) failed")
            pinned[str(variant)] = record["digest"]
            print(f"{name} variant {variant}: {record['digest']}",
                  file=sys.stderr)
        digests[name] = pinned
    with open(path, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")


def report(workload, samples, metrics, outcome, declared):
    """Print the human table and return the result's metrics dict."""
    runs = f"{len(samples)} sample(s)" if samples else "traced run"
    print(f"workload {workload}: {runs}, {outcome.attempted} "
          f"operation(s) attempted, {outcome.failed} failed")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    result = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if samples:
            median = print_summary(name, unit, samples,
                                   f", {entry['better']} is better")
        else:
            median = metrics[name]
            print(f"  {name:32s} {median:14.6g} {unit}")
        result[name] = {"value": median, "unit": unit}
    if samples:
        print("  unnormalised host figures:")
        for name, unit in (("host.accesses_per_s", "1/s"),
                           ("host.setup_s", "s"), ("host.speed", "1/s")):
            print_summary(name, unit, samples)
    return result


def print_summary(name, unit, samples, note=""):
    values = [s[name] for s in samples]
    median = statistics.median(values)
    q1, q3 = quartiles(values)
    print(f"  {name:32s} {median:14.6g} {unit:8s} "
          f"(q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)}{note})")
    return median


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="recompute digests.json (all workloads, or "
                             "only --workload)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    workloads = load_json(os.path.join(HERE, "workloads.json"))
    if args.pin:
        pin(workloads, [args.workload] if args.workload
            else list(workloads["workloads"]))
        return 0
    if args.workload not in workloads["workloads"]:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads['workloads'])}")
    variant = args.seed % workloads["variants"]
    pinned = load_json(os.path.join(HERE, "digests.json")).get(
        args.workload, {})
    if sorted(pinned) != sorted(map(str, range(workloads["variants"]))):
        print(f"perfbench: digests.json does not pin every variant of "
              f"{args.workload}; run perfbench/run.py --pin",
              file=sys.stderr)
        return 2
    declared = load_json(os.path.join(ROOT, "BENCHMARK.json"))

    outcome = Outcome()
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            values = traced_run(args, variant, pinned[str(variant)],
                                outcome, workdir)
            samples = []
            section = declared["per_layer"]
        else:
            values = None
            samples = timed_run(args, variant, pinned, outcome, workdir)
            section = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    if not samples and values is None:
        print("perfbench: every sample failed:", file=sys.stderr)
        for problem in outcome.problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"seed {args.seed}: first input variant {variant}")
    metrics = report(args.workload, samples, values, outcome, section)
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
