"""The repository's benchmark: wall and simulated time of the TPC-D paths.

Usage (from the repository root)::

    python3 perfbench/run.py --workload load|power_sql|power_open \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

A run repeats whole rounds (set-up, measured phase, output checks), as
many as ``spec.ROUNDS`` scaled by ``--seconds``, and reports the median
of each metric over its rounds.  A step's time is its least over the
rounds, and the step percentiles are Harrell-Davis estimates over those
step times.  End-to-end times are reported at the reference speed
(``spec.PROBE_REFERENCE_S``, see ``workloads.Clock``): a phase's time at
the speed measured over the phase, a step's at the speed measured around
the step.  The raw wall times and phase speeds are printed beside them.

``--trace 0`` measures with no instrumentation and prints the end-to-end
metrics; ``--trace 1`` runs one untraced round, then one round with the
per-layer spans of :mod:`layers` and the program's own tracer on, and
prints the per-layer metrics (raw wall seconds of the traced round).
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` steps, and ``metrics``.  The exit code is 0
only when every output check and the determinism guard passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import spec  # noqa: E402


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    return args


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# -- statistics --------------------------------------------------------


def harrell_davis(values: list[float], q: float,
                  upto: int | None = None) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile of ``values``.

    A weighted mean of all order statistics, with Beta(q(n+1), (1-q)(n+1))
    weights, rather than the one order statistic nearest ``q``: when the
    steps' times leave gaps (a few long queries among many short ones),
    the single order statistic jumps across a gap whenever one step
    changes places, and this estimate moves smoothly instead.  With
    ``upto``, only the ``upto`` smallest values are weighed."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # midpoint rule, 16 points inside every 1/n slice; weights
    # renormalised to sum to 1
    m = 16
    weights = []
    for i in range(n if upto is None else upto):
        total = 0.0
        for k in range(m):
            t = (i + (k + 0.5) / m) / n
            total += math.exp((a - 1) * math.log(t)
                              + (b - 1) * math.log1p(-t) - log_beta)
        weights.append(total)
    scale = sum(weights)
    return sum(w * x for w, x in zip(weights, ordered)) / scale


def step_times(rounds) -> list[float]:
    """Each step's wall time at the reference speed around it, least
    over rounds.

    Every round runs the same steps in the same order (the determinism
    guard checks their simulated work), so step i of one round is step i
    of the next.  What the program does in a step (its own full garbage
    collections included, see run()) it does in every round; a stall of
    the host lands on one round's step, and the least time leaves it out.
    Without that, the steps beyond ``load``'s pauses are the host's
    stalls, and its tail measures the host."""
    per_round = [[step * speed for step, speed in zip(r.steps, r.step_speeds)]
                 for r in rounds]
    if len({len(steps) for steps in per_round}) != 1:
        raise ValueError("rounds ran different numbers of steps")
    return [min(times) for times in zip(*per_round)]


def tail(steps: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    steps beyond it.

    The value is :func:`harrell_davis` of that percentile over the steps
    up to its own order statistic: the ten steps beyond it never enter
    it, so neither do the few full garbage collections of ``load``,
    which take tens of times as long as the steps they land in."""
    rank = max(len(steps) - 10, 1)
    q = rank / len(steps)
    return 100.0 * q, harrell_davis(steps, q, upto=rank)


def end_to_end(rounds) -> tuple[dict[str, float], str]:
    """The end-to-end metrics; times at the reference speed."""
    steps = step_times(rounds)
    percentile, tail_s = tail(steps)
    values = {
        "wall_s": statistics.median(r.wall_s * r.wall_speed for r in rounds),
        "setup_s": statistics.median(r.setup_s * r.setup_speed
                                     for r in rounds),
        "sim_s": statistics.median(r.sim_s for r in rounds),
        "sim_per_wall": statistics.median(r.sim_s / (r.wall_s * r.wall_speed)
                                          for r in rounds),
        "step_p50_ms": 1e3 * harrell_davis(steps, 0.5),
        "step_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "space_ratio": statistics.median(r.space_ratio for r in rounds),
    }
    return values, (f"p{percentile:.2f} of {len(steps)} steps, each its "
                    f"least time over {len(rounds)} round(s)")


def per_layer(untraced, traced, measured, setup,
              trace_split: dict[str, float]) -> dict[str, float]:
    values = measured.metrics()
    values.update(traced.counters)
    for name, (numerator, denominator) in spec.RATIOS.items():
        total = sum(values[part] for part in denominator)
        values[name] = values[numerator] / total if total else 0.0
    values.update(trace_split)
    untraced_s = untraced.wall_s * untraced.wall_speed
    values["trace.overhead_pct"] = \
        100.0 * (traced.wall_s * traced.wall_speed - untraced_s) / untraced_s
    values["traced.wall_s"] = traced.wall_s
    values["unattributed_s"] = traced.wall_s - measured.root_wall_s()
    for name, value in setup.metrics().items():
        if name.endswith(".self_s"):
            values[f"setup.{name}"] = value
    values["setup.traced_s"] = traced.setup_s
    values["setup.unattributed_s"] = traced.setup_s - setup.root_wall_s()
    return {m.name: values[m.name] for m in spec.PER_LAYER}


# -- determinism guard -------------------------------------------------


def code_hash() -> str:
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def first_difference(a: dict, b: dict) -> str | None:
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            return f"{key}: {a.get(key)!r} != {b.get(key)!r}"
    return None


def guard(workload: str, seed: int, rounds) -> list[str]:
    """Fingerprints must agree across the rounds of this run and with
    every earlier run of the same code and seed in this checkout."""
    problems = []
    reference = rounds[0].fingerprint
    for index, rnd in enumerate(rounds[1:], start=2):
        diff = first_difference(reference, rnd.fingerprint)
        if diff:
            problems.append(f"round {index} differs from round 1 in {diff}")
    path = STATE / "guard" / f"{workload}-{seed}.json"
    current = code_hash()
    if path.is_file():
        stored = json.loads(path.read_text())
        if stored["code"] == current:
            diff = first_difference(stored["fingerprint"], reference)
            if diff:
                problems.append(f"an earlier run of this code and seed "
                                f"differs in {diff}")
            return problems
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"code": current, "fingerprint": reference},
                               sort_keys=True))
    return problems


# -- the run -----------------------------------------------------------


def run(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no program sources at {SRC}")
    manifest_path = ROOT / "BENCHMARK.json"
    if not manifest_path.is_file() or \
            json.loads(manifest_path.read_text()) != spec.manifest():
        return fail("BENCHMARK.json is missing or out of date; regenerate "
                    "it with --write-manifest")
    sys.path.insert(0, str(SRC))
    import repro.core  # noqa: F401  (first: see workloads' docstring)
    import layers as layer_tracing
    import workloads

    workload, seed = args.workload, args.seed
    print(f"workload = {workload}   seed = {seed}   "
          f"UF1 seed = {workloads.derived_seed(seed, 'uf1')}   "
          f"UF2 seed = {workloads.derived_seed(seed, 'uf2')}   "
          f"SF = {spec.SCALE_FACTORS[workload]}")
    print("unmeasured layers: " + "; ".join(
        f"{name} ({why})" for name, why in spec.UNMEASURED.items()))
    if args.trace:
        for layer in spec.LAYERS:
            print(f"layer {layer.name} should move {layer.moves}")

    def untraced(_phase: str):
        return contextlib.nullcontext()

    workloads.warm_up_probe()
    # An untimed round at a small scale first, so that the first measured
    # round starts from the heap the later ones start from: the modules
    # the program imports lazily are loaded, its once-filled caches are
    # full.  Without it the cyclic garbage collector's full collections
    # fall on other steps in round 1 than in round 2, and taking each
    # step's least time over the rounds would drop them.  Its results are
    # not the benchmark's and are only reported.
    warm = workloads.run_round(workload, seed, untraced, {},
                               share=spec.WARM_UP_SHARE)
    for failure in warm.failures:
        print(f"warm-up round (not counted): {failure}")
    del warm
    gc.collect()
    cache: dict = {}
    rounds = []
    n_rounds = 1 if args.trace else max(1, round(
        spec.ROUNDS[workload] * args.seconds / spec.RUN_SECONDS))
    while len(rounds) < n_rounds:
        rounds.append(workloads.run_round(workload, seed, untraced, cache))
        gc.collect()
        if rounds[-1].failures:
            break

    traced_layers = {}
    if args.trace and not rounds[-1].failures:
        def layers_for(phase: str):
            traced_layers[phase] = layer_tracing.LayerTracer()
            return traced_layers[phase]
        rounds.append(workloads.run_round(workload, seed, layers_for,
                                          cache))
        traced_layers.setdefault("setup", layer_tracing.LayerTracer())

    failures = [f for r in rounds for f in r.failures]
    failures += guard(workload, seed, rounds)
    attempted = sum(len(r.steps) for r in rounds) or 1
    failed = sum(len(r.failures) for r in rounds)

    metrics: dict[str, float] = {}
    note = ""
    if not failures and not args.trace:
        metrics, note = end_to_end(rounds)
    elif not failures:
        measured = traced_layers["measured"]
        metrics = per_layer(rounds[0], rounds[-1], measured,
                            traced_layers["setup"],
                            workloads.trace_split(rounds[-1]))
        attributed = sum(value for name, value in metrics.items()
                         if name.endswith(".self_s")
                         and not name.startswith("setup."))
        gap = attributed + metrics["unattributed_s"] - \
            metrics["traced.wall_s"]
        if abs(gap) > 1e-6:
            failures.append(f"layer self times + unattributed_s miss the "
                            f"traced wall by {gap:.3g} s")
        spans = STATE / f"spans-{workload}-{seed}.tsv.gz"
        measured.write(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
    correct = not failures

    for label in sorted({v for r in rounds for v in r.vacuous}):
        print(f"vacuous check: {label} (the RDBMS reference is empty)")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"rounds = {len(rounds)}   attempted = {attempted}   "
          f"failed = {failed}   error_rate = {failed / attempted:.4f} ratio")
    for r in rounds:
        print(f"raw wall_s = {r.wall_s:.4f} s at speed {r.wall_speed:.3f}   "
              f"raw setup_s = {r.setup_s:.4f} s at speed "
              f"{r.setup_speed:.3f}")
    units = {m.name: m.unit for m in spec.END_TO_END + spec.PER_LAYER}
    if not correct:
        metrics = {}
    for name, value in metrics.items():
        extra = f"   ({note})" if name == "step_tail_ms" else ""
        print(f"{name} = {value:.6g} {units[name]}{extra}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
