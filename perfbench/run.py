"""quadrl benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload train-td3 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; quadrl is imported from its
``src/`` directory and nowhere else. BLAS is pinned to one thread before
numpy loads: these are small matrices, and with two OpenBLAS threads on
a busy two-core machine one TD3 update took 65 ms instead of 3.3 ms.

Every unit (see workloads.py) runs in a fresh process, as `quadrl train`
or `quadrl transfer` would: the process sets up, prints ``ready``, runs
the timed phase, checks its artifacts and prints one JSON record.

--seconds sets how many inputs --seed draws: as many units as fit in it
on the reference machine (workloads.py, unit_seconds).

--trace 0 runs a unit on each input, then repeats the first input, which
must reproduce its artifacts byte for byte. It reports setup_s, wall_s,
env_steps_per_s and peak_rss_mb.

--trace 1 runs each input untraced, then traced (spans.py). The two must
write the same artifacts, and the traced call counts must agree with the
outputs. It reports the per-layer metrics, as means over the traced runs.

The last line of stdout is the JSON result; the lines before it list each
metric with its unit, the error rate and the environment.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
UNIT_TIMEOUT_S = 150
DEADLINE_FACTOR = 1.2

# BENCHMARK.json names the workloads and every metric with its unit.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in _DECLARED["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


def _import_workloads():
    """Import quadrl from this checkout's src/, or exit without a result."""
    if not (SRC / "quadrl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no quadrl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quadrl
    if Path(quadrl.__file__).resolve().parent != (SRC / "quadrl").resolve():
        sys.exit(f"perfbench: quadrl was imported from {quadrl.__file__}")
    import workloads
    return workloads


# --- one unit, in its own process ---------------------------------------------

def _count_checks(unit, layer) -> list[str]:
    """Traced call counts against what the unit's outputs imply."""
    training = unit.workload.startswith("train")
    expected = {
        "env.step": unit.env_steps + layer("env.step", "errors"),
        "rl.train_step": unit.expected_updates,
        "replay.sample_batch": unit.expected_updates,
        "replay.push": unit.env_steps if training else 0,
        "cem.cem_rl_generation": unit.generations,
        "rollout.run_episode": 0 if unit.workload == "train-td3" else unit.episodes,
        "checkpoint.save_checkpoint": 2 if training else 0,
    }
    return [f"{name}.calls = {layer(name, 'calls')}, outputs imply {want}"
            for name, want in expected.items() if layer(name, "calls") != want]


def _layer_values(unit, layer) -> dict:
    """Per-layer metrics of one traced unit, except the pooled ones."""
    values = {}
    for name in ("terrain.height_at", "terrain.make_terrain", "env.step",
                 "env.contact_forces", "net.backward", "net.adam_step",
                 "replay.push", "replay.sample_batch", "rl.train_step",
                 "cem.cem_rl_generation", "rollout.run_episode",
                 "checkpoint.save_checkpoint"):
        values[f"{name}.calls"] = layer(name, "calls")
        values[f"{name}.self_s"] = layer(name, "self_s")
    b1, batch = "net.forward.b1", "net.forward.batch"
    values.update({
        "env.integrate.self_s": layer("env.integrate", "self_s"),
        "env.diverged": layer("env.step", "errors"),
        "net.forward.calls_b1": layer(b1, "calls"),
        "net.forward.calls_batch": layer(batch, "calls"),
        "net.forward.self_s": layer(b1, "self_s") + layer(batch, "self_s"),
        "net.polyak_blend.self_s": layer("net.polyak_blend", "self_s"),
        "net.forward_per_backward": (layer(batch, "calls")
                                     / max(1, layer("net.backward", "calls"))),
        "cem.coached_share": (unit.coached_generations / unit.generations
                              if unit.generations else 0.0),
        "evaluate.flat_distinct_trial_ratio": (
            unit.flat_distinct / unit.flat_trials if unit.flat_trials else 0.0),
        "train.budget_overshoot_ratio": (unit.env_steps / unit.budget
                                         if unit.budget else 0.0),
        "checkpoint.save_checkpoint.bytes": unit.checkpoint_bytes,
    })
    return values


def _unit_main(workload_name: str, input_seed: int, traced: bool) -> int:
    workloads = _import_workloads()
    workload = workloads.WORKLOADS[workload_name]
    workload.prepare()
    print("ready", flush=True)

    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    WORK_DIR.mkdir(exist_ok=True)
    out = tempfile.mkdtemp(prefix="unit-", dir=WORK_DIR)
    try:
        start = time.perf_counter()
        if tracer is None:
            unit = workload.run(input_seed, out)
        else:
            unit = tracer.span("run", workload.run, input_seed, out)
        unit.wall_s = time.perf_counter() - start
        workload.inspect(unit, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    record = dataclasses.asdict(unit)
    record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.summary()

        def layer(name, key):
            return spans[name][key] if name in spans else 0

        record["problems"] += _count_checks(unit, layer)
        record["layer"] = _layer_values(unit, layer)
        durations = spans.get("rl.train_step", {}).get("durations", [])
        record["train_step_ms"] = [d * 1e3 for d in durations]
        pushes = spans.get("replay.push", {}).get("durations", [])
        record["push_max_us"] = max(pushes, default=0.0) * 1e6
        record["spans"] = {name: [s["calls"], s["self_s"]]
                           for name, s in spans.items()}
    print(json.dumps(record))
    return 0


def _spawn_unit(workload_name: str, input_seed: int, traced: bool) -> dict:
    """Run one unit in a child process; a crash or a non-zero exit fails it."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload_name, "--unit", str(input_seed)]
    if traced:
        cmd.append("--traced")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        try:
            rest, _ = proc.communicate(timeout=UNIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            rest = ""
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        return {"input_seed": input_seed, "problems": [
            f"unit process exited with {proc.returncode} without a record"]}
    record = json.loads(lines[-1])
    record["setup_s"] = setup_s
    return record


# --- the benchmark process ----------------------------------------------------

def _until(deadline: float, inputs: list[int]):
    """Yield the inputs, stopping early if the next would end past deadline."""
    start = time.perf_counter()
    for done, seed in enumerate(inputs):
        elapsed = time.perf_counter() - start
        if done and elapsed + elapsed / done > deadline:
            return
        yield seed


def _check_same_outputs(first: dict, again: dict) -> None:
    """Fail the second run of an input if its artifacts differ from the first's."""
    if first["problems"] or again["problems"]:
        return
    if (first["digests"] != again["digests"]
            or first["env_steps"] != again["env_steps"]):
        again["problems"].append("artifacts or step count differ from the "
                                 "first run of this input")


def _timed(workload_name: str, inputs: list[int], deadline: float):
    """A unit on each input, then a repeat of the first."""
    units = []
    for seed in _until(deadline, inputs):
        units.append(_spawn_unit(workload_name, seed, False))
    repeat = _spawn_unit(workload_name, units[0]["input_seed"], False)
    _check_same_outputs(units[0], repeat)
    # Means over units, not medians: each unit is a different input, and
    # inputs differ more than repeats of one input do.
    good = [u for u in units if not u["problems"]]
    wall = sum(u["wall_s"] for u in good)
    ran = [u for u in units + [repeat] if not u["problems"]]
    metrics = {
        "setup_s": statistics.median(u["setup_s"] for u in ran) if ran else 0.0,
        "wall_s": wall / len(good) if good else 0.0,
        "env_steps_per_s": sum(u["env_steps"] for u in good) / wall if good else 0.0,
        "peak_rss_mb": statistics.median(u["maxrss_mb"] for u in ran) if ran else 0.0,
    }
    return units + [repeat], metrics


def _traced(workload_name: str, inputs: list[int], deadline: float):
    """An untraced then a traced run of each input."""
    units, pairs = [], []
    for seed in _until(deadline, inputs):
        plain = _spawn_unit(workload_name, seed, False)
        traced = _spawn_unit(workload_name, seed, True)
        units += [plain, traced]
        _check_same_outputs(plain, traced)
        if not plain["problems"] and not traced["problems"]:
            traced["layer"]["trace.overhead_ratio"] = (traced["wall_s"]
                                                       / plain["wall_s"])
            pairs.append(traced)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name in pairs[0]["layer"] if pairs else ():
        metrics[name] = statistics.fmean(p["layer"][name] for p in pairs)
    train_ms = [ms for p in pairs for ms in p["train_step_ms"]]
    if len(train_ms) >= 2:
        cuts = statistics.quantiles(train_ms, n=100)
        metrics["rl.train_step.p50_ms"] = cuts[49]
        metrics["rl.train_step.p99_ms"] = cuts[98]
    metrics["replay.push.max_us"] = max((p["push_max_us"] for p in pairs),
                                        default=0.0)
    _print_spans(pairs)
    return units, metrics


def _print_spans(pairs: list[dict]) -> None:
    """Where a traced run's time went, by self time, per traced run."""
    totals: dict[str, list[float]] = {}
    for pair in pairs:
        for name, (calls, self_s) in pair["spans"].items():
            total = totals.setdefault(name, [0.0, 0.0])
            total[0] += calls / len(pairs)
            total[1] += self_s / len(pairs)
    run_s = sum(self_s for _, self_s in totals.values())
    print(f"  {'span':28s} {'calls/run':>10s} {'self_s/run':>12s}  share")
    for name, (calls, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:28s} {calls:10.0f} {self_s:12.4f} {self_s / run_s:6.1%}")


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # A unit process, started by the benchmark process.
    parser.add_argument("--unit", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.unit is not None:
        return _unit_main(args.workload, args.unit, args.traced)
    if args.seed is None:
        parser.error("--seed is required")

    workloads = _import_workloads()
    import numpy as np
    env = {
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
    }
    # --seconds buys a fixed number of units, so that one seed always means
    # the same inputs; the repeat (or the traced twin) takes its share. Only
    # a machine much slower than the reference one hits the deadline.
    workload = workloads.WORKLOADS[args.workload]
    count = max(1, int(args.seconds / workload.unit_seconds) - 1)
    if args.trace:
        count = max(1, int(args.seconds / (2 * workload.unit_seconds)))
    inputs = list(itertools.islice(workload.inputs(args.seed), count))
    deadline = DEADLINE_FACTOR * args.seconds
    try:
        if args.trace:
            units, metrics = _traced(args.workload, inputs, deadline)
            units_of = PER_LAYER
        else:
            units, metrics = _timed(args.workload, inputs, deadline)
            units_of = END_TO_END
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    env["loadavg_after"] = list(os.getloadavg())

    failed = [u for u in units if u["problems"]]
    for unit in failed:
        for problem in unit["problems"]:
            print(f"FAIL input {unit['input_seed']}: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {len(units)}")
    for name, unit_name in units_of.items():
        print(f"  {name:36s} {metrics[name]:>14.6g} {unit_name}")
    print(f"  {'error_rate':36s} {len(failed) / len(units):>14.6g} ratio "
          f"({len(failed)} of {len(units)} units failed)")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(units),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit_name}
                    for name, unit_name in units_of.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
