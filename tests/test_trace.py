"""The package's spans: which functions carry one, and what a recorder sees."""

import hashlib
import importlib
import inspect
import pickle
from pathlib import Path

import quadrl
import quadrl.trace
from quadrl.config import parse_config
from quadrl.evaluate import report_csv, transfer_experiment
from quadrl.train import train

PACKAGE = Path(quadrl.__file__).resolve().parent
SPANS = {"env.step", "env.integrate",
         "net.forward", "net.layer_outputs", "net.backward", "net.adam_step",
         "net.polyak_blend", "replay.push", "replay.sample_batch",
         "rl.train_step", "cem.cem_rl_generation", "rollout.run_episode",
         "terrain.make_terrain", "checkpoint.save_checkpoint"}
SPANNED_CODE = quadrl.trace.span(lambda: None).__code__


def spanned_objects():
    """(owner, spanned function) for each function a quadrl module or one of
    its classes defines with a span."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"quadrl.{path.stem}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            owned = vars(value).values() if inspect.isclass(value) else [value]
            found += [(value, f) for f in owned
                      if getattr(f, "__code__", None) is SPANNED_CODE]
    return found


def test_the_span_set_is_pinned(monkeypatch):
    # A recorder that does not call fn returns the span's name instead.
    monkeypatch.setattr("quadrl.trace.recorder", lambda name, fn, args, kwargs: name)
    found = spanned_objects()
    assert {f() for _, f in found} == SPANS
    assert len(found) == len(SPANS)
    for owner, f in found:
        assert not hasattr(f, "__wrapped__"), f.__qualname__
        if not inspect.isclass(owner):
            assert pickle.loads(pickle.dumps(f)) is f


def test_without_a_recorder_a_span_only_calls_its_function():
    def add(a, b=0):
        """Adds."""
        return a + b

    spanned = quadrl.trace.span(add)
    assert quadrl.trace.recorder is None
    assert spanned(2, b=3) == 5
    assert (spanned.__name__, spanned.__qualname__, spanned.__doc__,
            spanned.__module__) == (add.__name__, add.__qualname__, "Adds.",
                                    __name__)


TINY_TD3 = """
t_max = 60
episodes = 6
warmup_steps = 50
rl.batch_size = 32
"""

TINY_CEM_TD3 = """
t_max = 20
generations = 3
cem.population_size = 4
cem.elite_count = 2
rl.batch_size = 16
"""


def run_all(out, spans=None):
    """Train tiny TD3 and CEM-TD3 runs, then a 3-trial transfer of the CEM-TD3
    checkpoint: the sha256 of every artifact, and per run its progress,
    config and, when a recorder is given, the span calls it made."""
    digests, runs = {}, {}
    for algo, text in (("td3", TINY_TD3), ("cem_td3", TINY_CEM_TD3)):
        if spans:
            spans.counts.clear()
        config = parse_config(text, algorithm=algo, out_dir=str(out / algo))
        ck, _ = train(config)
        runs[algo] = ck.progress, config, dict(spans.counts) if spans else {}
        for name in ("metrics.csv", "checkpoint.json", "checkpoint_best.json"):
            digests[algo, name] = hashlib.sha256(
                (out / algo / name).read_bytes()).hexdigest()
    if spans:
        spans.counts.clear()
    flat, rough, _ = transfer_experiment(ck, eval_seed=0, trials=3)
    runs["transfer"] = None, None, dict(spans.counts) if spans else {}
    digests["report"] = hashlib.sha256(report_csv([flat, rough]).encode()).hexdigest()
    return digests, runs


def test_a_recorder_changes_no_byte_and_counts_follow_the_rules(tmp_path, request):
    plain, _ = run_all(tmp_path / "plain")
    recorded, runs = run_all(tmp_path / "recorded", request.getfixturevalue("spans"))
    assert recorded == plain

    for algo in ("td3", "cem_td3"):
        progress, _, calls = runs[algo]
        assert calls["env.step"] == calls["replay.push"] == progress["env_steps"] > 0
    progress, config, calls = runs["td3"]
    skipped = max(config.warmup_steps, config.rl.batch_size - 1)
    assert calls["rl.train_step"] == progress["env_steps"] - skipped > 0
    progress, config, calls = runs["cem_td3"]
    assert calls["cem.cem_rl_generation"] == progress["generations"] == 3
    assert (calls["rollout.run_episode"]
            == progress["generations"] * config.cem.population_size)
    _, _, calls = runs["transfer"]
    assert calls["rollout.run_episode"] == 2 * 3
