"""Source hygiene checks on the quadrl package and its tests."""

import ast
import dataclasses
import importlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import quadrl
from quadrl.config import ALGORITHMS, CemHyperparams, RunConfig
from quadrl.env import RobotConfig
from quadrl.rl import RlHyperparams
from quadrl.terrain import KINDS, Ground

PACKAGE = Path(quadrl.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
SETTINGS_RECORDS = (RobotConfig, RlHyperparams, CemHyperparams, RunConfig, Ground)


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    # __init__.py imports names to re-export them, so it is skipped.
    found = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name != "__init__.py":
            unused = _unused_imports(ast.parse(path.read_text(), str(path)))
            if unused:
                found[f"{path.parent.name}/{path.name}"] = unused
    assert found == {}


def test_unused_import_check_sees_unused_names():
    tree = ast.parse("import os\nimport numpy as np\nfrom math import pi, tau\n"
                     "print(np.zeros(1), tau)\n")
    assert _unused_imports(tree) == ["line 1: os", "line 3: pi"]


def _unused_parameters(tree: ast.Module) -> list[str]:
    """Parameters of each function or lambda that its body never names.

    Any mention counts as a read, `del seed` included.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [arg.arg for arg in (*args.posonlyargs, *args.args,
                                          *args.kwonlyargs, args.vararg,
                                          args.kwarg) if arg]
            body = node.body if isinstance(node.body, list) else [node.body]
            named = {n.id for stmt in body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name)}
            name = getattr(node, "name", "lambda")
            found += [f"line {node.lineno}: {name}({param})"
                      for param in params if param not in named]
    return found


def test_no_unused_parameters():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        unused = _unused_parameters(ast.parse(path.read_text(), str(path)))
        if unused:
            found[path.name] = unused
    assert found == {}


def test_unused_parameter_check_sees_unread_names():
    tree = ast.parse("def f(a, b, *rest, c, **kw):\n    del b\n"
                     "    return lambda x, y: a + x\n")
    assert _unused_parameters(tree) == ["line 1: f(c)", "line 1: f(rest)",
                                        "line 1: f(kw)", "line 3: lambda(y)"]


def _restated_names(tree: ast.Module, names: tuple[str, ...]) -> list[str]:
    """Lines of the tuple, list and set literals that spell every one of
    `names`, a dash read as an underscore."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Tuple, ast.List, ast.Set))
            and set(names) <= {elt.value.replace("-", "_") for elt in node.elts
                               if isinstance(elt, ast.Constant)
                               and isinstance(elt.value, str)}]


def test_no_module_restates_the_terrain_kinds_or_algorithm_names():
    # Each list of names has one owner, which the CLI's choices and
    # evaluate's checks read, so a new kind or algorithm is added once.
    owners = {"terrain.py": KINDS, "config.py": ALGORITHMS}
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for owner, names in owners.items():
            restated = _restated_names(tree, names) if path.name != owner else []
            if restated:
                found[f"{path.name}: {owner}"] = restated
    assert found == {}


def test_restated_name_check_sees_either_spelling():
    tree = ast.parse('a = ["ddpg", "td3", "cem-ddpg", "cem-td3"]\n'
                     'b = {"td3", "cem_td3", "ddpg", "x", "cem_ddpg"}\n'
                     'c = ("ddpg", "td3")\nd = ("flat", "rough")\n')
    assert _restated_names(tree, ALGORITHMS) == ["line 1", "line 2"]
    assert _restated_names(tree, KINDS) == ["line 4"]


def _spelled_names(tree: ast.Module, names) -> list[str]:
    """Lines of the string constants that spell one of `names`, a dash read
    as an underscore."""
    return [f"line {line}" for line in sorted({
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.replace("-", "_") in names})]


def test_no_module_but_config_spells_an_algorithm_name():
    # config.ALGORITHMS states each algorithm's traits beside its name, so
    # no other module picks a code path by comparing names.
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "config.py":
            lines = _spelled_names(ast.parse(path.read_text(), str(path)), ALGORITHMS)
            if lines:
                found[path.name] = lines
    assert found == {}


def test_spelled_name_check_sees_either_spelling_of_one_name():
    tree = ast.parse('twin = algo == "td3"\nif algo in ("cem-ddpg", "x"):\n'
                     '    pass\n"""ddpg and td3 in a docstring"""\n'
                     'f(algorithm="cem_td3", td3=1)\n')
    assert _spelled_names(tree, ALGORITHMS) == ["line 1", "line 2", "line 5"]


def _step_bookkeeping(tree: ast.Module) -> list[str]:
    """Lines that push into a buffer (a call of a `push` attribute) or add a
    `.reward` into a running total (an augmented assignment reading one)."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "push"):
            found.append((node.lineno, "push"))
        elif isinstance(node, ast.AugAssign) and any(
                isinstance(n, ast.Attribute) and n.attr == "reward"
                for n in ast.walk(node.value)):
            found.append((node.lineno, "reward sum"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_only_the_step_loop_pushes_steps_or_sums_rewards():
    # rollout.episode_steps owns what a step adds to its episode, so training,
    # CEM fitness and evaluation push and sum an episode by one rule.
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "rollout.py":
            lines = _step_bookkeeping(ast.parse(path.read_text(), str(path)))
            if lines:
                found[path.name] = lines
    assert found == {}


def test_step_bookkeeping_check_sees_pushes_and_reward_sums():
    tree = ast.parse("buffer.push(o, a, r.reward, n, d)\ntotal += r.reward\n"
                     "total -= 0.5 * step.reward\nsteps += 1\npush(x)\n"
                     "rewards = batch.rewards\nreturn_ += r.rewards\n")
    assert _step_bookkeeping(tree) == ["line 1: push", "line 2: reward sum",
                                       "line 3: reward sum"]


def _defaults_never_passed(sources: dict[str, ast.Module],
                           callers: list[ast.Module]) -> list[str]:
    """Parameters with a default, of the functions in `sources`, that no
    call in `callers` passes, by keyword or by position.

    A call counts for every function of its name, a bare name or an
    attribute, and a class's name calls its ``__init__``; ``*args`` passes
    every position and ``**kwargs`` every keyword. A method's first
    parameter is bound, so its positions count from the second.
    """
    positions, keywords = {}, {}
    for tree in callers:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                count = (math.inf if any(isinstance(a, ast.Starred) for a in call.args)
                         else len(call.args))
                positions[name] = max(positions.get(name, 0), count)
                keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
    classes = {id(node): cls.name for tree in sources.values()
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    found = []
    for module, tree in sorted(sources.items()):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args, bound = node.args, int(id(node) in classes)
            name = classes[id(node)] if node.name == "__init__" else node.name
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            defaulted = [(i - bound, arg.arg) for i, arg in enumerate(positional)
                         if i >= first]
            defaulted += [(math.inf, arg.arg) for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults) if default]
            passed = keywords.get(name, set())
            found += [f"{module}: {name}({param})" for index, param in defaulted
                      if param not in passed and None not in passed
                      and positions.get(name, 0) <= index]
    return found


def test_every_default_is_overridden_somewhere():
    sources = {path.name: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    callers = [ast.parse(path.read_text(), str(path))
               for folder in (PACKAGE, TESTS, PERFBENCH)
               for path in sorted(folder.glob("*.py"))]
    assert _defaults_never_passed(sources, callers) == []


def test_default_check_sees_defaults_no_call_passes():
    sources = {"a.py": ast.parse(
        "def f(a, b=1, *, c=2, d=3):\n    pass\n\n"
        "class K:\n    def __init__(self, x=0):\n        pass\n\n"
        "    def m(self, y=0, z=1):\n        pass\n\n"
        "def g(p=0, q=1):\n    pass\n\ndef h(r=0):\n    pass\n")}
    callers = [ast.parse("f(1, 2)\nf(0, d=4)\nK(5)\nk.m(z=1)\ng(*rest)\n"
                         "h(**options)\n")]
    assert _defaults_never_passed(sources, callers) == ["a.py: f(c)", "a.py: m(y)"]


def _number_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _restated_defaults(tree: ast.Module, names: set[str],
                       owners: set[str]) -> list[str]:
    """Parameters, and class fields outside the classes in `owners`, named
    one of `names` whose default is a number literal."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name not in owners:
            pairs = [(f"{node.name}.{stmt.target.id}", stmt.target.id, stmt.value)
                     for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                     and isinstance(stmt.target, ast.Name) and stmt.value]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args, name = node.args, getattr(node, "name", "lambda")
            positional = [*args.posonlyargs, *args.args]
            defaulted = [*zip(positional[len(positional) - len(args.defaults):],
                              args.defaults), *zip(args.kwonlyargs, args.kw_defaults)]
            pairs = [(f"{name}({arg.arg})", arg.arg, default)
                     for arg, default in defaulted if default]
        else:
            continue
        found += [f"line {value.lineno}: {where}" for where, name, value in pairs
                  if name in names and _number_literal(value)]
    return found


def test_no_settings_default_is_written_twice():
    # A settings record owns each default, so a parameter or a dataclass
    # field of the same name reads it rather than restating it, and the two
    # cannot drift apart. A zero default is too common a number to own.
    names = {f.name for record in SETTINGS_RECORDS for f in dataclasses.fields(record)
             if type(f.default) in (int, float) and f.default != 0}
    owners = {record.__name__ for record in SETTINGS_RECORDS}
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        restated = _restated_defaults(ast.parse(path.read_text(), str(path)),
                                      names, owners)
        if restated:
            found[path.name] = restated
    assert found == {}


def test_restated_default_check_sees_parameters_and_fields():
    tree = ast.parse("def f(t_max=1000, gamma=0.5, *, tau=-0.005, seed=3, k=t_max):\n"
                     "    return lambda t_max=5: t_max\n\n"
                     "class Env:\n    t_max: int = 1000\n    tau: float = field(0.1)\n"
                     "    gamma = 0.9\n\n"
                     "class RunConfig:\n    t_max: int = 1000\n")
    assert _restated_defaults(tree, {"t_max", "gamma", "tau"}, {"RunConfig"}) == [
        "line 1: f(t_max)", "line 1: f(gamma)", "line 1: f(tau)",
        "line 5: Env.t_max", "line 2: lambda(t_max)"]


def _unnamed_public_functions(trees: dict[str, ast.Module],
                              exported: set[str]) -> list[str]:
    """Top-level public functions that no module names and none exports.

    A name counts where a module reads it (`f(...)`) or reads it as an
    attribute (`module.f`); an import alone does not count, so a function
    kept only for tests is found even where `__init__.py` imports it.
    """
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    return [f"{module}: {node.name}" for module, tree in sorted(trees.items())
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in named and node.name not in exported]


def test_every_public_function_is_run_or_exported():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert _unnamed_public_functions(trees, set(quadrl.__all__)) == []


def test_unnamed_function_check_sees_test_only_functions():
    trees = {"a.py": ast.parse("def used():\n    pass\n\ndef spare():\n    pass\n\n"
                               "def shipped():\n    pass\n\ndef _private():\n"
                               "    pass\n"),
             "b.py": ast.parse("from .a import spare, used\nimport a\n"
                               "used()\na.used\n")}
    assert _unnamed_public_functions(trees, {"shipped"}) == ["a.py: spare"]


def _unpickling_names(tree: ast.Module) -> list[str]:
    """Lines that import pickle or name numpy's `load`, which can unpickle."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.partition(".")[0] == "pickle"
                  or name in ("np.load", "numpy.load")]
    return found


def test_no_module_can_unpickle():
    # A terrain or checkpoint file is data; reading one must not run code.
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = _unpickling_names(ast.parse(path.read_text(), str(path)))
        if names:
            found[path.name] = names
    assert found == {}


def test_unpickling_check_sees_pickle_and_numpy_load():
    tree = ast.parse("import pickle\nimport numpy as np\nfrom pickle import loads\n"
                     "from numpy import load\nnp.load(f)\njson.load(f)\n"
                     "np.lib.format.read_magic(f)\n")
    assert _unpickling_names(tree) == ["line 1: pickle", "line 3: pickle.loads",
                                       "line 4: numpy.load", "line 5: np.load"]


def test_every_traced_name_resolves():
    # The benchmark's tracer rebinds these names; a refactor that drops one
    # would otherwise break only a traced benchmark run.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            importlib.import_module(f"quadrl.{path.stem}")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, module, attr in spans.TRACED:
            owner, key = spans._resolve(module, attr)
            assert hasattr(getattr(owner, key), "__wrapped__"), name
    finally:
        tracer.uninstall()
    for name, module, attr in spans.TRACED:
        owner, key = spans._resolve(module, attr)
        assert callable(getattr(owner, key)), name
        assert not hasattr(getattr(owner, key), "__wrapped__"), name


TINY_COACHED_CEM = """
t_max = 20
generations = 3
cem.population_size = 4
cem.elite_count = 2
rl.batch_size = 16
"""


def test_cem_training_does_not_import_numpy_ma(tmp_path):
    # A fresh interpreter, because pytest itself may have loaded numpy.ma.
    code = ("import sys\n"
            "from quadrl.config import parse_config\n"
            "from quadrl.train import train\n"
            f"cfg = parse_config({TINY_COACHED_CEM!r}, algorithm='cem_td3', "
            f"out_dir={str(tmp_path)!r})\n"
            "ck, _ = train(cfg)\n"
            "print(ck.progress['generations'], 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["3", "False"]
