"""The benchmark's tracer wraps named package functions, and its workloads call
the package directly; each function must still exist with a signature that
binds every call."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracer  # noqa: E402


def test_tracer_installs_and_uninstalls_every_site():
    sites = tracer._sites()
    before = [vars(owner)[attr] for owner, attr, _ in sites]
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = [vars(owner)[attr] for owner, attr, _ in sites]
        assert all(w is not b for w, b in zip(wrapped, before))
    finally:
        t.uninstall()
    assert all(vars(owner)[attr] is b for (owner, attr, _), b in zip(sites, before))


def _subflow_calls(path: Path):
    """(line, callee, call node) for each call in `path` to a name imported
    from subflow or to a function of an imported subflow module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "subflow":
            for alias in node.names:
                obj = getattr(importlib.import_module(node.module), alias.name)
                bound = modules if inspect.ismodule(obj) else names
                bound[alias.asname or alias.name] = obj
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in names:
            yield node.lineno, names[fn.id], node
        elif (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
              and fn.value.id in modules):
            yield node.lineno, getattr(modules[fn.value.id], fn.attr), node


def test_perfbench_calls_bind_to_package_signatures():
    # the benchmark calls the package directly too, on paths (a traced run's
    # probes, a workload's set-up) that no other test reaches
    sites = [(path.name, *site) for path in sorted((ROOT / "perfbench").glob("*.py"))
             for site in _subflow_calls(path)]
    assert len(sites) >= 20
    for name, line, fn, call in sites:
        assert not any(isinstance(a, ast.Starred) for a in call.args), (name, line)
        assert all(k.arg is not None for k in call.keywords), (name, line)
        try:
            inspect.signature(fn).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"perfbench/{name}:{line}: {fn.__qualname__}: {exc}") from None


def test_perfbench_workload_configs_use_schema_keys():
    from perfbench import workloads
    from subflow import config
    for workload in workloads.WORKLOADS.values():
        unknown = set(workload().values(seed=1)) - set(config.SCHEMA)
        assert not unknown, (workload.name, sorted(unknown))
