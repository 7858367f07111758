"""The README's library example runs against the current API, and every
dotted name it cites is a live cfotfs name."""

import importlib
import inspect
import pkgutil
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import cfotfs

README = Path(__file__).resolve().parents[1] / "README.md"

# A backticked span that is nothing but a dotted name, like
# `rate.Realization` or `LinkStats.beta`; code such as
# `paths.delay_taps[p, q, i]` is an example, not a citation.
DOTTED_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "Mbit/s" in capsys.readouterr().out


def cfotfs_roots() -> dict:
    """What a cited name may start with: the package, its modules and
    the classes they define."""
    modules = {info.name: importlib.import_module(f"cfotfs.{info.name}")
               for info in pkgutil.iter_modules(cfotfs.__path__)}
    roots = {"cfotfs": cfotfs, **modules}
    for module in modules.values():
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                roots[name] = value
    return roots


def resolves(name: str, roots: dict) -> bool:
    head, *attrs = name.split(".")
    if head not in roots:
        return False
    obj = roots[head]
    for attr in attrs:
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif is_dataclass(obj) and attr in {f.name for f in fields(obj)}:
            # A field without a default has no class attribute to follow.
            return attr == attrs[-1]
        else:
            return False
    return True


def test_readme_dotted_names_exist():
    cited = set(DOTTED_NAME.findall(README.read_text()))
    assert "rate.Realization" in cited
    roots = cfotfs_roots()
    assert sorted(name for name in cited if not resolves(name, roots)) == []


def test_dead_names_are_caught():
    roots = cfotfs_roots()
    for name in ("LinkStats.beta", "cfotfs.rate", "rate.Realization.terms",
                 "TermEstimates.empirical_sinr"):
        assert resolves(name, roots), name
    for name in ("rate.closed_form", "LinkStats.rho_p", "network.num_aps",
                 "IdentityReport.passed", "CdfTable.summary"):
        assert not resolves(name, roots), name
