"""Docstring coverage of the simulator's public API.

Every module of ``repro.core``, ``repro.memory`` and ``repro.scale``
carries a docstring, and so does each public class and function it
defines: inside a class, its public methods, properties, static and
class methods, and nested classes.  The walk imports the modules and
reads the objects themselves, so a name bound to something defined
elsewhere (an import, an alias) is checked where it is defined.
"""

import dataclasses
import importlib
import inspect
import pkgutil

SCOPE = ("core", "memory", "scale")


def _modules():
    """Every module of the covered packages, the packages included."""
    for package in SCOPE:
        root = importlib.import_module(f"repro.{package}")
        yield root
        for info in pkgutil.walk_packages(root.__path__, f"{root.__name__}."):
            yield importlib.import_module(info.name)


def _class_doc(cls):
    """A class's own docstring; None when ``@dataclass`` generated it."""
    doc = cls.__dict__.get("__doc__")
    if dataclasses.is_dataclass(cls) and doc == cls.__name__ + str(
        inspect.signature(cls)
    ).replace(" -> None", ""):
        return None
    return doc


def _function(value):
    """The function behind a class attribute or module global, or None."""
    if isinstance(value, property):
        value = value.fget
    elif isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    value = inspect.unwrap(value)
    return value if inspect.isfunction(value) else None


def _members(namespace, module, prefix):
    """``(qualname, docstring)`` of the public objects a module or class
    defines, nested classes included."""
    for name, value in vars(namespace).items():
        if name.startswith("_"):
            continue
        qualname = prefix + name
        if inspect.isclass(value):
            if value.__module__ == module and value.__qualname__ == qualname:
                yield f"{module}:{qualname}", _class_doc(value)
                yield from _members(value, module, f"{qualname}.")
            continue
        func = _function(value)
        if (
            func is not None
            and func.__module__ == module
            and func.__qualname__ == qualname
        ):
            yield f"{module}:{qualname}", func.__doc__


def walk():
    """``(qualname, docstring)`` of every object the contract covers."""
    for module in _modules():
        yield module.__name__, module.__doc__
        yield from _members(module, module.__name__, "")


def test_walk_reaches_every_package_and_real_objects():
    names = {qualname for qualname, _doc in walk()}
    assert {name.split(":")[0].split(".")[1] for name in names} == set(SCOPE)
    assert "repro.core.accelerator:AcceleratorSimulator" in names
    assert "repro.core.workload:PhaseWorkload" in names


def test_every_public_object_is_documented():
    missing = [
        qualname for qualname, doc in walk() if not (doc and doc.strip())
    ]
    assert missing == []
