"""List the functions of ``src/repro`` that no front-end run calls.

Runs the CLI, the `repro serve` smoke, the CLI-doc check and one
`repro.api` call under a temporary ``sitecustomize`` that records,
through ``sys.setprofile`` and ``threading.setprofile``, the first line
of every code object each process enters, then prints each function
no run entered, by module, with its line count and a total.  Pool
workers exit without recording; the ``--jobs 1`` runs cover them.  A
cold ``run all`` under the recorder takes minutes, so no test or CI
job runs this::

    python scripts/unreached.py
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

RECORDER = """\
import atexit, os, sys, threading

_calls = set()


def _record(frame, event, arg):
    if event == "call":
        _calls.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    name = os.path.join(os.path.dirname(__file__), f"calls-{os.getpid()}")
    with open(name, "w") as out:
        out.writelines(f"{c.co_filename}:{c.co_firstlineno}\\n" for c in _calls)


sys.setprofile(_record)
threading.setprofile(_record)
atexit.register(_dump)
"""

API_CALL = (
    "import repro.api as api; s = api.session(sample_strips=1, "
    "sample_steps=4); api.simulate('NCF', session=s); "
    "api.sweep(['NCF', 'SNLI'], session=s)"
)


def runs(tmp: Path) -> list[list[str]]:
    """The recorded commands, in order (the first fills the cache)."""
    repro = [sys.executable, "-m", "repro"]
    run_all = [*repro, "run", "all", "--jobs", "1", "--cache", str(tmp / "c")]
    ncf = [*repro, "run", "scaleout", "--models", "NCF", "--partition"]
    return [
        [*run_all, "--format", "json"],
        [*run_all, "--format", "json"],
        run_all,
        [*ncf, "model"],
        [*ncf, "pipeline"],
        [*repro, "run", "fig11", "--models", "NCF", "--memory-engine",
         "hierarchy"],
        [*repro, "list"],
        [sys.executable, "scripts/service_smoke.py", "--models", "NCF",
         "SNLI", "--jobs", "1", "--out", str(tmp / "smoke.json")],
        [sys.executable, "-m", "repro.harness.clidoc", "--check"],
        [sys.executable, "-c", API_CALL],
    ]


def functions(path: Path) -> list[tuple[int, str, int]]:
    """``(first line, qualified name, lines)`` of each function in a
    module, starting at its first decorator, as its code object does."""
    found = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            scope = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [
                    d.lineno for d in child.decorator_list])
                last = child.end_lineno or first
                found.append((first, prefix + child.name, last - first + 1))
                scope = f"{prefix}{child.name}."
            elif isinstance(child, ast.ClassDef):
                scope = f"{prefix}{child.name}."
            walk(child, scope)

    walk(ast.parse(path.read_text()), "")
    return found


def main() -> int:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        (tmp / "sitecustomize.py").write_text(RECORDER)
        paths = [str(tmp), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        for command in runs(tmp):
            print("recording:", *command[1:], file=sys.stderr, flush=True)
            subprocess.run(command, cwd=ROOT, env=env,
                           stdout=subprocess.DEVNULL, check=True)
        called = set()
        for record in sorted(tmp.glob("calls-*")):
            for line in record.read_text().splitlines():
                filename, _, first = line.rpartition(":")
                called.add((os.path.realpath(filename), int(first)))
    count = total = missed = 0
    for path in sorted(SRC.rglob("*.py")):
        defs = functions(path)
        never = [d for d in defs if (str(path), d[0]) not in called]
        count += len(defs)
        if never:
            print(path.relative_to(SRC.parent))
        for first, qualname, lines in never:
            print(f"  {first:5d}  {qualname}  ({lines} lines)")
            total += lines
            missed += 1
    print(f"{missed} of {count} functions ({total} lines) never called")
    return 0


if __name__ == "__main__":
    sys.exit(main())
