"""Which functions in ``src/repro`` does any artifact reach?

Runs every ``repro figure``, every example, the ``benchmarks/`` suite,
``bench/run.py --quick`` and CI's CLI smoke commands in a temporary copy
of the checkout (so archive writes never touch it), with a
``sitecustomize`` profile hook on ``PYTHONPATH`` that logs each
``src/repro`` code object any process calls, pool workers included.
Prints how many functions and methods were reached and lists the rest
per file: deletion candidates, reached only by unit tests or by paths
the probe does not run, such as ``--metrics-out``.  Pools are capped at
two workers (``REPRO_WORKERS=2``, as in CI).  Standard library only;
about two minutes on two vCPUs::

    python3 tools/reachability.py            # probe this checkout
    python3 tools/reachability.py ../other   # probe another checkout
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile

HOOK = '''\
import os, sys, threading
_seen = set()
_log = open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt"), "a", buffering=1)
def _hook(frame, event, arg, _prefix=os.environ["REACH_SRC"]):
    if event == "call" and frame.f_code not in _seen:
        _seen.add(frame.f_code)
        if frame.f_code.co_filename.startswith(_prefix):
            _log.write(f"{frame.f_code.co_filename}:{frame.f_code.co_firstlineno}\\n")
sys.setprofile(_hook)
threading.setprofile(_hook)
'''

#: CI's CLI smoke commands (.github/workflows/ci.yml) as ``repro`` argv,
#: less its archive loop: every ``figure NAME --out`` runs anyway.
CI_SMOKE = [cmd.split() for cmd in (
    "figure fig08 --workers 2",
    "figure qosplane --fast",
    "export qosplane --fast qosplane.json",
    "figure stability --fast",
    "export stability --fast stability.json",
    "stability --steps 8 --controllers tango,pid --inputs step --json",
    "figure cluster --fast",
    "export cluster --fast cluster.json",
    "cluster --nodes 8 --shards 4 --tenants 2 --rounds 10 --workers auto --json",
    "cluster --nodes 8 --shards 4 --tenants 2 --rounds 10 --workers 1 --json",
)]


def defined_functions(src: str) -> dict[tuple[str, int], str]:
    """``(file, first line) -> qualified name`` of every def under ``src``;
    the first line is the first decorator's, as in ``co_firstlineno``."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(path, first)] = prefix + child.name
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, path, prefix + child.name + "." if scope else prefix)

    for dirpath, _, files in os.walk(src):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    walk(ast.parse(f.read()), os.path.relpath(path, src), "")
    return found


def main(argv: list[str]) -> int:
    root = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        copy, hook, out = (os.path.join(tmp, d) for d in ("repo", "hook", "out"))
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_build"))
        os.makedirs(hook)
        os.makedirs(out)
        with open(os.path.join(hook, "sitecustomize.py"), "w") as f:
            f.write(HOOK)
        src = os.path.join(copy, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([hook, src]), REACH_OUT=out,
                   REACH_SRC=os.path.join(src, "repro") + os.sep, REPRO_WORKERS="2")
        py = [sys.executable]
        figures = subprocess.run(py + ["-m", "repro", "list"], cwd=copy, env=env,
                                 capture_output=True, text=True, check=True).stdout.split()
        runs = [py + ["-m", "repro", "figure", name, "--out", f"{name}.txt"] for name in figures]
        examples = sorted(os.listdir(os.path.join(copy, "examples")))
        runs += [py + [f"examples/{name}"] for name in examples if name.endswith(".py")]
        # pytest-benchmark clears the profile hook while it times a body.
        runs.append(py + ["-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
                          "-p", "no:cacheprovider"])
        runs.append(py + ["bench/run.py", "--workload", "all", "--seed", "0", "--quick"])
        runs += [py + ["-m", "repro", *args] for args in CI_SMOKE]
        failed = []
        for cmd in runs:
            print("$", " ".join(cmd[1:]), file=sys.stderr, flush=True)
            if subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode:
                failed.append(" ".join(cmd[1:]))
        reached = set()
        for name in os.listdir(out):
            with open(os.path.join(out, name)) as f:
                for line in f:
                    path, _, first = line.strip().rpartition(":")
                    reached.add((os.path.relpath(path, src), int(first)))
        defined = defined_functions(src)
    unreached = sorted(set(defined) - reached)
    print(f"reached {len(defined) - len(unreached)}/{len(defined)} functions in src/")
    for path in sorted({p for p, _ in unreached}):
        names = [f"{defined[key]} (L{key[1]})" for key in unreached if key[0] == path]
        print(f"  src/{path}: {len(names)} unreached\n    " + "\n    ".join(names))
    for cmd in failed:
        print(f"FAILED: {cmd}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
