"""Run the Tier-1 suite under every Python that pyenv holds, offline.

    python tools/pymatrix.py [--list] [--pyenv-root DIR]

The interpreters are the version directories under the pyenv root
(`--pyenv-root`, else $PYENV_ROOT, else ~/.pyenv).  One below the
package's `requires-python` is listed and skipped.  Each other one is
probed for `import pytest`, with the test packages of the Python running
this script (pytest, hypothesis and their pure-Python dependencies) on
PYTHONPATH:

* if the probe passes, the script runs Tier-1's command from the repo
  root, `python -m pytest -q --continue-on-collection-errors` with
  PYTHONPATH=src:<those packages>, and prints its summary line and wall;
* if it fails (Python 3.10 lacks the `exceptiongroup` backport that
  pytest needs there), the script runs `goldenring.cli.main` over the argv
  of every SHA-256 pin table in tests/test_cli.py and compares the
  digests.  Then it runs the cold import check of
  `test_import_loads_no_numpy` (`COLD_IMPORT_CHECK` over `COLD_UNLOADED`
  in tests/test_package.py) in a `-S` child.  It reads the tables and the
  check with `ast.literal_eval`, so neither side imports pytest.

`--list` prints what each interpreter would run and starts none.  Each
line is tab-separated: version, interpreter path, then `check` or `skip:`
and the reason; a full run adds the result.  The exit status is 0 when
every run passed.  Nothing is downloaded or installed.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
_VERSION = re.compile(r"(\d+)\.(\d+)\.(\d+)")

# Run in the child interpreter: reads [[argv, digest], ...] on stdin, hashes
# each report as the pin tests do, and prints which ones differ.
_PIN_CHECK = r"""
import contextlib, hashlib, io, json, sys
from goldenring.cli import main
pins = json.load(sys.stdin)
bad = []
for argv, digest in pins:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--no-timestamp"])
    text = out.getvalue()
    if "--format" not in argv and code == 0:
        text = json.dumps(json.loads(text), indent=2) + "\n"
    if code != 0 or hashlib.sha256(text.encode()).hexdigest() != digest:
        bad.append(" ".join(argv))
print(json.dumps({"checked": len(pins), "bad": bad}))
"""


def required_python() -> tuple[int, int]:
    """The (major, minor) of `requires-python = ">=X.Y"` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def interpreters(pyenv_root: Path) -> list[tuple[str, Path, str | None]]:
    """(version, interpreter, reason to skip or None) for each version
    directory under the pyenv root, in version order."""
    floor = required_python()
    found = []
    versions = pyenv_root / "versions"
    for path in versions.iterdir() if versions.is_dir() else ():
        match = _VERSION.fullmatch(path.name)
        if not match:
            continue
        major, minor, _ = map(int, match.groups())
        exe = path / "bin" / f"python{major}.{minor}"
        if not exe.exists():
            skip = "no interpreter"
        elif (major, minor) < floor:
            skip = f"below requires-python >={floor[0]}.{floor[1]}"
        else:
            skip = None
        found.append((path.name, exe, skip))
    return sorted(found, key=lambda item: tuple(map(int, item[0].split("."))))


def pytest_site() -> str | None:
    """The directory the running Python imports pytest from, or None."""
    spec = importlib.util.find_spec("pytest")
    return None if spec is None or spec.origin is None else str(Path(spec.origin).parents[1])


def literals_in_test(filename: str, wanted) -> dict:
    """{name: value} of each module-level assignment in tests/FILENAME whose
    name `wanted` accepts, read with `ast.literal_eval`."""
    tree = ast.parse((ROOT / "tests" / filename).read_text(encoding="utf-8"))
    return {t.id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) for t in node.targets
            if isinstance(t, ast.Name) and wanted(t.id)}


def pin_tables() -> list[tuple[list[str], str]]:
    """(argv, digest) of every `*_SHA256` table in tests/test_cli.py."""
    tables = literals_in_test("test_cli.py", lambda name: name.endswith("_SHA256"))
    return [(list(argv), digest) for table in tables.values() for argv, digest in table.items()]


def _env(*paths: str | None) -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def run_tier1(exe: Path, packages: str) -> tuple[bool, str]:
    start = time.perf_counter()
    done = subprocess.run([str(exe), *TIER1], cwd=ROOT, env=_env("src", packages),
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    summary = lines[-1] if lines else done.stderr.strip()[-200:]
    return done.returncode == 0, f"tier1\t{summary}\twall {time.perf_counter() - start:.1f} s"


def run_pins(exe: Path) -> tuple[bool, str]:
    pins = pin_tables()
    done = subprocess.run([str(exe), "-c", _PIN_CHECK], cwd=ROOT, env=_env("src"),
                          input=json.dumps(pins), capture_output=True, text=True)
    if done.returncode != 0:
        return False, f"pins\tfailed: {done.stderr.strip()[-200:]}"
    result = json.loads(done.stdout)
    matched = result["checked"] - len(result["bad"])
    detail = "".join(f"; differs: {argv}" for argv in result["bad"])
    return not result["bad"], f"pins\t{matched} of {result['checked']} digests match{detail}"


def run_imports(exe: Path) -> tuple[bool, str]:
    names = {"COLD_IMPORT_CHECK", "COLD_UNLOADED"}
    check = literals_in_test("test_package.py", names.__contains__)
    done = subprocess.run([str(exe), "-S", "-c", check["COLD_IMPORT_CHECK"],
                           *check["COLD_UNLOADED"]],
                          cwd=ROOT, env=_env("src"), capture_output=True, text=True)
    if done.returncode != 0:
        return False, f"imports\tfailed: {done.stderr.strip()[-200:]}"
    loaded = json.loads(done.stdout)
    help_loads = "argparse" in loaded["help"]
    return not loaded["cold"] and help_loads, (
        f"imports\tcold call loads {', '.join(loaded['cold']) or 'none'} of COLD_UNLOADED;"
        f" --help loads argparse: {'yes' if help_loads else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="list the interpreters and what each would run; start none")
    parser.add_argument("--pyenv-root", type=Path,
                        default=Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")))
    args = parser.parse_args(argv)
    packages = pytest_site()
    ok = True
    for version, exe, skip in interpreters(args.pyenv_root):
        line = f"{version}\t{exe}\t{'skip: ' + skip if skip else 'check'}"
        if skip or args.list:
            print(line, flush=True)
            continue
        probe = subprocess.run([str(exe), "-c", "import pytest"], env=_env(packages),
                               capture_output=True)
        if probe.returncode == 0:
            passed, result = run_tier1(exe, packages)
        else:
            (pins_ok, pins), (imports_ok, imports) = run_pins(exe), run_imports(exe)
            passed, result = pins_ok and imports_ok, f"{pins}\t{imports}"
        ok = ok and passed
        print(f"{line}\t{result}\t{'ok' if passed else 'FAILED'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
