"""Committed mutants of ``src/`` and the tests that must kill them.

Each mutant is an exact patch: a file of ``src/impulsegame``, the old text
(found there exactly once), the new text, and a pytest selector.  The
runner copies ``src/``, ``tests/``, ``configs/`` and ``pyproject.toml`` to
a temporary directory, requires every selector to pass on that clean
copy, then applies each patch alone and requires its selector to fail.
Add a PR's mutants here rather than describing them in prose.

Run from anywhere, with the interpreter that runs the tests::

    python tests/mutants.py

It exits 0 when every mutant is killed.  Pytest is not told to
collect this file: its name does not match ``test_*.py``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "pyproject.toml")
RUN_TIMEOUT_S = 120


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str           # relative to src/impulsegame
    old: str
    new: str
    selector: str       # pytest node id, relative to the repository root


MUTANTS = (
    Mutant("reset_reads_the_band_at_t_lo", "simulate.py",
           "if (jump := reset(located[2], x_new)) is None:",
           "if (jump := reset(terms[2], x_new)) is None:",
           "tests/test_simulate.py::test_mid_horizon_event_chain"),
    Mutant("post_event_step_keeps_the_flagged_steps_terms", "simulate.py",
           "t_cur, x_cur, terms = tau, ev.x_plus, located",
           "t_cur, x_cur = tau, ev.x_plus",
           "tests/test_simulate.py::test_long_horizon_rollouts_equal_bisection_rollouts"),
    Mutant("scan_returns_one_node_past_the_flag", "simulate.py",
           "return xs[:end], True",
           "return xs[:end + 1], True",
           "tests/test_simulate.py::test_scan_blocks_equal_fresh_sweep"),
    Mutant("admissibility_pairs_each_event_with_the_next_ones_thresholds", "simulate.py",
           "bands = zip(*(v.tolist() for v in policy.thresholds_at(taus)))",
           "bands = zip(*(v.tolist() for v in policy.thresholds_at(taus[1:])))",
           "tests/test_simulate.py::test_mid_horizon_event_chain"),
)


def copy_env(root):
    """The environment that imports ``impulsegame`` from the copy at ``root``."""
    return {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def pytest_run(root, selectors):
    """(passed, output tail) of one pytest run of ``selectors`` in the copy at ``root``."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selectors],
            cwd=root, env=copy_env(root), capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {RUN_TIMEOUT_S} s"
    return done.returncode == 0, "\n".join(done.stdout.strip().splitlines()[-3:])


def copy_tree(dest):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def imported_from(root):
    """The file ``import impulsegame`` loads with the copy's src/ on PYTHONPATH."""
    out = subprocess.run([sys.executable, "-c", "import impulsegame; print(impulsegame.__file__)"],
                         cwd=root, env=copy_env(root), capture_output=True, text=True, check=True)
    return Path(out.stdout.strip()).resolve()


def main():
    failures = []
    with tempfile.TemporaryDirectory(prefix="impulsegame-mutants-") as tmp:
        root = Path(tmp)
        copy_tree(root)
        package = root / "src" / "impulsegame"
        if imported_from(root) != (package / "__init__.py").resolve():
            print(f"the copy's package is not the one imported: {imported_from(root)}")
            return 2
        start = time.perf_counter()
        passed, tail = pytest_run(root, sorted({m.selector for m in MUTANTS}))
        print(f"clean copy: {'passes' if passed else 'FAILS'} ({time.perf_counter() - start:.1f} s)")
        if not passed:
            print(tail)
            return 1
        for m in MUTANTS:
            path = package / m.file
            clean = path.read_text()
            if clean.count(m.old) != 1:
                failures.append(m.name)
                print(f"{m.name}: the old text occurs {clean.count(m.old)} times in {m.file}")
                continue
            path.write_text(clean.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                passed, tail = pytest_run(root, [m.selector])
            finally:
                path.write_text(clean)
            print(f"{m.name}: {'SURVIVES' if passed else 'killed'} ({time.perf_counter() - start:.1f} s)")
            if passed:
                failures.append(m.name)
                print(tail)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
