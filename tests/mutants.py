"""Committed mutants of ``src/`` and the tests that must kill them.

Each mutant is an exact patch: a file of ``src/impulsegame``, the old text
(found there exactly once), the new text, and a pytest selector.  The
runner copies ``src/``, ``tests/``, ``configs/`` and ``pyproject.toml`` to
a temporary directory, requires every selector to pass on that clean
copy, then applies each patch alone and requires its selector to fail,
or, for a mutant listed as equivalent (with the reason it changes no
result), to pass.  Add a change's mutants here rather than describing
them in prose.

Run from anywhere, with the interpreter that runs the tests::

    python tests/mutants.py

It exits 0 when every mutant is killed and every equivalent one passes.
Pytest is not told to collect this file: its name does not match
``test_*.py``.
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
    equivalent: str = ""    # why the patch changes no result a test can see: its selector must pass


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
    # value_v1's batched sweep
    Mutant("sweep_skips_the_end_scan_certification", "simulate.py",
           "clear_lo, clear_hi = _clear(grid, lo), _clear(grid, hi)",
           "clear_lo = clear_hi = True",
           "tests/test_simulate.py::test_value_v1_certifies_its_run_by_the_scans_of_its_ends"),
    Mutant("sweep_squares_the_terminal_term_in_numpy", "simulate.py",
           "j1[done] += [0.5 * params.s1 * (v - params.rho1) ** 2 for v in x_T.tolist()]",
           "j1[done] += 0.5 * params.s1 * (x_T - params.rho1) ** 2",
           "tests/test_simulate.py::test_value_v1_equals_the_hook_bit_for_bit[table1]"),
    Mutant("sweep_drops_the_follower_cap_check", "simulate.py",
           "if target is not None and len(traj.events) <= least:",
           "if target is not None:",
           "tests/test_simulate.py::test_value_v1_holds_each_start_to_its_own_budget"),
    Mutant("sweep_drops_the_widest_box_cap_check", "simulate.py",
           "_cap(policy, float(xs[finite].min()), float(xs[finite].max()))",
           "pass",
           "tests/test_simulate.py::test_value_v1_holds_each_start_to_its_own_budget"),
    # the rollout's start
    Mutant("cap_box_without_its_margin", "simulate.py",
           "StateBox(min(float(policy.ell1.min()), lo) - 1.0,\n"
           "                                                 max(float(policy.ell2.max()), hi) + 1.0)",
           "StateBox(min(float(policy.ell1.min()), lo), max(float(policy.ell2.max()), hi))",
           "tests/test_simulate.py::test_a_starts_budget_is_its_box_bound"),
    Mutant("t0_jump_reads_node_1s_band", "simulate.py",
           "if (jump := reset(grid.terms(0)[2], x0)) is not None:",
           "if (jump := reset(grid.terms(1)[2], x0)) is not None:",
           "tests/test_simulate.py::test_boundary_start_fires_immediately"),
    # dp_oracle_v2's two-winner layers
    Mutant("oracle_keeps_a_stale_tail", "verify.py",
           "if p != p_tail:",
           "if p_tail < 0:",
           "tests/test_verify.py::test_dp_oracle_equals_dense_layers[200-]"),
    Mutant("oracle_keeps_a_stale_head", "verify.py",
           "if q != q_head:",
           "if q_head < 0:",
           "tests/test_verify.py::test_dp_oracle_equals_dense_layers[200-]"),
    Mutant("oracle_gap_ends_at_p", "verify.py",
           "jump[q:p + 1] = np.inf",
           "jump[q:p] = np.inf",
           "tests/test_verify.py::test_dp_oracle_equals_dense_layers[200-]"),
    Mutant("oracle_tail_starts_at_p_plus_2", "verify.py",
           "np.add(cont[p], tail[p + 1:], out=jump[p + 1:])",
           "np.add(cont[p], tail[p + 2:], out=jump[p + 2:])",
           "tests/test_verify.py::test_dp_oracle_equals_dense_layers[200-]"),
    Mutant("oracle_tail_targets_p_plus_1", "verify.py",
           "np.add(cont[p], tail[p + 1:], out=jump[p + 1:])",
           "np.add(cont[min(p + 1, nx)], tail[p + 1:], out=jump[p + 1:])",
           "tests/test_verify.py::test_dp_oracle_equals_dense_layers[200-]"),
    Mutant("oracle_drops_the_gap", "verify.py",
           "            jump[q:p + 1] = np.inf\n",
           "",
           "tests/test_verify.py::test_dp_oracle_equals_dense_layers[200-]"),
    Mutant("oracle_drops_the_d_rounding_bound", "verify.py",
           "                and params.D > _ROUNDING * max(abs(below[0]), abs(below[p])) + slack_d\n",
           "",
           "tests/test_verify.py::test_dp_oracle_equals_dense_layers_at_tiny_fixed_costs[3.0-1e-15-100]"),
    Mutant("oracle_drops_the_c_rounding_bound", "verify.py",
           "\n                and params.C > _ROUNDING * max(abs(above[0]), abs(above[r])) + slack_c):",
           "):",
           "tests/test_verify.py::test_dp_oracle_equals_dense_layers_at_tiny_fixed_costs[1e-15-5.0-100]"),
    Mutant("oracle_tail_starts_at_p", "verify.py",
           "np.add(cont[p], tail[p + 1:], out=jump[p + 1:])",
           "np.add(cont[p], tail[p:], out=jump[p:])",
           "tests/test_verify.py::test_dp_oracle_equals_dense_layers[200-]",
           equivalent="node p's jump to itself scores cont[p] + D >= cont[p], which never "
                      "beats waiting"),
    Mutant("oracle_drops_the_q_le_p_check", "verify.py",
           "if (q <= p and _falls_to(",
           "if (_falls_to(",
           "tests/test_verify.py::test_dp_oracle_equals_dense_layers[200-]",
           equivalent="w[p] <= w[q] and v[q] <= v[p] give (c + d)*(y_q - y_p) <= 0, so q <= p "
                      "but where w and v tie within rounding, a layer no test reaches"),
    # the two-winner layers' fall checks
    Mutant("oracle_falls_on_ties", "verify.py",
           "np.less(w[1:p + 1], w[:p], out=buf[:p])",
           "np.less_equal(w[1:p + 1], w[:p], out=buf[:p])",
           "tests/test_verify.py::test_prefix_argmins_equals_running_argmin"),
    Mutant("oracle_fall_check_one_short", "verify.py",
           "return np.count_nonzero(buf[:p]) == p",
           "return np.count_nonzero(buf[:max(p - 1, 0)]) == max(p - 1, 0)",
           "tests/test_verify.py::test_prefix_argmins_equals_running_argmin"),
    Mutant("oracle_fall_check_takes_any_fall", "verify.py",
           "return np.count_nonzero(buf[:p]) == p",
           "return np.count_nonzero(buf[:p]) > 0 or p == 0",
           "tests/test_verify.py::test_prefix_argmins_equals_running_argmin"),
    Mutant("oracle_skips_the_below_fall_check", "verify.py",
           "_falls_to(below, p, falls) and _falls_to(above, r, falls)",
           "_falls_to(above, r, falls)",
           "tests/test_verify.py::test_dp_oracle_falls_back_on_non_unimodal_layers"),
    Mutant("oracle_skips_the_above_fall_check", "verify.py",
           "_falls_to(below, p, falls) and _falls_to(above, r, falls)",
           "_falls_to(below, p, falls)",
           "tests/test_verify.py::test_dp_oracle_falls_back_on_non_unimodal_layers"),
    # the intervention operator's argmin shortcut
    Mutant("prefix_argmins_never_shortcut", "verify.py",
           "if falls.argmin(axis=-1, keepdims=True).tolist() == p.tolist():",
           "if False:",
           "tests/test_verify.py::test_run_verification_takes_the_operator_shortcut_on_every_row"
           "[table1]"),
    Mutant("prefix_argmins_always_shortcut", "verify.py",
           "if falls.argmin(axis=-1, keepdims=True).tolist() == p.tolist():",
           "if True:",
           "tests/test_verify.py::test_prefix_argmins_equals_running_argmin"),
    Mutant("prefix_argmins_falls_on_ties", "verify.py",
           "np.less(w[..., 1:], w[..., :-1], out=falls[..., :-1])",
           "np.less_equal(w[..., 1:], w[..., :-1], out=falls[..., :-1])",
           "tests/test_verify.py::test_prefix_argmins_equals_running_argmin"),
    # exact costs between nodes
    Mutant("quadratics_at_drops_the_partial_cell", "riccati.py",
           "big_f[k] + gauss_sum(h, f), big_fm[k] + gauss_sum(h, fm))",
           "big_f[k], big_fm[k])",
           "tests/test_riccati.py::test_quadratics_at_is_exact_between_nodes[table1_T200]"),
    Mutant("costs_from_skips_the_t1_evaluation", "simulate.py",
           "            if seg_t[0] < t1:\n"
           "                a1, a2 = _values(*_quadratics_by_time(self._path, [t1])[t1], "
           "self.state_at(t1))\n",
           "",
           "tests/test_simulate.py::test_long_horizon_costs_equal_reference[table1_T200-x0s0]"),
    Mutant("event_free_drops_the_phi_sign_guard", "simulate.py",
           "if not (np.all(phi > 0.0) and all(np.isfinite(a).all() for a in (phi, shift, ell1, ell2))):",
           "if not all(np.isfinite(a).all() for a in (phi, shift, ell1, ell2)):",
           "tests/test_simulate.py::test_value_v1_certifies_its_run_by_the_scans_of_its_ends",
           equivalent="each node state fl(Phi*fl(c + H)) is monotone in x whatever the signs of "
                      "Phi at t0 and at the node, so the run's two end scans still bound it"),
    Mutant("event_free_keeps_a_failing_high_end", "simulate.py",
           "            run &= xs < hi\n",
           "",
           "tests/test_simulate.py::test_value_v1_gives_way_where_the_high_ends_scan_fails[flagged]"),
    # the CSV writer
    Mutant("write_csv_keeps_an_old_tail", "cli.py",
           "        fh.truncate()\n",
           "",
           "tests/test_cli.py::test_write_csv_over_an_existing_file_leaves_a_fresh_writes_bytes"),
    Mutant("words_scale_the_corrected_cells_once", "cli.py",
           'return a * _POW10.take(k, mode="clip") * _POW10.take(k - 22, mode="clip")',
           'return a * _POW10.take(k, mode="clip")',
           "tests/test_format.py::test_values_whose_float32_exponent_estimate_misses"),
    # input checks
    Mutant("rollout_grid_has_no_cell_limit", "simulate.py",
           " and T / step < MAX_CELLS",
           "",
           "tests/test_simulate.py::test_bad_rollout_input_is_value_error_naming_it"
           "[0.0-5.0-1e-300-step-rollout]"),
    Mutant("admissibility_allows_an_event_at_T", "simulate.py",
           "        if ev.tau >= T:\n"
           "            violations.append(f\"event {i}: tau={ev.tau!r} not strictly before T\")\n",
           "",
           "tests/test_simulate.py::test_admissibility_rejects_interior_event"),
    Mutant("theta_zero_unchecked", "riccati.py",
           "    if theta == 0.0:\n"
           "        raise DegenerateParameterError(\"theta = 0: control has no authority\")\n",
           "",
           "tests/test_riccati.py::test_degenerate_parameters_name_their_cause[theta_zero]"),
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
                failures.append(m)
                print(f"{m.name}: the old text occurs {clean.count(m.old)} times in {m.file}")
                continue
            path.write_text(clean.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                passed, tail = pytest_run(root, [m.selector])
            finally:
                path.write_text(clean)
            if m.equivalent:
                verdict = "passes (equivalent)" if passed else "FAILS, though listed as equivalent"
            else:
                verdict = "SURVIVES" if passed else "killed"
            print(f"{m.name}: {verdict} ({time.perf_counter() - start:.1f} s)")
            if passed != bool(m.equivalent):
                failures.append(m)
                print(tail)
    killable = [m for m in MUTANTS if not m.equivalent]
    equivalent = [m for m in MUTANTS if m.equivalent]
    print(f"{sum(m not in failures for m in killable)} of {len(killable)} mutants killed, "
          f"{sum(m not in failures for m in equivalent)} of {len(equivalent)} equivalent ones pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
