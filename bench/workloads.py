"""The three benchmark workloads and their output checks.

Each workload is a closed loop with one caller.  `setup` builds what the
timed part needs; `round` yields the cases of one timed round as
(label, results, run) where `run()` returns one message per result whose
output check failed.  An exception raised by `run` fails all its results.

Check tolerances are those of the acceptance battery (tests/test_acceptance.py)
and of `spgs verify`.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

R = 30.0


class ProgramFailure(RuntimeError):
    """The CLI reported a configuration error (2) or a solver failure (3)."""


class Workload:
    """The spgs package, the seed and a scratch directory, shared by all workloads."""

    def __init__(self, spgs, seed: int, workdir: Path):
        self.spgs = spgs
        self.seed = seed
        self.rng = random.Random(seed)  # shuffles the case order of each round
        self.workdir = workdir


class Ground(Workload):
    """n=3000: constrained flow plus shooting on four nonlinearities.

    One result is one ground state certified by the criterion 3 identities
    and by criterion 4 (flow and shooting levels agree to 1e-3).
    """

    name = "ground"
    n = 3000
    cases = ((1.0, 3.0, 0.0), (1.0, 4.0, 0.0), (1.0, 5.0, 0.0), (20.0, 3.0, 1.0))

    def setup(self) -> None:
        self.grid = self.spgs.make_grid(R, self.n)
        self.nls = {c: self.spgs.canonical_family(*c) for c in self.cases}

    def round(self):
        for case in self.rng.sample(self.cases, len(self.cases)):
            yield _label(case), 1, lambda case=case: self._certify(case)

    def _certify(self, case) -> list[str]:
        spgs = self.spgs
        nl = self.nls[case]
        gs = spgs.minimize_on_M(nl, self.grid)
        w = spgs.shoot_ground_state(nl, self.grid)
        A = spgs.grad_norm_sq(gs.omega)
        p_pred = (2.0 * math.sqrt(3.0) / 9.0) * gs.M_value**1.5
        errs = {
            "constraint": (abs(spgs.functionals.V_value(gs.u, nl) - 1.0), 1e-8),
            "p_identity": (abs(gs.p_value - p_pred) / p_pred, 1e-6),
            "b_vs_A/3": (abs(gs.b_value - A / 3.0) / gs.b_value, 1e-4),
            "pohozaev": (abs(spgs.functionals.pohozaev_P(gs.omega, nl)) / A, 1e-4),
            "t_star": (abs(gs.t_star - 1.0), 1e-3),
            "flow_vs_shooting": (
                abs(spgs.energy(w, nl, 0.0).I_value - gs.b_value) / gs.b_value, 1e-3),
        }
        # the battery calibrates b = p to 1e-5 on the cubic model only; at
        # n=3000 the O(h^2) gap is 1.6e-5 for q=3 and 4.6e-5 for q=5
        if case == (1.0, 4.0, 0.0):
            errs["b_vs_p"] = (abs(gs.b_value - gs.p_value) / gs.p_value, 1e-5)
        bad = [f"{k} {v:.2e} > {tol:g}" for k, (v, tol) in errs.items() if not v <= tol]
        return [f"{_label(case)}: " + ", ".join(bad)] if bad else []


class Branch(Workload):
    """n=12000: continuation over 24 geometric lambda from 0.3 to 1e-3.

    The three ground states are part of set-up.  One result is one branch
    point, certified by its residual (<= tol), its relative Pohozaev residual
    (<= 1e-3) and the branch-wide energy ordering and H1 monotonicity.
    mu=20, q=3, cw=1 lies above the coupling threshold, yet find_t0 raises
    RangeFailure on R=30: its 24 points are kept as failures.
    """

    name = "branch"
    n = 12000
    cases = ((1.0, 4.0, 0.0), (1.0, 3.0, 0.0), (20.0, 3.0, 1.0))
    lambdas = tuple(float(x) for x in np.geomspace(0.3, 1e-3, 24))

    def setup(self) -> None:
        spgs = self.spgs
        self.grid = spgs.make_grid(R, self.n)
        self.nls = {c: spgs.canonical_family(*c) for c in self.cases}
        self.grounds = {c: spgs.minimize_on_M(nl, self.grid) for c, nl in self.nls.items()}

    def round(self):
        for case in self.rng.sample(self.cases, len(self.cases)):
            yield _label(case), len(self.lambdas), lambda case=case: self._certify(case)

    def _certify(self, case) -> list[str]:
        spgs = self.spgs
        nl = self.nls[case]
        tol = spgs.SolverOptions().tol
        branch = spgs.continuation(nl, self.lambdas, self.grounds[case])
        report = spgs.asymptotics_report(branch, nl)
        shared = [k for k, ok in (("energy_ordering", report.energy_ordering_ok),
                                  ("h1_dist_monotone", report.h1_dist_monotone)) if not ok]
        bad = []
        for p in branch.points:
            why = list(shared)
            if not p.grad_residual_norm <= tol:
                why.append(f"residual {p.grad_residual_norm:.2e}")
            if not p.pohozaev_res_rel <= 1e-3:
                why.append(f"pohozaev {p.pohozaev_res_rel:.2e}")
            if why:
                bad.append(f"{_label(case)} lambda={p.lam:.4g}: " + ", ".join(why))
        missing = len(self.lambdas) - len(branch.points)
        bad += [f"{_label(case)}: point missing"] * missing
        return bad


class Cli(Workload):
    """`spgs.cli.main` in-process: `verify` at the default config (n=3000)
    and `constants --q 2.5,3,4,5,5.5` at n=750.

    One result is one subcommand that exits 0 and whose checks pass: every
    verify.json check, and S within 1e-2 of its closed form.
    """

    name = "cli"
    q_list = "2.5,3,4,5,5.5"

    def setup(self) -> None:
        self.verify_cfg = self.workdir / "verify.cfg"
        self.verify_cfg.write_text(f"[output]\nseed = {self.seed}\n")
        self.constants_cfg = self.workdir / "constants.cfg"
        self.constants_cfg.write_text("[grid]\nn = 750\n")

    def round(self):
        yield "verify", 1, self._verify
        yield "constants", 1, self._constants

    def _main(self, argv, out_json: Path) -> int:
        out_json.unlink(missing_ok=True)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = self.spgs.cli.main(argv)
        if rc in (2, 3):
            raise ProgramFailure(f"{argv[-1]} exit code {rc}: {err.getvalue().strip()}")
        return rc

    def _verify(self) -> list[str]:
        out = self.workdir / "verify"
        rc = self._main(["--config", str(self.verify_cfg), "--output", str(out), "verify"],
                        out / "verify.json")
        if rc != 0:
            return [f"verify: exit code {rc}"]
        summary = json.loads((out / "verify.json").read_text())
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        if failed or not summary["passed"]:
            return ["verify: failed checks " + ", ".join(failed)]
        return []

    def _constants(self) -> list[str]:
        out = self.workdir / "constants"
        rc = self._main(["--config", str(self.constants_cfg), "--output", str(out),
                         "constants", "--q", self.q_list], out / "constants.json")
        if rc != 0:
            return [f"constants: exit code {rc}"]
        S = json.loads((out / "constants.json").read_text())["S"]["value"]
        closed = self.spgs.SOBOLEV_S_CLOSED_FORM
        err = abs(S - closed) / closed
        return [] if err <= 1e-2 else [f"constants: S rel err {err:.2e} > 1e-2"]


WORKLOADS = {w.name: w for w in (Ground, Branch, Cli)}


def _label(case) -> str:
    mu, q, cw = case
    return f"mu={mu:g},q={q:g},cw={cw:g}"
