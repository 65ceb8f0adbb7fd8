"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

Every workload is a certified band solve or a study built from it.  The
seed only shapes the generated inputs (or the Lanczos start vector); the
library receives nothing else.  ``tiny`` variants run the same code paths
on 2x8-sized meshes for the benchmark's self-check.

Sizes are chosen so that a pass takes 1-8 s on a 2-core box: a comparison
runs every workload many times, and one run measures about 10 s: on a
shared host the speed drifts by a fifth over ten minutes, so a comparison
that ends sooner drifts less.  Each workload loads one mechanism of the
ROADMAP's perf items and bypasses another; BENCHMARK.json says which.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

import anisodg.cli
import anisodg.fields
import anisodg.spectrum
from anisodg.basis import BasisSpec
from anisodg.fields import CoefficientField, Harmonic
from anisodg.geometry import Alignment, FieldDirection, MeshConfig

REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: Seed at which reference.json records the inputs-dependent workloads.
DEFAULT_SEED = 0

#: Eigenvalues must match the reference and the run's first pass to this,
#: relative to the larger of the value and the band edge.
EIG_RTOL = 1e-10

#: The paper's constant-coefficient reference direction.
REF_B = FieldDirection(b1=1.165939761, b2=1.0)


def _write_field(path: Path, field: CoefficientField) -> None:
    lines = [f"mean {field.mean!r}"]
    lines += [f"{h.m} {h.n} {h.c_cos!r} {h.c_sin!r}" for h in field.harmonics]
    path.write_text("\n".join(lines) + "\n")


def _count_rows(path: Path) -> int:
    with open(path) as f:
        return sum(1 for _ in f) - 1


def band_eigenvalues(result) -> list[float]:
    """The certified band of a result; a full dense spectrum is cut at the
    band edge the study used."""
    sol, setup = result.solution, result.setup
    w = sol.eigenvalues
    if sol.method == "dense":
        w = w[w <= setup.omega_max_sq * max(setup.band_margin, 1.0)]
    return [float(x) for x in w]


def check_result(result) -> list[str]:
    """Certificate of one solve: band count against the LDL^T inertia and
    every residual against ``tolerance * ||A||``."""
    sol, failures = result.solution, []
    if sol.method != "dense" and sol.inertia_count != len(sol):
        failures.append(f"band count {len(sol)} != inertia {sol.inertia_count}")
    limit = result.setup.tolerance * max(sol.norm_a, np.finfo(float).tiny)
    if len(sol) and float(np.max(sol.residuals)) > limit:
        failures.append(f"residual {np.max(sol.residuals):.3e} > {limit:.3e}")
    return failures


def eigenvalues_differ(got: list[list[float]], want: list[list[float]]) -> str | None:
    """Why two per-solve band lists differ beyond EIG_RTOL, or None."""
    if [len(g) for g in got] != [len(w) for w in want]:
        return f"band counts {[len(g) for g in got]} != {[len(w) for w in want]}"
    for i, (g, w) in enumerate(zip(got, want)):
        if not g:
            continue
        g, w = np.asarray(g), np.asarray(w)
        scale = np.maximum(np.maximum(np.abs(g), np.abs(w)), np.max(np.abs(w)))
        err = np.abs(g - w) / scale
        if np.any(err > EIG_RTOL):
            return f"solve {i}: eigenvalue differs by {err.max():.2e} relative"
    return None


class Workload:
    """One named workload; subclasses set the inputs and the pass."""

    name = ""
    #: True when the seed cannot change the band (only the Lanczos start
    #: vector), so reference.json applies at every seed.
    seed_independent = False

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.tiny = tiny

    def prepare(self) -> None:
        """Generate the input files; part of the measured set-up."""
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def run_pass(self):
        """The timed work; returns what ``check_outputs`` needs."""
        raise NotImplementedError

    def check_outputs(self, out, results) -> list[str]:
        """Failures visible in the pass's outputs beyond each solve's
        certificate."""
        return []


class RefBand(Workload):
    name = "ref_band"
    seed_independent = True

    def setup(self):
        nx, ny, p = (2, 8, 2) if self.tiny else (8, 8, 4)
        one = CoefficientField.constant(1.0)
        return anisodg.spectrum.SolveSetup(
            mesh_config=MeshConfig(nx, ny, Alignment.BOTTOM_TOP, REF_B),
            spec=BasisSpec(p, p), alpha=one, beta=one, omega_max_sq=0.2,
            seed=self.seed)

    def prepare(self):
        super().prepare()
        self._setup = self.setup()

    def run_pass(self):
        return anisodg.spectrum.run_band_solve(self._setup)


def variable_fields(seed: int) -> tuple[CoefficientField, CoefficientField]:
    """alpha, beta = 1 + harmonics of amplitude <= 0.08: positive everywhere,
    and small enough to keep omega_max_sq inside the same spectral gap."""
    rng = np.random.default_rng(seed)

    def field(modes):
        amps = rng.uniform(-0.08, 0.08, size=(len(modes), 2))
        return CoefficientField(1.0, tuple(
            Harmonic(m, n, float(c), float(s)) for (m, n), (c, s) in zip(modes, amps)))

    return field([(1, 1), (1, -1), (0, 1)]), field([(0, 1), (1, 0)])


class VariableSparse(Workload):
    name = "variable_sparse"

    def prepare(self):
        super().prepare()
        alpha, beta = variable_fields(self.seed)
        self.alpha_file = self.work_dir / "alpha.txt"
        self.beta_file = self.work_dir / "beta.txt"
        _write_field(self.alpha_file, alpha)
        _write_field(self.beta_file, beta)
        nx, ny, p = (2, 8, 2) if self.tiny else (58, 16, 2)
        b = anisodg.fields.iota_profile(0.5)
        # omega_max_sq = 0.27 sits mid-gap between the 9th (0.23) and 10th
        # (0.31) eigenvalue at 58x16, so the seeded fields keep the count
        self._mesh = MeshConfig(nx, ny, Alignment.BOTTOM_TOP, b)
        self._spec = BasisSpec(p, p)

    def run_pass(self):
        alpha = anisodg.fields.load_field(self.alpha_file)
        beta = anisodg.fields.load_field(self.beta_file)
        setup = anisodg.spectrum.SolveSetup(
            mesh_config=self._mesh, spec=self._spec, alpha=alpha, beta=beta,
            omega_max_sq=0.27, seed=0)
        return anisodg.spectrum.run_band_solve(setup)


class _CliWorkload(Workload):
    """A CLI command run in-process from a generated config file."""

    command = ""

    def config(self) -> dict:
        raise NotImplementedError

    def prepare(self):
        super().prepare()
        self.out_dir = self.work_dir / "out"
        cfg = dict(self.config(), output_dir=str(self.out_dir))
        self.config_file = self.work_dir / f"{self.command}.cfg"
        self.config_file.write_text("".join(f"{k}={v}\n" for k, v in cfg.items()))

    def run_pass(self):
        return anisodg.cli.main([self.command, "--config", str(self.config_file)])

    def check_outputs(self, rc, results):
        if rc != anisodg.cli.EXIT_OK:
            return [f"CLI exited with {rc}"]
        return self.check_files(results)

    def check_files(self, results) -> list[str]:
        """CSV rows against the solved counts."""
        raise NotImplementedError


class FluxSweep(_CliWorkload):
    name = "flux_sweep"
    command = "sweep"
    SURFACES = 9

    def config(self):
        rng = np.random.default_rng(self.seed)
        edges = np.linspace(0.0, 1.0, self.SURFACES + 1)
        self.s_values = [float(rng.uniform(lo, hi))
                         for lo, hi in zip(edges[:-1], edges[1:])]
        alpha = CoefficientField(1.0, (Harmonic(1, 1, 0.1, 0.0),
                                       Harmonic(1, -1, 0.1, 0.0)))
        beta = CoefficientField(1.0, (Harmonic(0, 1, 0.1, 0.0),))
        _write_field(self.work_dir / "alpha.txt", alpha)
        _write_field(self.work_dir / "beta.txt", beta)
        nx, ny, p = (2, 8, 2) if self.tiny else (4, 8, 3)
        return {"nx": nx, "ny": ny, "p_xi": p, "p_eta": p, "alignment": "auto",
                "alpha_file": self.work_dir / "alpha.txt",
                "beta_file": self.work_dir / "beta.txt",
                "s_values": ",".join(repr(s) for s in self.s_values)}

    def check_files(self, results):
        if len(results) != self.SURFACES:
            return [f"{len(results)} solves for {self.SURFACES} surfaces"]
        failures = []
        for s, result in zip(sorted(self.s_values), results):
            path = self.out_dir / f"spectrum_s{s:.17g}.csv"
            if _count_rows(path) != len(result.solution):
                failures.append(f"{path.name}: {_count_rows(path)} rows, "
                                f"{len(result.solution)} solved")
        total = sum(len(r.solution) for r in results)
        if _count_rows(self.out_dir / "sweep.csv") != total:
            failures.append(f"sweep.csv rows != {total} solved")
        return failures


class ConvergenceStudy(_CliWorkload):
    name = "convergence_study"
    command = "convergence"
    seed_independent = True

    def config(self):
        levels = "1x4,2x8" if self.tiny else "2x8,4x16"
        p = 2 if self.tiny else 3
        return {"levels": levels, "p_xi": p, "p_eta": p, "alignment": "auto",
                "band_margin": 4.0, "seed": self.seed}

    def check_files(self, results):
        rows = _count_rows(self.out_dir / "convergence.csv")
        if rows != len(results):
            return [f"convergence.csv: {rows} rows, {len(results)} levels solved"]
        return []


WORKLOADS = {w.name: w for w in (RefBand, VariableSparse, FluxSweep,
                                 ConvergenceStudy)}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


@dataclasses.dataclass
class PassRecord:
    index: int
    traced: bool
    wall_s: float
    failures: list[str]
    eigenvalues: list[list[float]]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_pass(workload: Workload, out, results, first: PassRecord | None,
               reference: dict | None) -> tuple[list[str], list[list[float]]]:
    """All failures of one pass; a failed pass is counted, never dropped."""
    failures = workload.check_outputs(out, results)
    for result in results:
        failures += check_result(result)
    eigs = [band_eigenvalues(r) for r in results]
    if reference is not None:
        why = eigenvalues_differ(eigs, reference["eigenvalues"])
        if why:
            failures.append(f"reference: {why}")
    if first is not None and first.ok:
        why = eigenvalues_differ(eigs, first.eigenvalues)
        if why:
            failures.append(f"differs from pass {first.index}: {why}")
    return failures, eigs
