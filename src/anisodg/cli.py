"""Configuration-driven command line front end.

Commands: ``solve``, ``convergence``, ``compare``, ``sweep``,
``exact-spectrum``.  Options live in a flat ``key=value`` config file
('#' comments allowed) and can be overridden per key on the command line
(``--key value``).  All floating point output uses 17 significant digits,
and identical configurations produce byte-identical CSV files.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys
from dataclasses import dataclass, fields as dc_fields
from functools import cache
from pathlib import Path

from .assembly import AssemblyError
from .basis import BasisSpec
from .eigensolve import CompletenessError
from .fields import CoefficientField, FieldFileError, iota_profile, load_field
from .geometry import Alignment, FieldDirection, MeshConfig, choose_alignment
from .spectrum import (SolveSetup, compare_band_errors, convergence_study,
                       exact_spectrum, max_band_mode_error, run_band_solve)

log = logging.getLogger("anisodg")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


def _fmt(value: float) -> str:
    return f"{value:.17g}"


@dataclass
class RunConfig:
    """Effective option set; defaults reproduce the constant-coefficient
    reference configuration (aligned 8x8 mesh, degree 7x7 basis,
    b = (1.165939761, 1))."""

    nx: int = 8
    ny: int = 8
    alignment: str = "auto"
    b1: float = 1.165939761
    b2: float = 1.0
    s: float = -1.0          # flux label in [0, 1]; negative means "use b1,b2"
    p_xi: int = 7
    p_eta: int = 7
    eta_s: float = 6.0
    omega_max_sq: float = 0.2
    m_max: int = 20
    n_max: int = 20
    alpha_file: str = ""
    beta_file: str = ""
    output_dir: str = "."
    tolerance: float = 1e-10
    seed: int = 0
    n_quad: int = 0          # 0 = degree-based default
    band_margin: float = 1.0
    dump_matrix: int = 0
    levels: str = ""         # convergence: e.g. "2x8,4x16,8x32"
    s_values: str = ""       # sweep: e.g. "0,0.5,1"
    cmp_alignment: str = "cartesian"
    cmp_nx: int = 0          # 0 = same as nx
    cmp_ny: int = 0
    cmp_p_xi: int = -1       # -1 = same as p_xi
    cmp_p_eta: int = -1

    def to_text(self) -> str:
        return "".join(f"{f.name}={getattr(self, f.name)}\n"
                       for f in dc_fields(self))

    # -- derived objects ---------------------------------------------------

    def field_direction(self) -> FieldDirection:
        try:
            if self.s >= 0.0:
                return iota_profile(self.s)
            return FieldDirection(b1=self.b1, b2=self.b2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def resolve_alignment(self, name: str, b: FieldDirection) -> Alignment:
        if name == "auto":
            return choose_alignment(b)
        try:
            return Alignment(name)
        except ValueError as exc:
            raise ConfigError(f"unknown alignment {name!r}") from exc

    def mesh_config(self, b: FieldDirection | None = None) -> MeshConfig:
        b = b or self.field_direction()
        try:
            return MeshConfig(nx=self.nx, ny=self.ny,
                              alignment=self.resolve_alignment(self.alignment, b),
                              b=b)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def basis_spec(self) -> BasisSpec:
        try:
            return BasisSpec(p_xi=self.p_xi, p_eta=self.p_eta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def coefficient(self, path: str) -> CoefficientField:
        if not path:
            return CoefficientField.constant(1.0)
        return load_field(path)

    def setup(self, b: FieldDirection | None = None) -> SolveSetup:
        return self._setup(b, self.coefficient)

    def _setup(self, b: FieldDirection | None, coefficient) -> SolveSetup:
        """``setup``, with ``coefficient`` giving the field of a file name."""
        if self.omega_max_sq <= 0.0:
            raise ConfigError("omega_max_sq must be > 0")
        if self.tolerance <= 0.0:
            raise ConfigError("tolerance must be > 0")
        if self.m_max < 0 or self.n_max < 0:
            raise ConfigError("mode bounds must be >= 0")
        return SolveSetup(
            mesh_config=self.mesh_config(b),
            spec=self.basis_spec(),
            alpha=coefficient(self.alpha_file),
            beta=coefficient(self.beta_file),
            eta_s=self.eta_s,
            omega_max_sq=self.omega_max_sq,
            m_max=self.m_max, n_max=self.n_max,
            tolerance=self.tolerance,
            seed=self.seed,
            n_quad=self.n_quad or None,
            band_margin=self.band_margin)


def parse_config_file(path: str | Path) -> dict[str, str]:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def build_config(config_file: str | None, overrides: dict[str, str]) -> RunConfig:
    field_types = {f.name: f.type for f in dc_fields(RunConfig)}
    casts = {"int": int, "float": float, "str": str}
    merged: dict[str, object] = {}
    sources = []
    if config_file:
        sources.append(parse_config_file(config_file))
    sources.append(overrides)
    for source in sources:
        for key, val in source.items():
            if key not in field_types:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                merged[key] = casts[field_types[key]](val)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {val!r}") from exc
            if field_types[key] == "float" and not math.isfinite(merged[key]):
                raise ConfigError(f"bad value for {key!r}: {val!r} is not finite")
    return RunConfig(**merged)


def echo_config(config: RunConfig) -> None:
    for line in config.to_text().strip().splitlines():
        log.info("config %s", line)


# ---------------------------------------------------------------------------
# CSV output


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(row + "\n")
    log.info("wrote %s (%d rows)", path, len(rows))


SPECTRUM_HEADER = "index,omega2_computed,m,n,amplitude,omega2_exact,error,error_kind"


def _spectrum_rows(result) -> list[str]:
    rows = []
    for r in result.assoc:
        exact = _fmt(r.omega2_exact) if r.omega2_exact is not None else ""
        err = _fmt(r.error) if r.error is not None else ""
        rows.append(f"{r.index},{_fmt(r.omega2_computed)},{r.mode[0]},{r.mode[1]},"
                    f"{_fmt(r.amplitude)},{exact},{err},{r.error_kind}")
    return rows


def _log_solve(result) -> None:
    log.info("DoF=%d nnzA=%.4f%% band count=%d", result.setup.dof(),
             result.nnz_percent, len(result.solution))
    if result.exact is not None:
        max_err, missing = max_band_mode_error(result)
        log.info("max band error=%s (missing modes: %d)", _fmt(max_err), missing)


# ---------------------------------------------------------------------------
# commands


def cmd_solve(config: RunConfig) -> int:
    result = run_band_solve(config.setup())
    out = Path(config.output_dir)
    _write_csv(out / "spectrum.csv", SPECTRUM_HEADER, _spectrum_rows(result))
    _log_solve(result)
    if config.dump_matrix:
        with open(out / "matrix_a.txt", "w") as f:
            result.a_matrix.dump_coordinate(f)
        log.info("wrote %s", out / "matrix_a.txt")
    return EXIT_OK


def _parse_levels(text: str, nx: int, ny: int) -> list[tuple[int, int]]:
    if not text:
        return [(nx * 2**k, ny * 2**k) for k in range(3)]
    levels = []
    for item in text.split(","):
        try:
            a, _, b = item.strip().partition("x")
            levels.append((int(a), int(b)))
        except ValueError as exc:
            raise ConfigError(f"bad level {item!r} (expected NXxNY)") from exc
        if min(levels[-1]) < 1:
            raise ConfigError(f"bad level {item!r} (cell counts must be >= 1)")
    if len(levels) < 2:
        raise ConfigError(f"levels {text!r}: need at least two refinement levels")
    return levels


def cmd_convergence(config: RunConfig) -> int:
    levels = _parse_levels(config.levels, config.nx, config.ny)
    setup = config.setup()
    if not setup.constant_coefficients:
        raise ConfigError("convergence studies need constant coefficients "
                          "(exact band errors)")
    rows = convergence_study(setup, levels,
                             band_margin=max(config.band_margin, 4.0))
    lines = [f"{r.level},{r.nx},{r.ny},{r.dof},{_fmt(r.max_band_error)},{_fmt(r.slope)}"
             for r in rows]
    _write_csv(Path(config.output_dir) / "convergence.csv",
               "level,Nx,Ny,DoF,max_band_error,slope", lines)
    return EXIT_OK


def cmd_compare(config: RunConfig) -> int:
    b = config.field_direction()
    setup_a = config.setup(b)
    if not setup_a.constant_coefficients:
        raise ConfigError("alignment comparison needs constant coefficients")
    cmp_nx = config.cmp_nx or config.nx
    cmp_ny = config.cmp_ny or config.ny
    cmp_p_xi = config.p_xi if config.cmp_p_xi < 0 else config.cmp_p_xi
    cmp_p_eta = config.p_eta if config.cmp_p_eta < 0 else config.cmp_p_eta
    dof_a = setup_a.dof()
    dof_b = (cmp_p_xi + 1) * cmp_nx * (cmp_p_eta + 1) * cmp_ny
    if dof_a != dof_b:
        raise ConfigError(f"comparison sides differ in DoF: {dof_a} vs {dof_b}")
    try:
        cmp_mesh = MeshConfig(nx=cmp_nx, ny=cmp_ny,
                              alignment=config.resolve_alignment(config.cmp_alignment, b),
                              b=b)
        cmp_spec = BasisSpec(p_xi=cmp_p_xi, p_eta=cmp_p_eta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    margin = max(config.band_margin, 2.0)
    setup_a = dataclasses.replace(setup_a, band_margin=margin)
    setup_b = dataclasses.replace(setup_a, mesh_config=cmp_mesh, spec=cmp_spec)
    result_a = run_band_solve(setup_a)
    result_b = run_band_solve(setup_b)
    rows = compare_band_errors(result_a, result_b)
    lines = [f"{r.mode[0]},{r.mode[1]},{_fmt(r.omega2_exact)},{_fmt(r.error_a)},"
             f"{_fmt(r.error_b)},{_fmt(r.improvement_decades)}" for r in rows]
    _write_csv(Path(config.output_dir) / "compare.csv",
               "m,n,omega2_exact,error_a,error_b,improvement_decades", lines)
    return EXIT_OK


def _parse_s_values(text: str) -> list[float]:
    if not text:
        raise ConfigError("sweep needs s_values (e.g. --s_values 0,0.5,1)")
    try:
        values = [float(item) for item in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad s_values {text!r}") from exc
    for s in values:
        if not 0.0 <= s <= 1.0:
            raise ConfigError(f"flux label {s} outside [0, 1]")
    return values


def cmd_sweep(config: RunConfig) -> int:
    s_values = sorted(_parse_s_values(config.s_values))

    # each distinct field file is read and checked once per sweep, before
    # any solve starts
    fields: dict[str, CoefficientField] = {}

    def coefficient(path: str) -> CoefficientField:
        if path not in fields:
            fields[path] = config.coefficient(path)
        return fields[path]

    setups = []
    for s in s_values:
        # an "{s}" placeholder in the field file names selects
        # per-surface coefficient files; otherwise the files are shared
        surface_config = dataclasses.replace(
            config,
            alpha_file=config.alpha_file.replace("{s}", repr(s)),
            beta_file=config.beta_file.replace("{s}", repr(s)))
        setups.append(surface_config._setup(iota_profile(s), coefficient))

    # one surface at a time: its CSV is written and its result dropped
    # before the next solve, so memory stays flat in the surface count; a
    # failed solve leaves the CSVs of the surfaces before it, no sweep.csv
    out = Path(config.output_dir)
    combined = []
    previous: list | None = None
    prev_s = None
    for s, setup in zip(s_values, setups):
        result = run_band_solve(setup)
        _write_csv(out / f"spectrum_s{_fmt(s)}.csv", SPECTRUM_HEADER,
                   _spectrum_rows(result))
        modes = [r.mode for r in result.assoc]
        if previous is not None:
            # association switches between neighbouring surfaces are expected
            # near branch crossings; report them rank by rank
            for rank, (a, b) in enumerate(zip(previous, modes)):
                if a != b:
                    log.info("association switch at rank %d: %s (s=%s) -> "
                             "%s (s=%s)", rank, a, _fmt(prev_s), b, _fmt(s))
        previous, prev_s = modes, s
        for r in result.assoc:
            combined.append(f"{_fmt(s)},{_fmt(r.omega2_computed)},{r.mode[0]},{r.mode[1]}")
        del result  # else the name holds it through the next solve
    _write_csv(out / "sweep.csv", "s,omega2,m,n", combined)
    return EXIT_OK


def cmd_exact_spectrum(config: RunConfig) -> int:
    spec = exact_spectrum(config.field_direction(), config.m_max, config.n_max)
    modes = sorted(spec.entries, key=lambda mn: (spec.entries[mn], mn))
    lines = [f"{m},{n},{_fmt(spec.entries[(m, n)])}" for m, n in modes]
    _write_csv(Path(config.output_dir) / "exact_spectrum.csv", "m,n,omega2", lines)
    return EXIT_OK


COMMANDS = {
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "exact-spectrum": cmd_exact_spectrum,
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every option
    defaults to None, no action accumulates, and each ``parse_args`` returns
    a fresh namespace, so one parser serves every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="anisodg",
        description="Band spectra of the 2D periodic anisotropic wave "
                    "eigenproblem with a locally field-aligned DG method.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        for f in dc_fields(RunConfig):
            p.add_argument(f"--{f.name}", default=None, metavar=str(f.type))
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        overrides = {f.name: getattr(args, f.name) for f in dc_fields(RunConfig)
                     if getattr(args, f.name) is not None}
        config = build_config(args.config, overrides)
        echo_config(config)
        return COMMANDS[args.command](config)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except (CompletenessError, AssemblyError) as exc:
        log.error("solver failure: %s", exc)
        return EXIT_SOLVER
    except FieldFileError as exc:
        log.error("field file error: %s", exc)
        return EXIT_IO
    except OSError as exc:
        log.error("I/O error: %s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
