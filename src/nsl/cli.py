"""Command-line front end.

Subcommands: gen | constants | energy | sweep | verify | report.

Exit codes: 0 success (all verification checks pass), 1 a verification
check failed, 2 usage or input error. All file outputs are UTF-8 with LF
line endings; energies print as full-precision decimals.

Space arguments are space files or inline specs; SpaceSpec.parse holds the
spec grammar (e.g. circle:256, torus2d:64x64, gauge_grid:32:square). Bodies:
ball:N, ellipse:A:B, square, polygon:x,y;x,y;... Grids: A:B:STEP, inclusive.

Fields come from an expression over the coordinates (--field) or from a
one-column CSV in point order (--field-csv). On circle spaces the variable
x is the angle in [0, 2pi).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import parallel
from .constants import BodyError, gauge_distance, k_pn, parse_body, zstar_norm
from .energies import gagliardo_p, h_energy, k_energy, nguyen_a, nguyen_b, scale_s_by_balls
from .expr import ExprError, parse_field_expr
from .fields import EnergySpec, ScalarField
from .gradients import cheeger_surrogate, hajlasz_minimal
from .kernels import KernelSpec
from .space import SpaceError, SpaceSpec, build_space, load_space, save_space
from .sweeps import (
    bbm_sweep,
    extrapolate,
    ks_sweep,
    nguyen_sweep,
    read_sweep_csv,
    write_sweep_csv,
    write_sweep_json,
)
from .verify import render_text, reports_to_json, run_suite

INPUT_ERROR = 2
CHECK_FAILED = 1
MAX_GRID_POINTS = 1000
SCALE_ENERGIES = {"k": k_energy, "h": h_energy, "s": scale_s_by_balls}
parse_space_spec = SpaceSpec.parse  # perfbench/workloads.py calls it by this name


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(INPUT_ERROR)


def parse_grid(text: str) -> list[float]:
    try:
        a, b, step = (float(v) for v in text.split(":"))
    except ValueError:
        _fail(f"bad grid {text!r}; expected A:B:STEP")
    if step == 0:
        _fail(f"grid step must be nonzero in {text!r}")
    count = (b - a) / step
    if not 0.0 <= count < MAX_GRID_POINTS:  # NaN fails too
        _fail(f"grid {text!r} must step from A to B in fewer than {MAX_GRID_POINTS} steps")
    return [a + k * step for k in range(int(round(count)) + 1)]


def _load_space_arg(space: str):
    path = Path(space)
    try:
        if path.exists():
            return load_space(path)
        return build_space(SpaceSpec.parse(space))
    except (SpaceError, BodyError) as exc:
        _fail(str(exc))


def _load_field(space_obj, field: str | None, field_csv: str | None) -> ScalarField:
    if (field is None) == (field_csv is None):
        _fail("provide exactly one of --field or --field-csv")
    if field_csv is not None:
        try:
            f = ScalarField.from_csv(field_csv)
        except (OSError, ValueError) as exc:
            _fail(str(exc))
        if len(f) != space_obj.n:
            _fail(f"field file has {len(f)} values for a space of {space_obj.n} points")
        return f
    if space_obj.coords is None:
        _fail("this space has no coordinates; expression fields need them (use --field-csv)")
    try:
        tree = parse_field_expr(field)
        return ScalarField(tree.evaluate(space_obj.coords), provenance="expression")
    except (ExprError, ValueError) as exc:
        _fail(f"field {field!r}: {exc}")


def _kernel_arg(kernel: str) -> KernelSpec:
    try:
        return KernelSpec.parse(kernel)
    except (ValueError, BodyError) as exc:
        _fail(str(exc))


def _apply_workers(workers: int) -> None:
    try:
        parallel.set_workers(workers)
    except ValueError as exc:
        _fail(str(exc))


workers_option = click.option(
    "--workers", type=int, default=1, show_default=True,
    help="Worker threads; NSL_WORKERS overrides. Results are identical for any count.",
)


@click.group()
@click.version_option(version="0.1.0", prog_name="nsl")
def main() -> None:
    """Nonlocal energies on finite metric measure spaces.

    Fields are expressions over the point coordinates (variables x, y, z,
    constant pi, functions sin cos exp abs min max) or one-column CSVs in
    point order. On circle spaces the variable x is the angle in [0, 2pi).
    Kernels: rho1, rho2, sum, geom, harm, ahlfors:N, gauge-ahlfors:N[:BODY].
    """


@main.command()
@click.option("--spec", required=True, help="Space spec, e.g. circle:256 or torus2d:64x64.")
@click.option("--out", required=True, type=click.Path(), help="Output space file.")
def gen(spec: str, out: str) -> None:
    """Generate a space and write it to a space file."""
    space = _load_space_arg(spec)
    save_space(space, out)
    click.echo(f"{space.name}: n={space.n} mass={space.total_mass!r} -> {out}")


@main.command()
@click.option("--kpn", nargs=2, type=float, default=None, help="P N: sphere-average constant.")
@click.option("--zstar", nargs=3, type=str, default=None,
              help="BODY P XI (xi comma-separated): anisotropic norm.")
@click.option("--gauge", nargs=3, type=str, default=None,
              help="BODY X Y (points comma-separated): gauge distance.")
def constants(kpn, zstar, gauge) -> None:
    """Evaluate limit constants and gauge distances."""
    if not any((kpn, zstar, gauge)):
        _fail("give one of --kpn, --zstar, --gauge")
    try:
        if kpn:
            click.echo(repr(k_pn(kpn[0], int(kpn[1]))))
        if zstar:
            body = parse_body(zstar[0])
            xi = np.array([float(v) for v in zstar[2].split(",")])
            click.echo(repr(zstar_norm(body, float(zstar[1]), xi)))
        if gauge:
            body = parse_body(gauge[0])
            x = np.array([float(v) for v in gauge[1].split(",")])
            y = np.array([float(v) for v in gauge[2].split(",")])
            click.echo(repr(gauge_distance(body, x, y)))
    except (BodyError, ValueError) as exc:
        _fail(str(exc))


@main.command()
@click.option("--space", "space_arg", required=True, help="Space file or inline spec.")
@click.option("--field", default=None, help="Field expression over coordinates.")
@click.option("--field-csv", default=None, type=click.Path(), help="One-column field CSV.")
@click.option("--functional", default="gagliardo", show_default=True,
              type=click.Choice(["gagliardo", "nguyen", "nguyen-b", "k", "h", "s",
                                 "cheeger", "hajlasz"]))
@click.option("--p", type=float, default=2.0, show_default=True)
@click.option("--kernel", default="rho1", show_default=True)
@click.option("--s", "s_order", type=float, default=None, help="Fractional order in (0,1).")
@click.option("--delta", type=float, default=None, help="Threshold for the Nguyen functional.")
@click.option("--t", type=float, default=None, help="Ball scale for K/H/S.")
@click.option("--r", type=float, default=None, help="Cutoff radius.")
@click.option("--self-check-determinism", is_flag=True,
              help="Recompute with one worker and require byte-identical output.")
@workers_option
def energy(space_arg, field, field_csv, functional, p, kernel, s_order, delta, t, r,
           self_check_determinism, workers) -> None:
    """Evaluate one energy functional and print it in full precision."""
    _apply_workers(workers)
    space = _load_space_arg(space_arg)
    u = _load_field(space, field, field_csv)
    kspec = _kernel_arg(kernel)

    def compute() -> float:
        try:
            if functional == "gagliardo":
                return gagliardo_p(space, u, EnergySpec(p=p, s=s_order, kernel=kspec))
            if functional == "nguyen":
                return nguyen_a(space, u, EnergySpec(p=p, delta=delta, kernel=kspec))
            if functional == "nguyen-b":
                return nguyen_b(space, u, EnergySpec(p=p, delta=delta, r=r, kernel=kspec))
            if functional in SCALE_ENERGIES:
                return SCALE_ENERGIES[functional](space, u, EnergySpec(p=p, t=t, kernel=kspec))
            if functional == "cheeger":
                return cheeger_surrogate(space, u, p)[0]
            return hajlasz_minimal(space, u, p, cutoff=np.inf if r is None else r).objective
        except ValueError as exc:
            _fail(str(exc))

    value = compute()
    text = repr(value)
    if self_check_determinism:
        parallel.set_workers(1)
        again = repr(compute())
        parallel.set_workers(workers)
        if again != text:
            click.echo("determinism self-check failed", err=True)
            sys.exit(CHECK_FAILED)
    click.echo(text)


@main.command()
@click.option("--mode", required=True, type=click.Choice(["bbm", "nguyen", "ks"]))
@click.option("--space", "space_arg", required=True)
@click.option("--field", default=None)
@click.option("--field-csv", default=None, type=click.Path())
@click.option("--p", type=float, default=2.0, show_default=True)
@click.option("--kernel", default="rho1", show_default=True)
@click.option("--s-grid", default=None, help="A:B:STEP, increasing in (0,1).")
@click.option("--delta-grid", default=None, help="A:B:STEP, decreasing toward 0.")
@click.option("--t-grid", default=None, help="A:B:STEP inside (mesh, diameter).")
@click.option("--out-csv", default=None, type=click.Path())
@click.option("--out-json", default=None, type=click.Path())
@workers_option
def sweep(mode, space_arg, field, field_csv, p, kernel, s_grid, delta_grid, t_grid,
          out_csv, out_json, workers) -> None:
    """Sweep an energy over a parameter grid and extrapolate the limit."""
    _apply_workers(workers)
    space = _load_space_arg(space_arg)
    u = _load_field(space, field, field_csv)
    kspec = _kernel_arg(kernel)
    try:
        if mode == "bbm":
            if s_grid is None:
                _fail("bbm sweep needs --s-grid")
            result = bbm_sweep(space, u, p, kspec, parse_grid(s_grid))
        elif mode == "nguyen":
            if delta_grid is None:
                _fail("nguyen sweep needs --delta-grid")
            result = nguyen_sweep(space, u, p, kspec, parse_grid(delta_grid))
        else:
            if t_grid is None:
                _fail("ks sweep needs --t-grid")
            result = ks_sweep(space, u, p, parse_grid(t_grid))
        estimate = extrapolate(result)
    except ValueError as exc:
        _fail(str(exc))
    if out_csv:
        write_sweep_csv(result, out_csv)
    if out_json:
        write_sweep_json(result, estimate, out_json)
    for warning in result.warnings:
        click.echo(f"warning: {warning}", err=True)
    click.echo(
        f"{mode}: {len(result.grid)} points, limit={estimate.limit!r} "
        f"model={estimate.model} residual={estimate.residual!r}"
    )


@main.command()
@click.option("--suite", default="all", show_default=True,
              help="'all' or a comma list: annuli,mean,fubini,hks,mollifier,"
                   "upper-gradient,nguyen-avg,hajlasz,two-sided. In 'all', "
                   "two-sided runs informationally (its mesh-stability clause "
                   "needs grids that resolve the limit); name it explicitly "
                   "to assert it.")
@click.option("--space", "space_arg", required=True)
@click.option("--field", default=None)
@click.option("--field-csv", default=None, type=click.Path())
@click.option("--p", type=float, default=2.0, show_default=True)
@click.option("--kernel", default="rho1", show_default=True)
@click.option("--informational", default="", help="Comma list of checks that report only.")
@click.option("--out-json", default=None, type=click.Path())
@workers_option
def verify(suite, space_arg, field, field_csv, p, kernel, informational, out_json, workers) -> None:
    """Run verification checks; exit 1 when an asserted check fails."""
    _apply_workers(workers)
    space = _load_space_arg(space_arg)
    u = _load_field(space, field, field_csv)
    kspec = _kernel_arg(kernel)
    refine_field = None
    if field is not None:
        tree = parse_field_expr(field)
        refine_field = lambda sp: ScalarField(tree.evaluate(sp.coords), provenance="expression")
    names = None if suite == "all" else tuple(s.strip() for s in suite.split(",") if s.strip())
    info = tuple(s.strip() for s in informational.split(",") if s.strip())
    if names is None:
        info = tuple(set(info) | {"two-sided"})
    try:
        kwargs = {"informational": info, "refine_field": refine_field}
        if names is None:
            reports = run_suite(space, u, p, kspec, **kwargs)
        else:
            reports = run_suite(space, u, p, kspec, checks=names, **kwargs)
    except ValueError as exc:
        _fail(str(exc))
    click.echo(render_text(reports))
    if out_json:
        reports_to_json(reports, out_json)
    if not all(r.passed for r in reports):
        sys.exit(CHECK_FAILED)


@main.command()
@click.option("--sweep-csv", required=True, type=click.Path(exists=True))
@click.option("--out-json", default=None, type=click.Path())
def report(sweep_csv, out_json) -> None:
    """Re-read a sweep CSV and recompute its limit estimate."""
    try:
        result = read_sweep_csv(sweep_csv)
        estimate = extrapolate(result)
    except ValueError as exc:
        _fail(str(exc))
    if out_json:
        write_sweep_json(result, estimate, out_json)
    click.echo(
        f"{result.parameter}-sweep: {len(result.grid)} points, "
        f"limit={estimate.limit!r} model={estimate.model} residual={estimate.residual!r}"
    )


if __name__ == "__main__":
    main()
