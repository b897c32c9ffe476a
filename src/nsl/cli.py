"""Command-line front end.

Subcommands: gen | constants | energy | sweep | verify | report.

Exit codes: 0 success (all verification checks pass), 1 a verification
check failed, 2 usage or input error: one `error:` line and no warning, which
_input_errors makes of any ValueError, OverflowError or OSError raised reading
input, computing (an overflowed energy or check too) or writing output. All
file outputs are UTF-8 with LF line endings; energies print as full-precision
decimals. energy, sweep and verify share problem_options, which _problem
checks in the order workers, space, field, kernel.

Space arguments are space files or inline specs; SpaceSpec.parse holds the
spec grammar (e.g. circle:256, torus2d:64x64, gauge_grid:32:square). Bodies:
ball:N, ellipse:A:B, square, polygon:x,y;x,y;... Grids: A:B:STEP, inclusive.

Fields come from an expression over the coordinates (--field) or from a
one-column CSV in point order (--field-csv). On circle spaces the variable
x is the angle in [0, 2pi).
"""

from __future__ import annotations

import os
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import __version__, parallel
from .constants import gauge_distance, k_pn, parse_body, zstar_norm
from .energies import gagliardo_p, h_energy, k_energy, nguyen_a, nguyen_b, scale_s_by_balls
from .expr import parse_field_expr
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
from .verify import CHECKS, render_text, reports_to_json, run_suite

INPUT_ERROR = 2
CHECK_FAILED = 1
MAX_GRID_POINTS = 1000
SCALE_ENERGIES = {"k": k_energy, "h": h_energy, "s": scale_s_by_balls}
parse_space_spec = SpaceSpec.parse  # perfbench/workloads.py calls it by this name


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(INPUT_ERROR)


@contextmanager
def _input_errors():
    """A ValueError (SpaceError, BodyError, ExprError), OverflowError (int() of an infinite
    option) or OSError exits 2, dropping the block's warnings; else they show as it ends."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            yield
        except (OSError, OverflowError, ValueError) as exc:
            _fail(str(exc))
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)


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
    # whole steps that stay within B; the slack keeps B where 0.45 / 0.05 rounds to 8.999...
    return [a + k * step for k in range(int(count + 1e-9) + 1)]


def _load_space_arg(space: str):
    """The space of a space file, or else of an inline spec; every spec is GENERATOR:FIELDS, so
    text with no colon names a file."""
    if Path(space).exists():
        return load_space(space)
    if ":" not in space:
        raise SpaceError(f"no space file at {space}")
    return build_space(SpaceSpec.parse(space))


def _load_field(space_obj, field: str | None, field_csv: str | None) -> ScalarField:
    if (field is None) == (field_csv is None):
        _fail("provide exactly one of --field or --field-csv")
    if field_csv is not None:
        f = ScalarField.from_csv(field_csv)
        if len(f) != space_obj.n:
            _fail(f"field file has {len(f)} values for a space of {space_obj.n} points")
        return f
    if space_obj.coords is None:
        _fail("this space has no coordinates; expression fields need them (use --field-csv)")
    try:
        tree = parse_field_expr(field)
        return ScalarField(tree.evaluate(space_obj.coords), provenance="expression")
    except ValueError as exc:  # an ExprError among them
        _fail(f"field {field!r}: {exc}")


def _problem(space_arg, field, field_csv, kernel, workers):
    """(space, u, kernel spec), after the worker count; each is checked in this order. The
    count is checked with NSL_WORKERS, which outranks it, whether or not a route reads it."""
    with _input_errors():
        parallel.set_workers(workers)
        parallel.get_workers()
        space = _load_space_arg(space_arg)
        u = _load_field(space, field, field_csv)
        return space, u, KernelSpec.parse(kernel)


def problem_options(command):
    """The options of energy, sweep and verify that _problem reads; they lead each --help."""
    for option in reversed((
        click.option("--space", "space_arg", required=True, help="Space file or inline spec."),
        click.option("--field", default=None, help="Field expression over coordinates."),
        click.option("--field-csv", default=None, type=click.Path(), help="One-column field CSV."),
        click.option("--p", type=float, default=2.0, show_default=True),
        click.option("--kernel", default="rho1", show_default=True),
        click.option("--workers", type=int, default=1, show_default=True, help="Worker threads; "
                     "NSL_WORKERS overrides. Results are identical for any count."),
    )):
        command = option(command)
    return command


@click.group()
@click.version_option(version=__version__, prog_name="nsl")
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
    with _input_errors():
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
    with _input_errors():
        if kpn:
            n_dim = int(kpn[1])  # OverflowError on inf, ValueError on nan
            if n_dim != kpn[1]:
                raise ValueError(f"dimension N must be an integer, got {kpn[1]!r}")
            click.echo(repr(k_pn(kpn[0], n_dim)))
        if zstar:
            body, xi = parse_body(zstar[0]), _point(zstar[2])
            click.echo(repr(zstar_norm(body, float(zstar[1]), xi)))
        if gauge:
            body, x, y = parse_body(gauge[0]), _point(gauge[1]), _point(gauge[2])
            click.echo(repr(gauge_distance(body, x, y)))


def _point(text: str) -> np.ndarray:
    """Comma-separated coordinates, all finite."""
    point = np.array([float(v) for v in text.split(",")])
    if not np.all(np.isfinite(point)):
        raise ValueError(f"coordinates must be finite, got {text!r}")
    return point


@main.command()
@problem_options
@click.option("--functional", default="gagliardo", show_default=True,
              type=click.Choice(["gagliardo", "nguyen", "nguyen-b", "k", "h", "s",
                                 "cheeger", "hajlasz"]))
@click.option("--s", "s_order", type=float, default=None, help="Fractional order in (0,1).")
@click.option("--delta", type=float, default=None, help="Threshold for the Nguyen functional.")
@click.option("--t", type=float, default=None, help="Ball scale for K/H/S.")
@click.option("--r", type=float, default=None, help="Cutoff radius.")
@click.option("--self-check-determinism", is_flag=True,
              help="Recompute with one worker and require byte-identical output.")
def energy(space_arg, field, field_csv, functional, p, kernel, s_order, delta, t, r,
           self_check_determinism, workers) -> None:
    """Evaluate one energy functional and print it in full precision."""
    space, u, kspec = _problem(space_arg, field, field_csv, kernel, workers)

    def compute() -> float:
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

    with _input_errors():
        value = compute()
        if not np.isfinite(value):  # the pair sum or the solver overflowed
            raise ValueError(f"the {functional} energy overflowed: {value!r}")
    text = repr(value)
    if self_check_determinism:
        # one worker whatever NSL_WORKERS says, which outranks set_workers; restored after
        env = os.environ.pop("NSL_WORKERS", None)
        parallel.set_workers(1)
        try:
            with _input_errors():
                again = repr(compute())
        finally:
            parallel.set_workers(workers)
            if env is not None:
                os.environ["NSL_WORKERS"] = env
        if again != text:
            click.echo("determinism self-check failed", err=True)
            sys.exit(CHECK_FAILED)
    click.echo(text)


@main.command()
@problem_options
@click.option("--mode", required=True, type=click.Choice(["bbm", "nguyen", "ks"]))
@click.option("--s-grid", default=None, help="A:B:STEP, increasing in (0,1).")
@click.option("--delta-grid", default=None, help="A:B:STEP, decreasing toward 0.")
@click.option("--t-grid", default=None, help="A:B:STEP inside (mesh, diameter).")
@click.option("--out-csv", default=None, type=click.Path())
@click.option("--out-json", default=None, type=click.Path())
def sweep(mode, space_arg, field, field_csv, p, kernel, s_grid, delta_grid, t_grid,
          out_csv, out_json, workers) -> None:
    """Sweep an energy over a parameter grid and extrapolate the limit."""
    space, u, kspec = _problem(space_arg, field, field_csv, kernel, workers)
    with _input_errors():
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
@problem_options
@click.option("--suite", default="all", show_default=True,
              help=f"'all' or a comma list: {','.join(CHECKS)}. In 'all', two-sided runs "
                   "informationally (its mesh-stability clause needs grids that resolve the "
                   "limit); name it explicitly to assert it.")
@click.option("--informational", default="", help="Comma list of checks that report only.")
@click.option("--out-json", default=None, type=click.Path())
def verify(suite, space_arg, field, field_csv, p, kernel, informational, out_json, workers) -> None:
    """Run verification checks; exit 1 when an asserted check fails."""
    space, u, kspec = _problem(space_arg, field, field_csv, kernel, workers)
    refine_field = None if field is None else lambda sp: _load_field(sp, field, None)
    names = lambda text: tuple(s.strip() for s in text.split(",") if s.strip())
    checks, info = names(suite), names(informational)
    if suite == "all":
        checks, info = CHECKS, (*info, "two-sided")
    with _input_errors():
        reports = run_suite(space, u, p, kspec, checks, info, refine_field)
        if out_json:
            reports_to_json(reports, out_json)
    click.echo(render_text(reports))
    if not all(r.passed for r in reports):
        sys.exit(CHECK_FAILED)


@main.command()
@click.option("--sweep-csv", required=True, type=click.Path(exists=True))
@click.option("--out-json", default=None, type=click.Path())
def report(sweep_csv, out_json) -> None:
    """Re-read a sweep CSV and recompute its limit estimate."""
    with _input_errors():
        result = read_sweep_csv(sweep_csv)
        estimate = extrapolate(result)
        if out_json:
            write_sweep_json(result, estimate, out_json)
    click.echo(
        f"{result.parameter}-sweep: {len(result.grid)} points, "
        f"limit={estimate.limit!r} model={estimate.model} residual={estimate.residual!r}"
    )


if __name__ == "__main__":
    main()
