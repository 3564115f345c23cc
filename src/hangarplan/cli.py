"""Command-line entry point exposing every workflow: generate, solve
(heuristic and exact), export/import the optimization model, validate,
render, and compare.

Exit codes: 0 ok, 2 infeasible, 3 parse or usage error (an option value
out of range, or an input or output file that cannot be read, decoded as
UTF-8, parsed or written), 4 budget exhausted.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import click

from . import ach, exact, instgen, milp, report, validator
from .core import evaluate_cost
from .io import (ParseError, load_instance, load_solution, parse_json, read_file,
                 save_instance, save_solution)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4


@dataclass(frozen=True)
class CompareRow:
    label: str
    ach_cost: Optional[float]
    oracle_cost: Optional[float]
    gap_pct: Optional[float]
    ach_time: Optional[float]
    oracle_time: Optional[float]
    error: str = ""


#: The CSV format of each number column of ``CompareRow``; text prints as itself.
_CELL_FORMAT = {"ach_cost": ".6f", "oracle_cost": ".6f", "gap_pct": ".2f",
                "ach_time": ".3f", "oracle_time": ".3f"}


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_plan(instance_path: str, solution_path: str):
    """The instance and a solution that assigns exactly its aircraft."""
    instance = load_instance(instance_path)
    solution = load_solution(solution_path)
    assigned = solution.by_id()
    missing = [a.id for a in instance.all_aircraft() if a.id not in assigned]
    if missing:
        raise ParseError(f"solution {solution_path} has no assignment for {', '.join(missing)}")
    known = {a.id for a in instance.all_aircraft()}
    unknown = [i for i in assigned if i not in known]
    if unknown:
        raise ParseError(f"solution {solution_path} assigns {', '.join(unknown)}, "
                         "not aircraft of the instance")
    return instance, solution


def _options(make, **values):
    """``make(**values)``; an option value that ``make`` refuses is a ParseError."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _bad_input_exits_parse(call, *args, **kwargs):
    """``call(*args, **kwargs)``, where bad input exits 3.  A click usage
    error keeps click's message, but not click's own code 2, the
    infeasible-plan code.  A ParseError, or an OSError from a file that
    cannot be written, prints one ``error:`` line."""
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = EXIT_PARSE
        raise
    except BrokenPipeError:
        raise  # click ends quietly when the reader of its output goes away
    except (ParseError, OSError) as exc:
        _fail(EXIT_PARSE, str(exc))


class _Group(click.Group):
    """The command group: it parses its own options and resolves, parses and
    runs the command, so every input error passes through here."""

    def make_context(self, *args, **kwargs):
        return _bad_input_exits_parse(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _bad_input_exits_parse(super().invoke, ctx)


@click.group(cls=_Group)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file with per-subcommand option defaults "
                                 "(flags take precedence).")
@click.pass_context
def main(ctx: click.Context, config_path: Optional[str]) -> None:
    """Hangar scheduling and layout toolkit."""
    if config_path:
        defaults = read_file(config_path, "config", parse_json)
        if not (isinstance(defaults, dict)
                and all(isinstance(v, dict) for v in defaults.values())):
            raise ParseError(f"config {config_path} must map each command to an object")
        ctx.default_map = _checked_defaults(ctx, defaults, config_path)


def _option_text(value) -> str:
    """A config value as it would be typed on the command line."""
    if not isinstance(value, (str, int, float)):
        raise TypeError(f"expected a string or a number, got {type(value).__name__}")
    return str(value)


def _checked_defaults(ctx: click.Context, defaults: dict, config_path: str) -> dict:
    """The config file's defaults, each command name and option key checked
    against the commands and each value converted by its option's type, as
    if it were given on the command line."""
    checked = {}
    for name, values in defaults.items():
        command = main.commands.get(name)
        if command is None:
            raise ParseError(f"config {config_path}: unknown command {name!r}")
        params = {p.name: p for p in command.params}
        checked[name] = {}
        for key, value in values.items():
            param = params.get(key)
            if param is None:
                raise ParseError(f"config {config_path}: {name} has no option {key!r}")
            try:
                if param.nargs == -1:
                    if not isinstance(value, list):
                        raise TypeError(f"expected a list, got {type(value).__name__}")
                    text = [_option_text(v) for v in value]
                else:
                    text = _option_text(value)
                checked[name][key] = param.type_cast_value(ctx, text)
            except (TypeError, ValueError, click.BadParameter) as exc:
                raise ParseError(f"config {config_path}: {name} {key}: {exc}") from exc
    return checked


@main.command()
@click.option("--n", "n_future", type=int, required=True, help="Number of future requests.")
@click.option("--seed", type=int, required=True)
@click.option("--congestion", type=float, default=1.0, show_default=True,
              help="Arrival-horizon compression factor (<1 compresses).")
@click.option("--high-rejection", is_flag=True,
              help="Multiply every rejection penalty by 10.")
@click.option("--n-current", type=int, default=0, show_default=True)
@click.option("-o", "out", type=click.Path(dir_okay=False), required=True)
def gen(n_future: int, seed: int, congestion: float, high_rejection: bool,
        n_current: int, out: str) -> None:
    """Generate a reproducible instance file."""
    config = _options(instgen.GeneratorConfig,
                      n_future=n_future, n_current=n_current, seed=seed,
                      congestion=congestion,
                      rejection_multiplier=10.0 if high_rejection else 1.0)
    instance = _options(instgen.generate, config=config)
    save_instance(instance, out)
    click.echo(f"wrote {out} ({instance.label}: {len(instance.future)} future, "
               f"{len(instance.current)} current)")


@main.command(name="solve-ach")
@click.option("-i", "instance_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("-o", "out", type=click.Path(dir_okay=False), required=True)
def solve_ach(instance_path: str, out: str) -> None:
    """Solve with the constructive heuristic."""
    instance = load_instance(instance_path)
    solution = ach.solve(instance)
    save_solution(solution, out)
    cost = evaluate_cost(instance, solution)
    click.echo(f"wrote {out} (total cost {cost.total:.6g})")


@main.command(name="solve-exact")
@click.option("-i", "instance_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("-o", "out", type=click.Path(dir_okay=False), required=True)
@click.option("--node-budget", type=int, default=2_000_000, show_default=True,
              help="Stop after this many nodes: branch-and-bound nodes over "
                   "acceptance and roll-in times plus closed branches of the "
                   "layout search, which runs for every accepted prefix.")
@click.option("--time-budget", type=float, default=300.0, show_default=True)
@click.option("--allow-large", is_flag=True, help="Lift the instance-size guard.")
def solve_exact(instance_path: str, out: str, node_budget: int,
                time_budget: float, allow_large: bool) -> None:
    """Solve to grid-certified optimality (tiny instances only)."""
    instance = load_instance(instance_path)
    config = _options(exact.OracleConfig, node_budget=node_budget,
                      time_budget=time_budget, allow_large=allow_large)
    result = exact.solve_exact(instance, config)
    save_solution(result.solution, out)
    click.echo(f"wrote {out} (status {result.status.value}, "
               f"cost {result.cost.total:.6g}, nodes {result.nodes_explored})")
    if result.status is exact.OracleStatus.BUDGET_EXHAUSTED:
        sys.exit(EXIT_BUDGET)


@main.command(name="export-milp")
@click.option("-i", "instance_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("-o", "out", type=click.Path(dir_okay=False), required=True)
def export_milp(instance_path: str, out: str) -> None:
    """Export the optimization model in LP text format."""
    instance = load_instance(instance_path)
    # one pause: the model is built, written out and freed before the
    # collector's next pass, so that pass does not scan it
    with milp.collector_paused():
        model = milp.build_model(instance)
        text = milp.export_lp(model)
        summary = f"{len(model.variables)} variables, {len(model.rows)} rows"
        del model
    Path(out).write_text(text, encoding="utf-8")
    click.echo(f"wrote {out} ({summary})")


@main.command(name="import")
@click.option("-i", "instance_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("-m", "model_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("-p", "point_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("-o", "out", type=click.Path(dir_okay=False), required=True)
def import_point(instance_path: str, model_path: str, point_path: str, out: str) -> None:
    """Turn a solver variable dump back into a validated plan."""
    instance = load_instance(instance_path)
    model = read_file(model_path, "model", milp.parse_lp)
    try:
        solution = read_file(point_path, "point",
                             lambda text: milp.import_solution(model, instance, text))
    except validator.Infeasible as exc:
        click.echo(str(exc), err=True)
        _fail(EXIT_INFEASIBLE, "imported point is infeasible")
    save_solution(solution, out)
    click.echo(f"wrote {out}")


@main.command()
@click.option("-i", "instance_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("-s", "solution_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def validate(instance_path: str, solution_path: str, as_json: bool) -> None:
    """Check a plan; exit 0 iff feasible."""
    instance, solution = _load_plan(instance_path, solution_path)
    rep = validator.validate(instance, solution)
    if as_json:
        click.echo(json.dumps(asdict(rep), indent=2))
    else:
        click.echo(validator.explain(rep))
    if not rep.feasible:
        sys.exit(EXIT_INFEASIBLE)


@main.command()
@click.option("-i", "instance_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("-s", "solution_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("-o", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--html", "with_html", is_flag=True, help="Also write report.html.")
def render(instance_path: str, solution_path: str, out_dir: str, with_html: bool) -> None:
    """Render per-event layout frames (and optionally the HTML report)."""
    instance, solution = _load_plan(instance_path, solution_path)
    # one validation and one drawing of each frame, shared by frames and report
    checked = validator.validate(instance, solution)
    if not checked.feasible:
        click.echo(validator.explain(checked), err=True)
        _fail(EXIT_INFEASIBLE, "solution is infeasible; nothing rendered")
    drawn = report.draw_frames(instance, solution)
    paths = report.render_frames(drawn, out_dir)
    click.echo(f"wrote {len(paths)} frame(s) to {out_dir}")
    if with_html:
        out = report.render_report(instance, solution, checked.cost, drawn,
                                   Path(out_dir) / "report.html")
        click.echo(f"wrote {out}")


@main.command()
@click.argument("instances", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "out_csv", type=click.Path(dir_okay=False), required=True)
@click.option("--node-budget", type=int, default=2_000_000, show_default=True)
@click.option("--time-budget", type=float, default=60.0, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Also print rows as JSON.")
def compare(instances: tuple[str, ...], out_csv: str, node_budget: int,
            time_budget: float, as_json: bool) -> None:
    """Solve each instance with heuristic and oracle; write a gap table."""
    oracle_config = _options(exact.OracleConfig, node_budget=node_budget,
                             time_budget=time_budget)
    # opened before the first solve, so an -o that cannot be written exits 3
    # with nothing solved
    with open(out_csv, "w", encoding="utf-8") as out_file:
        rows = [_compare_row(path, oracle_config) for path in instances]
        writer = csv.writer(out_file, lineterminator="\n")
        writer.writerow(f.name for f in fields(CompareRow))
        for r in rows:
            writer.writerow("" if v is None else format(v, _CELL_FORMAT.get(k, ""))
                            for k, v in asdict(r).items())
    click.echo(f"wrote {out_csv} ({len(rows)} row(s))")
    if as_json:
        click.echo(json.dumps([asdict(r) for r in rows], indent=2))


def _compare_row(path: str, oracle_config: exact.OracleConfig) -> CompareRow:
    """One instance solved by the heuristic and the oracle; an error is
    recorded in the row, not raised."""
    try:
        instance = load_instance(path)
    except ParseError as exc:
        return CompareRow(path, None, None, None, None, None, error=f"parse: {exc}")
    try:
        t0 = time.perf_counter()
        ach_sol = ach.solve(instance)
        ach_time = time.perf_counter() - t0
        ach_cost = evaluate_cost(instance, ach_sol).total
    except Exception as exc:  # noqa: BLE001 - per-row error capture
        return CompareRow(instance.label, None, None, None, None, None,
                          error=f"ach: {exc}")
    oracle_cost = oracle_time = gap = None
    error = ""
    try:
        t0 = time.perf_counter()
        result = exact.solve_exact(instance, oracle_config)
        oracle_time = time.perf_counter() - t0
        if result.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID:
            oracle_cost = result.cost.total
            if oracle_cost > 1e-9:
                gap = (ach_cost - oracle_cost) / oracle_cost * 100.0
            elif ach_cost <= 1e-9:
                gap = 0.0
        else:
            error = f"oracle: {result.status.value} after {result.nodes_explored} nodes"
    except Exception as exc:  # noqa: BLE001 - per-row error capture
        error = f"oracle: {exc}"
    return CompareRow(instance.label, ach_cost, oracle_cost, gap,
                      ach_time, oracle_time, error=error)


if __name__ == "__main__":
    main()
