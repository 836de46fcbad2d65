"""Command-line entry points.

Subcommands: gen (write a synthetic stream), cost-matrix, oracle (optimal
strategy for one kappa), run (the sweep's row for one policy, kappa and
seed), sweep (full grid) and report (aggregate a results CSV). Everything
beyond argument handling lives in the library modules.
"""

from __future__ import annotations

from dataclasses import replace

import click

from .costmatrix import cumulative_cost_trace, format_value, write_csv
from .datagen import StreamSpec, generate_stream
from .harness import (
    PolicySpec,
    RunConfig,
    render_summary,
    report,
    results_from_csv,
    results_to_csv,
    run_sweep,
    save_stream_csv,
    summary_to_csv,
)
from .oracle import dp_rows, oracle_strategy
from .policies import make_policy


@click.group()
def main():
    """Cost-aware retraining decisions over batched data and query streams."""


@main.command()
@click.option("--dataset", type=click.Choice(["gauss", "circle", "covcon"]), required=True)
@click.option("--n-batches", default=100, show_default=True)
@click.option("--batch-size", default=1000, show_default=True)
@click.option("--queries", "queries_per_batch", default=100, show_default=True)
@click.option("--query-mode", type=click.Choice(["D", "S"]), default="D", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--covcon-alpha", default=1.0, show_default=True)
@click.option("--gauss-sigma", default=0.1, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def gen(dataset, n_batches, batch_size, queries_per_batch, query_mode, seed, covcon_alpha, gauss_sigma, out):
    """Generate a synthetic stream and write it as a stream CSV."""
    spec = StreamSpec(
        dataset=dataset,
        n_batches=n_batches,
        batch_size=batch_size,
        queries_per_batch=queries_per_batch,
        query_mode=query_mode,
        seed=seed,
        covcon_alpha=covcon_alpha,
        gauss_sigma=gauss_sigma,
    )
    data, queries = generate_stream(spec)
    save_stream_csv(out, data, queries)
    click.echo(f"wrote {spec.name}: {n_batches} batches x {batch_size} points to {out}")


def _narrow(cfg: RunConfig, seed, kappa) -> RunConfig:
    """The config cut to one seed and one kappa, by default the first configured."""
    return replace(
        cfg,
        seeds=[cfg.seeds[0] if seed is None else seed],
        kappas=[cfg.kappas[0] if kappa is None else kappa],
    )


@main.command("cost-matrix")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--phase", type=click.Choice(["offline", "online"]), default="offline", show_default=True)
@click.option("--kappa", type=float, default=None, help="defaults to the first configured value")
@click.option("--seed", type=int, default=None, help="defaults to the first configured seed")
@click.option("--out", type=click.Path(), required=True)
def cost_matrix_cmd(config_path, phase, kappa, seed, out):
    """Build one phase's cost matrix and export it as CSV."""
    cfg = _narrow(RunConfig.load(config_path), seed, kappa)
    kappa = cfg.kappas[0]
    if phase == "offline":
        start, end = 0, cfg.t_offline
    else:
        start, end = cfg.t_offline + 1, cfg.t_online
    matrix = cfg.costs_for_seed(cfg.seeds[0])[2].cost_matrix(start, end, kappa)
    matrix.to_csv(out)
    click.echo(f"wrote {phase} cost matrix [{start}, {end}] at kappa={kappa} to {out}")


@main.command("oracle")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--kappa", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None, help="write the strategy as CSV")
@click.option("--table-out", type=click.Path(), default=None, help="export the DP table")
def oracle_cmd(config_path, kappa, seed, out, table_out):
    """Optimal online strategy and its cost for one kappa."""
    cfg = _narrow(RunConfig.load(config_path), seed, kappa)
    costs = cfg.costs_for_seed(cfg.seeds[0])[2]
    matrix = costs.cost_matrix(cfg.t_offline + 1, cfg.t_online, cfg.kappas[0])
    strategy, cost = oracle_strategy(matrix)
    click.echo(f"optimal cost: {format_value(cost)}")
    click.echo(f"retrains at: {','.join(str(b) for b in strategy.retrain_batches)}")
    click.echo(f"strategy: {strategy}")
    if out:
        served = ([t, strategy.serving(t)] for t in range(strategy.start, strategy.end + 1))
        write_csv(out, ["t", "served_by"], served)
    if table_out:
        table = enumerate(dp_rows(matrix), start=matrix.start)
        rows = ([t, matrix.start + p, format_value(v)] for t, row in table for p, v in enumerate(row))
        write_csv(table_out, ["t", "p", "value"], rows)


@main.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--policy", "policy_name", required=True)
@click.option("--kappa", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--trace-out", type=click.Path(), default=None, help="write the cumulative cost trace")
def run_cmd(config_path, policy_name, kappa, seed, trace_out):
    """Run one policy online and print its row of the sweep."""
    cfg = RunConfig.load(config_path)
    spec = next((p for p in cfg.policies if p.name == policy_name), None) or PolicySpec(policy_name)
    cfg = replace(_narrow(cfg, seed, kappa), policies=[spec])
    cache: dict = {}
    _, row = run_sweep(cfg, cache)
    click.echo(f"policy: {make_policy(row.policy, **row.params)!r}")
    click.echo(f"strategy_cost: {format_value(row.strategy_cost)}")
    click.echo(f"oracle_cost: {format_value(row.oracle_cost)}")
    if row.scpe is not None:
        click.echo(f"scpe: {format_value(row.scpe)}")
    else:
        click.echo("scpe: undefined (zero oracle cost)")
    click.echo(f"n_retrains: {row.n_retrains}")
    click.echo(f"query_accuracy: {format_value(row.query_accuracy)}")
    click.echo(f"strategy: {row.strategy}")
    if trace_out:
        matrix = cache[row.seed][2].cost_matrix(cfg.t_offline + 1, cfg.t_online, row.kappa)
        trace = cumulative_cost_trace(row.strategy, matrix)
        rows = ([matrix.start + i, format_value(v)] for i, v in enumerate(trace))
        write_csv(trace_out, ["t", "cumulative_cost"], rows)


@main.command("sweep")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), default=None, help="defaults to the config's output path")
def sweep_cmd(config_path, out):
    """Run the full (policy, kappa, seed) grid and write the results CSV."""
    cfg = RunConfig.load(config_path)
    out = out or cfg.output
    if out is None:
        raise click.UsageError("no output path: pass --out or set 'output' in the config")
    results = run_sweep(cfg)
    results_to_csv(results, out)
    click.echo(f"wrote {len(results)} result rows to {out}")
    click.echo(render_summary(report(results)))


@main.command("report")
@click.option("--results", "results_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), default=None, help="also write the summary as CSV")
def report_cmd(results_path, out):
    """Aggregate a results CSV into per-(dataset, policy) means."""
    summary = report(results_from_csv(results_path))
    click.echo(render_summary(summary))
    if out:
        summary_to_csv(summary, out)
        click.echo(f"wrote summary to {out}")


if __name__ == "__main__":
    main()
