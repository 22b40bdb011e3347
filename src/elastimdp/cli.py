"""Command-line surface.

Subcommands:

* ``run``         -- policy-comparison experiment from a config file
* ``gen-dataset`` -- write the measurement CSV a config's runs read
* ``query``       -- evaluate a Pmax/Pmin reachability query
* ``validate``    -- check a config file or a model dump
* ``replay``      -- re-score a trace CSV under a config's utility

A command that reads a config gets it from `_config` alone; ``query``
answers from a ``--model-dump`` instead when given one.

Exit status is 0 on success, 1 when a run aborts, and 2 with one `error:`
line on stderr for any configuration, parse or input error.  That includes
a model dump that `MdpModel.loads` refuses: a dump loads only as a valid
model whose `trans` lines are those `query --dump-model` writes, so
`validate` on a dump exits 0 or 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import harness
from .emulator import trace_from_csv, trace_to_csv
from .errors import ElastimdpError
from .logs import write_records_csv
from .model import MdpModel
from .policies import PolicyKind, instantiate_model, MDP_KINDS
from .queries import parse_query
from .rewards import utility_eval
from .solver import reachability_probability


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastimdp",
        description="MDP-based elasticity decisions and policy comparison",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a policy-comparison experiment")
    _add_config_flags(run)
    run.add_argument("--seed", type=int, default=None, help="override the base seed")
    run.add_argument("--out-dir", default="results", help="directory for output files")

    gen = sub.add_parser("gen-dataset", help="write the configured dataset as a CSV")
    _add_config_flags(gen)
    gen.add_argument("--out", required=True, help="output CSV path")

    query = sub.add_parser("query", help="evaluate a reachability query")
    query.add_argument("query", help='e.g. "Pmax=? [ F latency<30 & vms_num=7 ]"')
    query.add_argument("--model-dump", help="text dump of an instantiated model")
    _add_config_flags(query)
    query.add_argument(
        "--policy",
        default="mdp2",
        choices=[k.value for k in MDP_KINDS],
        help="model variant for live instantiation",
    )
    query.add_argument("--load", type=float, default=None, help="incoming load (req/s)")
    query.add_argument("--vms", type=int, default=None, help="current cluster size")
    query.add_argument(
        "--dump-model", help="also write the instantiated model's text dump here"
    )

    validate = sub.add_parser("validate", help="check a config or a model dump")
    validate.add_argument("--config", help="experiment config file")
    validate.add_argument("--model-dump", help="model dump file")
    validate.set_defaults(overrides=[])

    replay = sub.add_parser("replay", help="re-score a trace under a config's utility")
    replay.add_argument("--trace", required=True, help="trace CSV to re-score")
    _add_config_flags(replay)
    replay.add_argument("--out", help="where to write the re-scored trace CSV")

    return parser


def _add_config_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument("--config", help="experiment config file (defaults built in)")
    command.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config key",
    )


def _config(args: argparse.Namespace) -> harness.ExperimentConfig:
    """The `--config` file (else the defaults) under every `--set`."""
    overrides = {}
    for item in args.overrides:
        dotted, sep, value = item.partition("=")
        if not sep:
            raise ElastimdpError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        overrides[dotted.strip()] = value.strip()
    text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    return harness.parse_config(text, overrides)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.seed is not None:
        args.overrides.append(f"experiment.base_seed={args.seed}")
    result = harness.run_comparison(_config(args))
    out_dir = harness.write_outputs(result, args.out_dir)
    sys.stdout.write(harness.text_report(result))
    sys.stdout.write(f"\noutputs written to {out_dir}\n")
    if not result.all_valid:
        sys.stderr.write("error: one or more runs aborted; see report\n")
        return 1
    return 0


def _cmd_gen_dataset(args: argparse.Namespace) -> int:
    records = harness.load_dataset(_config(args))
    write_records_csv(args.out, records)
    sys.stdout.write(f"wrote {len(records)} records to {args.out}\n")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.model_dump:
        if args.config or args.overrides:
            raise ElastimdpError("query takes --model-dump or --config/--set, not both")
        model = MdpModel.loads(Path(args.model_dump).read_text(encoding="utf-8"))
    else:
        config = _config(args)
        store = harness.build_store(config, harness.load_dataset(config))
        load = args.load if args.load is not None else config.load.load_min
        if not 0 <= load < math.inf:
            raise ElastimdpError(f"--load must be finite and >= 0, got {load!r}")
        vms = args.vms if args.vms is not None else config.schedule.initial_vms
        model, _ = instantiate_model(
            PolicyKind(args.policy),
            store,
            load,
            vms,
            None,
            config.model,
            config.utility,
            config.clustering,
        )
    if args.dump_model:
        Path(args.dump_model).write_text(model.dump(), encoding="utf-8")
    probability = reachability_probability(model, parse_query(args.query))
    sys.stdout.write(f"{probability!r}\n")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if not args.config and not args.model_dump:
        raise ElastimdpError("validate needs --config and/or --model-dump")
    if args.config:
        _config(args)
        sys.stdout.write(f"config ok: {args.config}\n")
    if args.model_dump:
        MdpModel.loads(Path(args.model_dump).read_text(encoding="utf-8"))
        sys.stdout.write(f"model ok: {args.model_dump}\n")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    utility = _config(args).utility
    trace = trace_from_csv(Path(args.trace).read_text(encoding="utf-8"))
    trace.records = [
        dataclasses.replace(
            record,
            utility=utility_eval(utility, record.latency_ms, record.throughput, record.vms),
            violation=record.latency_ms > utility.latency_threshold_ms,
        )
        for record in trace.records
    ]
    metrics = harness.compute_metrics(trace)
    if args.out:
        Path(args.out).write_text(trace_to_csv(trace), encoding="utf-8")
        sys.stdout.write(f"re-scored trace written to {args.out}\n")
    sys.stdout.write(
        f"mean_utility={metrics.mean_utility!r} violations={metrics.violations}\n"
    )
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "gen-dataset": _cmd_gen_dataset,
    "query": _cmd_query,
    "validate": _cmd_validate,
    "replay": _cmd_replay,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ElastimdpError, OSError, UnicodeDecodeError) as exc:
        # One line, even for multi-line parser messages.
        sys.stderr.write(f"error: {' '.join(str(exc).splitlines())}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
