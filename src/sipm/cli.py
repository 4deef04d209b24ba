"""Command-line front end: solve, estimate, bench, parse-check.

A flag that sets a spec field takes that field's ``ProblemSpec`` or
``ExperimentSpec`` default.  bench's ``--solver`` (sipm,psgm) and the flags no
field defaults (``--model``, ``--out``, ``--format``, ``--cache-dir``) carry
their own.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import fields
from itertools import islice

from .errors import InvalidChoice, SipmError
from .harness import (MODELS, SOLVERS, SPEC_CHOICES, EstimatedConstants, ExperimentSpec,
                      ProblemSpec, report_csv_chunks, report_json_chunks, run_experiment)
from .libsvm import align_feature_space, parse_libsvm_file

MODES = {"det": "deterministic", "stoch": "stochastic"}
EMIT_BATCH = 4096   # output chunks joined per write


def _seed_list(text):
    """--seeds: comma-separated integers."""
    return tuple(int(s) for s in text.split(","))


class _Parser(argparse.ArgumentParser):
    """Reads -inf as a number, not as an option, so that ``--bounds -inf 1``
    gives a box open below; subcommand parsers share the class."""

    def _parse_optional(self, arg_string):
        if arg_string.lower() in ("-inf", "-infinity"):
            return None
        return super()._parse_optional(arg_string)


def _add_common(parser):
    """The flags of every experiment command: problem, budget, box, output."""
    parser.add_argument("--model", choices=MODELS, default="quadratic")
    flag_of_mode = {mode: flag for flag, mode in MODES.items()}
    parser.add_argument("--mode", choices=MODES, default=flag_of_mode[ExperimentSpec.mode])
    parser.add_argument("--train", metavar="PATH", default=ProblemSpec.train_path)
    parser.add_argument("--test", metavar="PATH", default=ProblemSpec.test_path)
    parser.add_argument("--maxiter", type=int, default=ExperimentSpec.maxiter)
    parser.add_argument("--epochs", type=float, default=ExperimentSpec.epochs)
    parser.add_argument("--batch-frac", type=float, default=ExperimentSpec.batch_fraction)
    parser.add_argument("--bounds", nargs=2, type=float, default=ExperimentSpec.bounds,
                        metavar=("LO", "HI"))
    parser.add_argument("--out", default="-")
    parser.add_argument("--dim", type=int, default=ProblemSpec.dim,
                        help="dimension (quadratic) or feature count (synthetic data)")
    parser.add_argument("--samples", type=int, default=ProblemSpec.samples,
                        help="sample count for synthetic datasets")
    parser.add_argument("--data-seed", type=int, default=ProblemSpec.data_seed)
    parser.add_argument("--init-seed", type=int, default=ExperimentSpec.init_seed)
    parser.add_argument("--hidden", type=int, default=ProblemSpec.hidden)
    parser.add_argument("--cache-dir", default=None)


def _add_run_flags(parser, multi_solver):
    """solve's and bench's flags: the common ones, then the ones only they read
    (solvers, seeds, schedule, audit, report)."""
    _add_common(parser)
    if multi_solver:
        parser.add_argument("--solver", default="sipm,psgm",
                            help=f"comma-separated subset of {','.join(SOLVERS)}")
    else:
        parser.add_argument("--solver", choices=SOLVERS,
                            default=",".join(ExperimentSpec.solvers))
    parser.add_argument("--seeds", type=_seed_list, default=ExperimentSpec.seeds,
                        help="comma-separated integers")
    for flag, exponent in zip(("--t-mu", "--t-theta", "--t-alpha"), ExperimentSpec.exponents):
        parser.add_argument(flag, type=float, default=exponent)
    parser.add_argument("--schedule", choices=SPEC_CHOICES["schedule"],
                        default=ExperimentSpec.schedule)
    parser.add_argument("--param-mode", choices=SPEC_CHOICES["param_mode"],
                        default=ExperimentSpec.param_mode)
    parser.add_argument("--audit", choices=SPEC_CHOICES["audit"], default=ExperimentSpec.audit)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--trace", action="store_true")


def _spec_from_args(args, **run_options):
    """The one-problem spec of a command; ``run_options`` holds what the
    solve and bench flags set, and estimate leaves at the spec defaults."""
    problem = ProblemSpec(name=args.model, model=args.model,
                          train_path=args.train, test_path=args.test,
                          dim=args.dim, data_seed=args.data_seed,
                          samples=args.samples, hidden=args.hidden)
    return ExperimentSpec(problems=(problem,), mode=MODES[args.mode],
                          maxiter=args.maxiter, epochs=args.epochs,
                          batch_fraction=args.batch_frac, bounds=tuple(args.bounds),
                          init_seed=args.init_seed, **run_options)


def _emit(chunks, out_path):
    """Write text given as an iterable of string chunks to ``out_path``, or
    to stdout for "-", ending stdout's text with a newline if it has none.
    Chunks are joined ``EMIT_BATCH`` at a time, so the whole text is never
    held, and one ``write`` call serves a few thousand of them."""
    chunks = iter(chunks)
    with (nullcontext(sys.stdout) if out_path == "-"
          else open(out_path, "w", encoding="ascii")) as handle:
        text = ""
        for batch in iter(lambda: list(islice(chunks, EMIT_BATCH)), []):
            text = "".join(batch)
            handle.write(text)
        if out_path == "-" and not text.endswith("\n"):
            handle.write("\n")


def _write_report(report, args):
    """Stream a finished run's report to ``args.out`` in ``args.format``."""
    chunks = report_json_chunks if args.format == "json" else report_csv_chunks
    _emit(chunks(report), args.out)


def _cmd_run(args):
    """solve and bench: one solver or a comma-separated list."""
    solvers = tuple(s.strip() for s in args.solver.split(",") if s.strip())
    if not solvers:   # a spec without solvers is an estimate; bench must run one
        raise InvalidChoice("solver", args.solver, SOLVERS)
    spec = _spec_from_args(args, solvers=solvers, seeds=args.seeds, schedule=args.schedule,
                           param_mode=args.param_mode,
                           exponents=(args.t_mu, args.t_theta, args.t_alpha),
                           audit=args.audit, trace=args.trace)
    _write_report(run_experiment(spec, cache_dir=args.cache_dir), args)
    return 0


def _cmd_estimate(args):
    """An experiment without solvers: the problem's constants, or its error."""
    report = run_experiment(_spec_from_args(args, solvers=()), cache_dir=args.cache_dir)
    config = report["config"]
    name = config["problems"][0]["name"]
    if name not in report["constants"]:   # the problem's one error entry
        print(f"error: {report['runs'][0]['error']}", file=sys.stderr)
        return 1
    estimated = report["constants"][name]
    payload = {"problem": name,
               "mode": config["mode"],
               "resolved_maxiter": config["resolved_maxiter"],
               "constants": {f.name: estimated[f.name] for f in fields(EstimatedConstants)}}
    _emit(report_json_chunks(payload), args.out)
    return 0


def _file_summary(ds):
    """A parsed file's own row count, width, nonzero count and label values."""
    return {"m": ds.m, "n_f": ds.n_features, "nnz": ds.rows.indices.size,
            "labels": list(ds.label_values())}


def _cmd_parse_check(args):
    train = parse_libsvm_file(args.train)
    summary = {"train": _file_summary(train)}
    if args.test is not None:
        test = parse_libsvm_file(args.test)
        summary["test"] = _file_summary(test)
        summary["aligned_n_f"] = align_feature_space(train, test)[0].n_features
    _emit(report_json_chunks(summary), args.out)
    return 0


def _add_parse_check_flags(parser):
    parser.add_argument("--train", metavar="PATH", required=True)
    parser.add_argument("--test", metavar="PATH", default=None)
    parser.add_argument("--out", default="-")


# name: (help, handler, the function that adds its flags)
COMMANDS = {
    "solve": ("run one solver on one problem", _cmd_run,
              lambda parser: _add_run_flags(parser, multi_solver=False)),
    "estimate": ("estimate problem constants", _cmd_estimate, _add_common),
    "bench": ("compare solvers over seeds", _cmd_run,
              lambda parser: _add_run_flags(parser, multi_solver=True)),
    "parse-check": ("validate LIBSVM data files", _cmd_parse_check, _add_parse_check_flags),
}


def build_parser(command=None):
    """The sipm parser with every subcommand.  Given one subcommand's name, it
    adds the flags of that one only (``main`` parses one command); given
    anything else, those of all four.  Usage, help and error texts are the
    same either way for the named command."""
    parser = _Parser(
        prog="sipm",
        description="Interior-point and projection solvers for box-constrained "
                    "smooth minimization, with a benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, add_flags) in COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        if command == name or command not in COMMANDS:
            add_flags(subparser)
        subparser.set_defaults(handler=handler)
    return parser


def main(argv=None):
    """Run one command; any SipmError or OSError (a data file that cannot be
    read, an output path that cannot be written) becomes one
    ``error: <Type>: <message>`` line on stderr and exit status 1."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.handler(args)
    except (SipmError, OSError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
