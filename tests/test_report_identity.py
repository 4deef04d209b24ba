import importlib.util
import pathlib

import pytest

from sipm import cli

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "report_identity.py"
spec = importlib.util.spec_from_file_location("report_identity", TOOL)
report_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_identity)


@pytest.mark.parametrize("shape", sorted(report_identity.SHAPES))
@pytest.mark.parametrize("seed", report_identity.SEEDS)
def test_every_shape_parses(shape, seed):
    """Each listed bench argument list is one the CLI accepts, so the list
    cannot drift from the parser."""
    args = cli.build_parser().parse_args(report_identity.bench_argv(shape, seed))
    assert args.command == "bench"
    assert (args.init_seed, args.data_seed) == (seed, seed)
