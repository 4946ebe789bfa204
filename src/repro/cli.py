"""Command-line interface: the top-level parser, the options that pick a
simulated cell, and dispatch.

Each package owns its commands.  ``repro/<package>/commands.py`` defines
``register(subparsers, common)``: it adds the package's subcommands, binds
each to its handler with ``set_defaults(handler=...)``, and adds the
shared cell options through ``common`` (:class:`CellOptions`).  Adding a
command edits its package, never this module; a package deleted takes its
commands with it.  Handlers take the parsed arguments and return the exit
code; ``args.config`` is the :class:`~repro.config.GPUConfig` that
``--fermi`` picks.

``python -m repro --help`` lists the commands; README.md shows them at
work.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from .config import GPUConfig
from .core.cawa import SCHEMES
from .workloads import workload_names


class CellOptions:
    """The options that pick one simulated cell, each defined here once: a
    workload (flag or positional), a scheme, ``--scale`` and ``--fermi``;
    and ``--jobs``, the processes a grid of cells runs on.

    ``register`` functions get this class as ``common`` and add the
    options where their parser lists them; :meth:`cell` adds all four in
    that order.
    """

    @staticmethod
    def workload(parser: argparse._ActionsContainer, positional: bool = False,
                 required: bool = True) -> None:
        """Any registry workload, synthetic ones included."""
        flag: Dict[str, Any] = {} if positional else {"required": required}
        parser.add_argument("workload" if positional else "--workload",
                            choices=workload_names(include_synthetic=True),
                            **flag)

    @staticmethod
    def scheme(parser: argparse._ActionsContainer, positional: bool = False,
               default: str = "rr", help: Optional[str] = None) -> None:
        """A scheme name; positional schemes are optional."""
        parser.add_argument("scheme" if positional else "--scheme",
                            nargs="?" if positional else None,
                            default=default, choices=sorted(SCHEMES), help=help)

    @staticmethod
    def scale(parser: argparse._ActionsContainer) -> None:
        parser.add_argument("--scale", type=float, default=1.0)

    @staticmethod
    def fermi(parser: argparse._ActionsContainer) -> None:
        parser.add_argument("--fermi", action="store_true",
                            help="use the full Table 1 GTX480 configuration (slow)")

    @staticmethod
    def jobs(parser: argparse._ActionsContainer) -> None:
        parser.add_argument(
            "--jobs", type=_at_least_one, default=None, metavar="N",
            help="processes the grid runs on, this one included (default: "
            "the usable cores; 1 runs it in this process)")

    @classmethod
    def cell(cls, parser: argparse._ActionsContainer, positional: bool = False,
             scheme: str = "rr", scheme_help: Optional[str] = None) -> None:
        """Workload, scheme, ``--scale`` and ``--fermi``, in that order."""
        cls.workload(parser, positional)
        cls.scheme(parser, positional, scheme, scheme_help)
        cls.scale(parser)
        cls.fermi(parser)


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAWA (ISCA 2015) reproduction: run workloads, schemes, "
        "and paper figures on the SIMT GPU simulator.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for path in sorted(Path(__file__).resolve().parent.glob("*/commands.py")):
        module = importlib.import_module(f"{__package__}.{path.parent.name}.commands")
        module.register(subparsers, CellOptions)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.config = (GPUConfig.fermi_gtx480() if getattr(args, "fermi", False)
                   else GPUConfig.default_sim())
    handler: Callable[[Any], int] = args.handler
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
