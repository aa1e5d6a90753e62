"""argparse's parser of the CLI's option table, for help and usage errors.

`cli.main` imports this module only for an argv that `cli.parse_argv`
declines, so a well-formed call compiles none of it and loads neither
argparse nor `gettext`. The table comes in as arguments: `cli` runs as
`__main__`, and an import of `zifsim.cli` would run it a second time.
"""

import argparse


def build_parser(global_option, subcommands, exclusive):
    """The parser of GLOBAL_OPTION and SUBCOMMANDS, each subcommand's pair
    in EXCLUSIVE mutually exclusive (see `cli` for the table's form)."""
    parser = argparse.ArgumentParser(
        prog="zifsim",
        description="Turnaround-time and self-interference model for a "
        "zero-IF SDR front-end.",
    )
    _add_options(parser, [global_option], ())
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in subcommands.items():
        _add_options(sub.add_parser(name, help=help_text), options, exclusive.get(name, ()))
    return parser


def _add_options(parser, options, exclusive):
    group = exclusive and parser.add_mutually_exclusive_group()
    for flags, dest, action, choices, metavar, help_text in options:
        kwargs = {"dest": dest, "help": help_text}
        if action != "store_true":
            kwargs.update(choices=choices, metavar=metavar, type=int if action == "int" else None)
        (group if flags in exclusive else parser).add_argument(
            *flags.split(), action="store" if action == "int" else action, **kwargs)
