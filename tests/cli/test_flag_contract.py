"""The CLI's flag contract: every subcommand's options, dests and defaults.

The table was taken from the parser before the flag groups were factored
into shared helpers, so it pins that refactors add, drop, rename or
re-default no option.  It also catches a shared-action leak: argparse
``parents=`` parsers share action objects between subcommands, so a
``set_defaults`` on one (``sweep``'s 50k accesses) would silently change
the others (``run``/``profile``'s 100k, ``trace``'s ``None``).
"""

import argparse

import pytest

from repro.cli.main import build_parser

#: subcommand -> {option string (or positional dest): (dest, default)}.
CONTRACT = {
    "workloads": {},
    "trace": {
        "target": ("target", None),
        "workload": ("workload", None),
        "--accesses": ("accesses", None),
        "--scale": ("scale", 64),
        "--out": ("out", None),
        "--cache-mb": ("cache_mb", 1024),
        "--replacement": ("replacement", "fifo"),
        "--warmup": ("warmup", 0.25),
        "--interval": ("interval", 1024),
        "--interval-unit": ("interval_unit", "accesses"),
        "--trace-out": ("trace_out", None),
        "--timeseries-out": ("timeseries_out", None),
        "--smoke": ("smoke", False),
    },
    "run": {
        "design": ("design", None),
        "workload": ("workload", None),
        "--accesses": ("accesses", 100_000),
        "--cache-mb": ("cache_mb", 1024),
        "--scale": ("scale", 64),
        "--replacement": ("replacement", "fifo"),
        "--warmup": ("warmup", 0.25),
        "--json": ("json", False),
        "--trace": ("trace_out", None),
        "--timeseries": ("timeseries_out", None),
        "--interval": ("interval", 1024),
        "--timeout": ("timeout", None),
        "--retries": ("retries", 0),
        "--engine": ("engine", None),
        "--machine": ("machine_file", None),
        "--set": ("machine_sets", []),
    },
    "experiment": {
        "figure": ("figure", None),
        "--accesses": ("accesses", None),
        "--json": ("json", False),
        "--artifact": ("artifact", None),
        "--machine": ("machine_file", None),
        "--set": ("machine_sets", []),
        "--jobs": ("jobs", 1),
        "--cache-dir": ("cache_dir", None),
        "--no-cache": ("no_cache", False),
        "--timeout": ("timeout", None),
        "--retries": ("retries", 0),
        "--retry-backoff": ("retry_backoff", 0.5),
        "--resume": ("resume", None),
        "--resume-strict": ("resume_strict", False),
        "--trace": ("trace_out", None),
        "--timeseries": ("timeseries_out", None),
        "--engine": ("engine", None),
        "--live": ("live", False),
        "--metrics": ("metrics_out", None),
    },
    "sweep": {
        "--designs": ("designs",
                      ["no-l3", "bi", "sram", "tagless", "ideal"]),
        "--workloads": ("workloads", None),
        "--cache-sizes": ("cache_sizes", [1024]),
        "--accesses": ("accesses", 50_000),
        "--scale": ("scale", 64),
        "--replacement": ("replacement", "fifo"),
        "--warmup": ("warmup", 0.25),
        "--out": ("out", "sweep.jsonl"),
        "--json": ("json", False),
        "--validate": ("validate", False),
        "--machine": ("machine_file", None),
        "--set": ("machine_sets", []),
        "--jobs": ("jobs", 1),
        "--cache-dir": ("cache_dir", None),
        "--no-cache": ("no_cache", False),
        "--timeout": ("timeout", None),
        "--retries": ("retries", 0),
        "--retry-backoff": ("retry_backoff", 0.5),
        "--resume": ("resume", None),
        "--resume-strict": ("resume_strict", False),
        "--trace": ("trace_out", None),
        "--timeseries": ("timeseries_out", None),
        "--engine": ("engine", None),
        "--live": ("live", False),
        "--metrics": ("metrics_out", None),
    },
    "campaign run": {
        "study": ("study", None),
        "--out": ("out", None),
        "--resume": ("resume", False),
        "--smoke": ("smoke", False),
        "--machine": ("machine_file", None),
        "--set": ("machine_sets", []),
        "--jobs": ("jobs", 1),
        "--cache-dir": ("cache_dir", None),
        "--no-cache": ("no_cache", False),
        "--timeout": ("timeout", None),
        "--retries": ("retries", 0),
        "--retry-backoff": ("retry_backoff", 0.5),
        "--resume-strict": ("resume_strict", False),
        "--json": ("json", False),
        "--live": ("live", False),
        "--metrics": ("metrics_out", None),
    },
    "campaign resume": {
        "dir": ("dir", None),
        "--jobs": ("jobs", 1),
        "--cache-dir": ("cache_dir", None),
        "--no-cache": ("no_cache", False),
        "--timeout": ("timeout", None),
        "--retries": ("retries", 0),
        "--retry-backoff": ("retry_backoff", 0.5),
        "--resume-strict": ("resume_strict", False),
        "--json": ("json", False),
        "--live": ("live", False),
        "--metrics": ("metrics_out", None),
    },
    "campaign report": {
        "dir": ("dir", None),
        "--json": ("json", False),
    },
    "profile": {
        "--design": ("design", "tagless"),
        "--workload": ("workload", "mcf"),
        "--accesses": ("accesses", 100_000),
        "--cache-mb": ("cache_mb", 1024),
        "--scale": ("scale", 64),
        "--replacement": ("replacement", "fifo"),
        "--warmup": ("warmup", 0.25),
        "--top": ("top", 25),
        "--sort": ("sort", "cumulative"),
        "--json": ("json", False),
    },
    "report": {
        "artifact": ("artifact", None),
        "--width": ("width", 60),
        "--metrics": ("metrics", None),
    },
    "status": {
        "dir": ("dir", None),
        "--json": ("json", False),
        "--smoke": ("smoke", False),
    },
    "merge-trace": {
        "traces": ("traces", None),
        "--out": ("out", None),
    },
    "tenants": {
        "scenario": ("scenario", None),
        "--design": ("design", "tagless-resizable"),
        "--cache-mb": ("cache_mb", 512),
        "--cores": ("cores", 4),
        "--scale": ("scale", 512),
        "--replacement": ("replacement", "fifo"),
        "--tlb-scale": ("tlb_scale", 32),
        "--validate": ("validate", False),
        "--every": ("every", None),
        "--json": ("json", False),
    },
    "validate": {
        "--accesses": ("accesses", 40_000),
    },
    "check": {
        "--design": ("design", ["no-l3", "bi", "sram", "tagless", "ideal",
                                "alloy", "tagless-resizable"]),
        "--accesses": ("accesses", 20_000),
        "--every": ("every", None),
        "--workload": ("workload", "mcf"),
        "--smoke": ("smoke", False),
    },
}


def _subparsers(parser, prefix=()):
    """Yield ``(name, parser)`` for every leaf (sub)command."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subparsers(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


def _flags(parser):
    flags = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        assert len(action.option_strings) <= 1, action.option_strings
        key = action.option_strings[0] if action.option_strings \
            else action.dest
        # Parser-level defaults win over action defaults, as in
        # parse_args.
        default = parser._defaults.get(action.dest, action.default)
        flags[key] = (action.dest, default)
    return flags


LEAVES = dict(_subparsers(build_parser()))


def test_every_subcommand_is_pinned():
    assert sorted(LEAVES) == sorted(CONTRACT)


@pytest.mark.parametrize("command", sorted(CONTRACT))
def test_flags_match_contract(command):
    assert _flags(LEAVES[command]) == CONTRACT[command]


@pytest.mark.parametrize("argv, accesses", [
    (["run", "tagless", "mcf"], 100_000),
    (["profile"], 100_000),
    (["sweep", "--workloads", "mcf"], 50_000),
    (["trace", "tagless", "mcf"], None),
])
def test_accesses_defaults_stay_per_command(argv, accesses):
    assert build_parser().parse_args(argv).accesses == accesses
