"""Each subcommand's option set, pinned: option strings, dest, default, choices,
required, metavar, type, action and help, and the subcommand's help and handler."""

import argparse

import pytest

from negabench import cli
from negabench.constructions import FAMILIES
from negabench.subspaces import SET_SHAPES

ESETS = ["0", "1", "B"]
SPEC = {
    "--family": ("family", None, None, False, None, None, "store",
                 f"construction family ({', '.join(FAMILIES)})"),
    "--k": ("k", None, None, False, None, int, "store", "size parameter k"),
    "--gamma": ("gamma", [], None, False, "BITS", None, "append",
                "gamma vector as a bit string, character j = coordinate j; repeat for several"),
    "--eset": ("eset", [], ESETS, False, None, None, "append",
               "E symbol per gamma for H4K2/H8K2 (B = both values)"),
    "--p": ("p", [], None, False, "BITS", None, "append",
            "orbit representative for F2RS; repeat for several"),
    "--a-set": ("a_set", [], None, False, "BITS", None, "append",
                "orbit-sum vector for F2RS_SET; repeat for several"),
}
IN = {"--in": ("infile", None, None, False, "FILE", None, "store",
               "read the function from a saved JSON file instead")}
OUT = {"--out": ("out", None, None, False, "FILE", None, "store", None)}
FORMAT = {"--format": ("format", "text", ["text", "json"], False, None, None, "store", None)}
LEMMA_SETS = ", ".join(tag for tag, shape in SET_SHAPES.items() if shape.bound)

# name: (help, handler, options), in the order the top-level --help lists them
COMMANDS = {
    "gen": ("build a construction and write its JSON record", cli._cmd_gen, {**SPEC, **OUT}),
    "verify": ("verify a construction or a saved file", cli._cmd_verify,
               {**SPEC, **IN, **FORMAT}),
    "spectrum": ("print a spectrum, one point per line", cli._cmd_spectrum,
                 {**SPEC, **IN, **OUT, "--kind": ("kind", "both", ["walsh", "nega", "both"],
                                                  False, None, None, "store", None)}),
    "anf": ("print the algebraic normal form", cli._cmd_anf, {**SPEC, **IN, **OUT}),
    "dual": ("print the dual's truth table in hex", cli._cmd_dual, {**SPEC, **IN, **OUT}),
    "orbits": ("list rotation orbit representatives", cli._cmd_orbits,
               {**OUT, "--n": ("n", None, None, True, None, int, "store", None)}),
    "lemma-check": ("verify the fragment spectrum formulas of one modifier set",
                    cli._cmd_lemma_check, {
                        **FORMAT,
                        "--set": ("set_family", None, None, True, None, None, "store",
                                  f"modifier set family ({LEMMA_SETS})"),
                        "--k": ("k", None, None, True, None, int, "store", None),
                        "--gamma": ("gamma", [], None, False, "BITS", None, "append", None),
                        "--eset": ("eset", [], ESETS, False, None, None, "append", None)}),
    "table1": ("verify the bent/negabent relation table", cli._cmd_table1,
               {**FORMAT, "--k": ("k", 1, None, False, None, int, "store", None)}),
    "su-check": ("verify the subspace-modification comparison cases", cli._cmd_su_check,
                 FORMAT),
    "repro-examples": ("replay the recorded worked examples", cli._cmd_repro_examples, FORMAT),
}
ACTIONS = {argparse._StoreAction: "store", argparse._AppendAction: "append"}


def _subparsers() -> argparse._SubParsersAction:
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_commands_and_their_help():
    sub = _subparsers()
    assert list(sub.choices) == list(COMMANDS)
    assert [(c.dest, c.help) for c in sub._choices_actions] == [
        (name, help_) for name, (help_, _, _) in COMMANDS.items()]


@pytest.mark.parametrize("name", COMMANDS)
def test_option_set(name):
    _, handler, want = COMMANDS[name]
    sp = _subparsers().choices[name]
    assert sp.get_default("handler") is handler
    got = {}
    for a in sp._actions:
        if isinstance(a, argparse._HelpAction):
            continue
        (flag,) = a.option_strings
        got[flag] = (a.dest, a.default, a.choices, a.required, a.metavar, a.type,
                     ACTIONS[type(a)], a.help)
    assert got == want


@pytest.mark.parametrize("name", COMMANDS)
def test_artifacts_write_out_and_reports_take_format(name):
    options = COMMANDS[name][2]
    artifact = name in ("gen", "spectrum", "anf", "dual", "orbits")
    assert ("--out" in options, "--format" in options) == (artifact, not artifact)
    assert ("--in" in options) == (name in ("verify", "spectrum", "anf", "dual"))
    assert (set(SPEC) <= set(options)) == (name in ("gen", "verify", "spectrum", "anf", "dual"))
