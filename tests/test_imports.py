"""Import paths and the public API.

Each subcommand loads only the zifsim modules it runs, its own handler
module (`zifsim.cli_<subcommand>`) among them and no other subcommand's.
Budgets, compliance and the config dump are exact rational arithmetic and
start without numpy, and at clocks that divide evenly without
`fractions`: every duration is then a plain int.
`trace` runs one of two trace pipelines, chosen from the config's sizes: a
small trace the per-row loops (`zifsim.looptrace`), with neither numpy nor
the array layer, and a large one the array layer (`zifsim.sim`) with
numpy and no loop module; neither loads `json` for `--format json`. Only
`trace` loads the rules both pipelines share (`zifsim.steps`). Only
`noise` runs the capture layer (`zifsim.rf`), with numpy; only `-c` and
`config --dump` load the config text format (`zifsim.configtext`), only a
config file with schedule lines its regex fast path (`zifsim.configfast`)
and `re` with it, only a `trace` of more commands than its loops take the
numpy schedule reader (`zifsim.configcols`) in its place, and no
subcommand loads the SPI codec (`zifsim.spi`). The rows of `turnaround`,
`comply` and `noise` are written without `json` or `csv` in every format,
and only a json or csv call loads their writers (`zifsim.cli_rowtext`).
`rf` registers `sim` in `sys.modules` for the benchmark's tracer, as a
lazy module that runs on the first read of an attribute, so a `noise`
call holds `sim` but never runs it. The probe tells a module that ran
from one only registered by its type, which reads no attribute. No
path loads `dataclasses`, and the numpy-free ones load no `inspect`
either: the value types build on `params.Record`, which generates no
code. Nor do they load `typing`, which a child without
`site` (`python -S`) shows. A well-formed argv is read from the CLI's
option table, `--out -` included, so only help and usage errors load
the help parser (`zifsim.cli_help`) and argparse, with `gettext` and,
under `python -S`, the `shutil` its help formatter imports. Each case runs in a fresh interpreter, since
a module once imported stays in `sys.modules`.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zifsim
import zifsim.cli_trace as cli_trace
import zifsim.ensm
import zifsim.params
import zifsim.rf
import zifsim.sim
import zifsim.steps

SRC = Path(zifsim.__file__).resolve().parent.parent
WATCHED = ["numpy", "zifsim.looptrace", "zifsim.rf", "zifsim.sim", "zifsim.spi"]
# modules that building classes with generated code would load
CODEGEN = ["dataclasses", "inspect"]

# Runs `python -m zifsim.cli ARGV` (argv given as a Python literal, None
# for a bare `import zifsim`) with its output captured, then prints the
# exit code, which of the watched modules are loaded, every `zifsim.*`
# module loaded, every one that ran (a lazy module not yet run has a type
# of its own), the garbage collector's freeze count and whether it is
# enabled. It imports no module of its own that a test watches, `json`
# included.
PROBE = """
import ast, contextlib, gc, io, runpy, sys
argv, watched = map(ast.literal_eval, sys.argv[1:])
code = None
if argv is None:
    import zifsim
else:
    sys.argv = ["zifsim", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("zifsim.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
print(repr([code, [m for m in watched if m in sys.modules],
            sorted(m for m in sys.modules if m.startswith("zifsim.")),
            sorted(m for m, module in sys.modules.items()
                   if m.startswith("zifsim.") and type(module) is type(sys)),
            gc.get_freeze_count(), gc.isenabled()]))
"""


def run_python(*args, flags=()) -> str:
    """Stdout of `python FLAGS -c ARGS` in a fresh interpreter that finds
    zifsim."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *flags, "-c", *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True,
    )
    return result.stdout


# configs just above the loop pipeline's bounds, in rows (on the default
# 50 ns grid from -2500 ns) and in commands
LARGE_TRACES = {
    "rows": f"trace.end_ns = {50 * cli_trace.LOOP_ROWS}\n",
    "commands": "".join(f"schedule.{k} = trigger @ {k}\n"
                        for k in range(cli_trace.LOOP_COMMANDS + 1)),
}


def write_configs(tmp_path):
    """A small config, one of settings alone and the large ones, as
    {name: path}."""
    files = {"config": tmp_path / "run.cfg", "settings": tmp_path / "settings.cfg"}
    files["config"].write_text("trace.band = 5g\nschedule.0 = lo-off @ 10\n")
    files["settings"].write_text("trace.band = 5g\nclocks.spi_clock_hz = 25000000\n")
    for name, text in LARGE_TRACES.items():
        files[name] = tmp_path / f"{name}.cfg"
        files[name].write_text(text)
    return files


def probe(argv, watched=WATCHED, flags=()):
    """(exit code, the watched modules loaded, every zifsim.* module loaded,
    every zifsim.* module that ran, freeze count at exit, collector enabled
    at exit)"""
    return tuple(ast.literal_eval(run_python(PROBE, repr(argv), repr(watched), flags=flags)))


# the handler modules each subcommand loads
HANDLERS = {
    "turnaround": "cli_rows cli_turnaround",
    "comply": "cli_comply cli_rows",
    "config": "",
    "trace": "cli_trace",
    "noise": "cli_noise cli_rows",
}
SUBCOMMANDS = set(HANDLERS)


@pytest.mark.parametrize("argv, modules", [
    (["turnaround", "--all"], "config ensm errors params"),
    (["turnaround", "--mode", "lo-control", "--dir", "rx-tx"], "config ensm errors params"),
    (["comply"], "config ensm errors mac params"),
    (["comply", "--require", "lo-control"], "config ensm errors mac params"),
    (["config", "--dump"], "config configtext errors params"),
    (["-c", "{config}", "config", "--dump"], "config configtext errors params configfast"),
    (["trace"], "config errors looptrace params steps"),
    (["noise", "--mode", "fdd", "--band", "2g4"], "config errors params rf sim"),
    (["noise", "--capture", "{capture}"], "config errors params rf sim"),
    (["-c", "{config}", "trace"], "config configtext errors looptrace params configfast steps"),
    (["-c", "{rows}", "trace"], "config configtext errors params sim steps"),
    (["-c", "{commands}", "trace"], "config configtext errors params sim configcols steps"),
    (["-c", "{settings}", "config", "--dump"], "config configtext errors params"),
    (["-c", "{settings}", "comply"], "config configtext ensm errors mac params"),
    (["-c", "{settings}", "trace"], "config configtext errors looptrace params steps"),
])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    # besides the call's own handler module and, with it, the row renderer
    # of the subcommands that print rows; never `zifsim.cli` itself, which
    # runs as __main__. The option table reads each argv, so none loads
    # the help parser (`zifsim.cli_help`), argparse or gettext. Only
    # `trace` loads the trace rules (`zifsim.steps`), and only schedule
    # lines in a config file the config fast path (`zifsim.configfast`).
    files = {**write_configs(tmp_path), "capture": tmp_path / "cap.iq"}
    files["capture"].write_bytes(bytes(range(1, 41)))
    argv = [arg.format_map(files) for arg in argv]
    code, watched, loaded, ran, *_ = probe(argv, ["argparse", "gettext"])
    modules = f"{modules} {HANDLERS[next(a for a in argv if a in SUBCOMMANDS)]}".split()
    assert (code, watched, loaded) == (0, [], sorted(f"zifsim.{name}" for name in modules))
    # `rf` registers `sim` for the benchmark's tracer; only `trace` runs it
    assert ran == [name for name in loaded if name != "zifsim.sim" or "trace" in argv]


@pytest.mark.parametrize("argv, code", [
    (None, None),
    (["turnaround", "--all"], 0),
    (["trace"], 0),
    (["config", "--dump"], 0),
    (["comply", "--require", "standard-tdd"], 3),
    (["turnaround", "--bogus"], 2),
])
def test_the_process_entry_point_freezes_the_collector(argv, code):
    # the collector stays off through the call, and the objects alive when
    # main returns are left out of the exit-time collections; a bare
    # import runs no entry point and changes neither
    exit_code, _, _, _, frozen, enabled = probe(argv)
    assert (exit_code, frozen > 0, enabled) == (code, argv is not None, argv is None)


@pytest.mark.parametrize("argv", [
    None,
    ["turnaround", "--all"],
    ["turnaround", "--mode", "lo-control"],
    ["comply"],
    ["comply", "--require", "lo-control"],
    ["config", "--dump"],
    ["-c", "{config}", "turnaround", "--all"],
    ["-c", "{config}", "comply"],
    ["-c", "{config}", "config", "--dump"],
])
def test_exact_subcommands_start_without_numpy(tmp_path, argv):
    # nor dataclasses or inspect, with or without a config file
    config = tmp_path / "run.cfg"
    config.write_text("clocks.spi_clock_hz = 25000000\ndeadlines.extra.tight = 700\n")
    argv = argv and [arg.format(config=config) for arg in argv]
    code, loaded, *_ = probe(argv, WATCHED + CODEGEN)
    assert code == (None if argv is None else 0)
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["turnaround", "--all"],
    ["comply"],
    ["config", "--dump"],
    ["-c", "{config}", "config", "--dump"],
    ["trace"],
])
def test_numpy_free_subcommands_load_no_typing(tmp_path, argv):
    # in a child without `site` (python -S), as a host whose start-up
    # imports nothing sees them: no zifsim module imports `typing`, and
    # no argparse means no `shutil` from its help formatter
    argv = [arg.format_map(write_configs(tmp_path)) for arg in argv]
    assert probe(argv, ["typing", "argparse", "shutil"], flags=["-S"])[:2] == (0, [])


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["turnaround", "--mode", "nope"], 2)])
def test_help_and_usage_errors_load_argparse(argv, code):
    watched = ["argparse", "gettext", "zifsim.cli_help"]
    assert probe(argv, watched)[:2] == (code, watched)


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
@pytest.mark.parametrize("argv", [
    ["trace", "--out", "-"],
    ["turnaround", "--all", "--format", "json", "--out", "-"],
    ["comply", "--format", "csv", "--out", "-"],
])
def test_out_to_stdout_is_read_from_the_table(argv, flags):
    # a lone '-' is a value to argparse, and so to the table parser
    assert probe(argv, ["argparse", "gettext", "zifsim.cli_help"], flags=flags)[:2] == (0, [])


@pytest.mark.parametrize("argv, loaded", [
    (["-c", "{settings}", "config", "--dump"], []),
    (["-c", "{settings}", "turnaround", "--all"], []),
    (["-c", "{settings}", "comply", "--format", "json"], []),
    (["-c", "{settings}", "trace"], []),
    (["-c", "{config}", "config", "--dump"], ["zifsim.configfast", "re"]),
    (["-c", "{config}", "trace"], ["zifsim.configfast", "re"]),
])
def test_only_schedule_lines_load_the_config_fast_path(tmp_path, argv, loaded):
    # and `re` with it, which a child without `site` shows: the per-line
    # parser and every numpy-free path run without it
    argv = [arg.format_map(write_configs(tmp_path)) for arg in argv]
    assert probe(argv, ["zifsim.configfast", "re"], flags=["-S"])[:2] == (0, loaded)


@pytest.mark.parametrize("argv, loaded", [
    (["-c", "{commands}", "trace", "--format", "csv"], ["numpy", "zifsim.configcols"]),
    (["-c", "{commands}", "turnaround", "--all"], []),
    (["-c", "{commands}", "comply"], []),
    (["-c", "{commands}", "config", "--dump"], []),
    (["-c", "{rows}", "trace"], ["numpy"]),
    (["-c", "{config}", "trace"], []),
])
def test_only_a_trace_above_the_loop_bound_reads_its_schedule_as_columns(tmp_path, argv, loaded):
    # that trace runs numpy anyway; the other calls on the same file run
    # none, and a trace of few commands in a large window reads them as
    # it always did
    argv = [arg.format_map(write_configs(tmp_path)) for arg in argv]
    assert probe(argv, ["numpy", "zifsim.configcols"])[:2] == (0, loaded)


@pytest.mark.parametrize("bound, read", [(2, True), (3, False)])
def test_the_column_reader_bound_is_the_loop_bound(tmp_path, monkeypatch, bound, read):
    # `main` passes `cli_trace.LOOP_COMMANDS` itself, read at call time:
    # patched, it moves the reader's bound with the pipeline's
    import zifsim.cli
    import zifsim.configcols

    calls = []
    reader = zifsim.configcols.column_schedule
    monkeypatch.setattr(zifsim.configcols, "column_schedule",
                        lambda text: calls.append(reader(text)) or calls[-1])
    monkeypatch.setattr(cli_trace, "LOOP_COMMANDS", bound)
    config = tmp_path / "three.cfg"
    config.write_text("".join(f"schedule.{k} = lo-on @ {1000 * k}\n" for k in range(3)))
    out = tmp_path / "out.csv"
    assert zifsim.cli.main(["-c", str(config), "trace", "--format", "csv", "--out", str(out)]) == 0
    assert [found is not None for found in calls] == ([True] if read else [])


@pytest.mark.parametrize("argv, loaded", [
    (["turnaround", "--all"], []),
    (["comply", "--format", "table"], []),
    (["noise", "--mode", "fdd", "--band", "2g4"], []),
    (["turnaround", "--all", "--format", "csv"], ["zifsim.cli_rowtext"]),
    (["comply", "--format", "json"], ["zifsim.cli_rowtext"]),
])
def test_only_json_and_csv_rows_load_their_writers(argv, loaded):
    assert probe(argv, ["zifsim.cli_rowtext"])[:2] == (0, loaded)


@pytest.mark.parametrize("argv, loaded", [
    (["-c", "{rows}", "trace"], ["numpy", "zifsim.sim"]),
    (["-c", "{commands}", "trace", "--format", "csv"], ["numpy", "zifsim.sim"]),
    (["noise", "--mode", "fdd", "--band", "2g4"], ["numpy", "zifsim.rf", "zifsim.sim"]),
])
def test_array_subcommands_load_the_array_layers(tmp_path, argv, loaded):
    # numpy itself loads inspect, but nothing on these paths loads
    # dataclasses; `noise` holds `sim` but only `trace` runs it
    argv = [arg.format_map(write_configs(tmp_path)) for arg in argv]
    code, watched, _, ran, *_ = probe(argv, WATCHED + ["dataclasses"])
    assert (code, watched) == (0, loaded)
    assert ("zifsim.sim" in ran) is ("trace" in argv)


@pytest.mark.parametrize("argv", [
    ["trace"],
    ["trace", "--format", "json", "--band", "5g"],
    ["-c", "{config}", "trace", "--format", "csv"],
])
def test_small_traces_load_neither_numpy_nor_the_array_layer(tmp_path, argv):
    # nor dataclasses, inspect or json: the loop pipeline is plain Python
    argv = [arg.format_map(write_configs(tmp_path)) for arg in argv]
    code, loaded, *_ = probe(argv, WATCHED + CODEGEN + ["json"])
    assert (code, loaded) == (0, ["zifsim.looptrace"])


@pytest.mark.parametrize("argv, loaded", [
    (["turnaround", "--all"], []),
    (["trace", "--format", "csv"], []),
    (["turnaround", "--all", "--format", "csv"], []),
    (["turnaround", "--all", "--format", "json"], []),
    # only Infinity and NaN need json, on either trace pipeline
    (["trace", "--format", "json"], []),
    (["-c", "{rows}", "trace", "--format", "json"], []),
    (["turnaround", "--mode", "lo-control", "--format", "json"], []),
    (["comply", "--format", "csv"], []),
    (["comply", "--format", "json"], []),
    (["noise", "--mode", "fdd", "--band", "2g4", "--format", "csv"], []),
    (["noise", "--mode", "fdd", "--band", "2g4", "--format", "json"], []),
])
def test_json_and_csv_load_only_for_their_formats(tmp_path, argv, loaded):
    # which is no format: the row renderer writes both texts itself
    argv = [arg.format_map(write_configs(tmp_path)) for arg in argv]
    assert probe(argv, ["json", "csv"])[:2] == (0, loaded)


@pytest.mark.parametrize("argv", [
    ["turnaround", "--all", "--format", "csv"],
    ["turnaround", "--mode", "lo-control", "--format", "json"],
    ["comply", "--format", "csv"],
    ["comply", "--format", "json"],
    ["trace", "--format", "csv"],
    ["trace", "--format", "json"],
])
def test_numpy_free_outputs_load_no_json_csv_or_re_without_site(argv):
    # in a child without `site`, where numpy does not import: nothing on
    # these paths loads `re` either
    assert probe(argv, ["json", "csv", "re"], flags=["-S"])[:2] == (0, [])


# a config as the benchmark writes one for its small calls: clocks, budgets
# and deadlines at their defaults
SMALL_CONFIG = ("noise.seed = 12345\nnoise.filter_guard_samples = 16\ntrace.band = 5g\n"
                "deadlines.builtin = true\n")
# the exact-rational modules, which only a non-integral duration needs
RATIONAL = ["fractions", "decimal", "numbers"]


@pytest.mark.parametrize("config", [False, True], ids=["default", "small-config"])
@pytest.mark.parametrize("argv", [
    ["turnaround", "--all"],
    ["turnaround", "--mode", "lo-control"],
    ["comply"],
    ["config", "--dump"],
    ["trace"],
    ["noise", "--mode", "fdd", "--band", "2g4"],
])
def test_integral_durations_load_no_fractions(tmp_path, argv, config):
    # every duration at these clocks is a whole ns, so the calls stay in
    # integer arithmetic; numpy imports `numbers` itself
    if config:
        (tmp_path / "small.cfg").write_text(SMALL_CONFIG)
        argv = ["-c", str(tmp_path / "small.cfg"), *argv]
    code, loaded, *_ = probe(argv, RATIONAL)
    assert (code, loaded) == (0, ["numbers"] if "noise" in argv else [])


@pytest.mark.parametrize("argv", [["turnaround", "--mode", "lo-control"], ["trace"]])
def test_a_fractional_frame_loads_fractions(tmp_path, argv):
    # 24 bits at 7 MHz last 3428.571... ns
    (tmp_path / "7mhz.cfg").write_text("clocks.spi_clock_hz = 7000000\n")
    code, loaded, *_ = probe(["-c", str(tmp_path / "7mhz.cfg"), *argv], RATIONAL)
    assert (code, "fractions" in loaded) == (0, True)


# After `import zifsim.rf`: whether `zifsim.sim` is registered and whether
# it ran (by its type, which reads no attribute), then whether each spanned
# function the benchmark's tracer reads from sys.modules is the one a
# `from` import gives, and whether `zifsim.sim` is that registered module.
TRACER_LOOKUP = """
import sys, zifsim.rf
sim = sys.modules.get("zifsim.sim")
print(sim is not None, type(sim) is type(sys))
names = ("expand_schedule", "sample_trace", "measure_turnaround", "trace_to_csv")
looked_up = [getattr(sys.modules["zifsim.sim"], name) for name in names]
from zifsim.sim import expand_schedule, sample_trace, measure_turnaround, trace_to_csv
imported = [expand_schedule, sample_trace, measure_turnaround, trace_to_csv]
import zifsim.sim
print(all(map(callable, looked_up)), [a is b for a, b in zip(looked_up, imported)])
print(type(sim) is type(sys), zifsim.sim is sim, sys.modules["zifsim.sim"] is sim)
"""


def test_importing_rf_registers_sim_without_running_it():
    # the benchmark's traced mode looks the spanned `zifsim.sim` functions
    # up in sys.modules after importing `rf`; the first lookup runs `sim`
    assert run_python(TRACER_LOOKUP).splitlines() == [
        "True False", "True [True, True, True, True]", "True True True"]


def test_the_step_measurement_is_one_object_in_every_module():
    # the benchmark's tracer wraps `sim.measure_turnaround` wherever a
    # zifsim module holds that object, so the loop pipeline's calls reach
    # the wrapper too
    import zifsim.looptrace

    for name in ("find_step", "measure_turnaround"):
        held = [getattr(module, name) for module in (zifsim.sim, zifsim.looptrace,
                                                     zifsim.steps, zifsim)]
        assert all(value is held[0] for value in held), name


def test_the_step_measurement_imports_without_either_pipeline():
    # in a child without `site`: both functions live in `steps`
    code = ("import sys; from zifsim import find_step, measure_turnaround; "
            "print([m for m in ('numpy', 'zifsim.sim', 'zifsim.looptrace') if m in sys.modules])")
    assert run_python(code, flags=["-S"]).strip() == "[]"


def test_no_module_imports_the_spi_codec():
    code = ("import sys, zifsim.cli, zifsim.cli_comply, zifsim.cli_help, zifsim.cli_noise, "
            "zifsim.cli_trace, zifsim.cli_turnaround, zifsim.config, zifsim.configfast, "
            "zifsim.configtext, zifsim.configcols, zifsim.cli_rowtext, zifsim.ensm, "
            "zifsim.looptrace, zifsim.mac, zifsim.rf, "
            "zifsim.sim, zifsim.steps; print('zifsim.spi' in sys.modules)")
    assert run_python(code).strip() == "False"


def imported_names(nodes) -> set:
    """The absolute module names the import statements among NODES name."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    return names


@pytest.mark.parametrize("path", sorted((SRC / "zifsim").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_json_or_csv_and_only_the_fast_path_imports_re(path):
    # read from the source, so a start-up regression fails here even on a
    # path no other test runs: `json` and `csv` at most inside a function
    # that needs them, and `re` only in the config fast path
    tree = ast.parse(path.read_text(), str(path))
    assert not imported_names(tree.body) & {"json", "csv"}, path.name
    assert ("re" in imported_names(ast.walk(tree))) == (path.name == "configfast.py"), path.name


def test_bare_import_loads_no_submodule():
    code = ("import json, sys, zifsim; "
            "print(json.dumps([m for m in sys.modules if m.startswith(('zifsim.', 'numpy'))]))")
    assert json.loads(run_python(code)) == []


def test_public_names_resolve_to_their_home_modules():
    for name in zifsim.__all__:
        home = importlib.import_module(f"zifsim.{zifsim._HOME[name]}")
        value = getattr(home, name)
        assert getattr(zifsim, name) is value, name
        # the table lists each class and function under the module defining it
        if callable(value):
            assert value.__module__ == home.__name__, name
    assert sum(map(len, zifsim._PUBLIC.values())) == len(zifsim.__all__)


def test_array_modules_resolve_as_package_attributes():
    code = "import zifsim; print(zifsim.rf.__name__, zifsim.sim.__name__)"
    assert run_python(code).split() == ["zifsim.rf", "zifsim.sim"]


def test_every_public_name_resolves():
    for name in zifsim.__all__:
        assert getattr(zifsim, name) is not None, name
    assert len(set(zifsim.__all__)) == len(zifsim.__all__)


def test_star_import_binds_all():
    namespace = {}
    exec("from zifsim import *", namespace)
    assert set(zifsim.__all__) <= set(namespace)


def test_dir_lists_all():
    assert set(zifsim.__all__) <= set(dir(zifsim))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        zifsim.no_such_name
    assert not hasattr(zifsim, "no_such_name")


@pytest.mark.parametrize("module, name", [
    (zifsim.ensm, "EnsmMode"),
    (zifsim.ensm, "Direction"),
    (zifsim.rf, "Band"),
    (zifsim.rf, "RfModelParams"),
    (zifsim.sim, "Band"),
    (zifsim.sim, "RfModelParams"),
    (zifsim.sim, "check_sampling"),
    (zifsim, "Band"),
    (zifsim, "RfModelParams"),
    (zifsim, "CommandKind"),
    (zifsim, "frame_duration_ns"),
])
def test_reexports_are_the_same_objects(module, name):
    assert getattr(module, name) is getattr(zifsim.params, name)


def test_lazy_names_are_the_array_layer_objects():
    assert zifsim.expand_schedule is zifsim.sim.expand_schedule
    assert zifsim.IqCapture is zifsim.rf.IqCapture
