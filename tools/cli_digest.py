"""One sha256 per output of a fixed list of seeded CLI commands, or how the
outputs of two source trees differ.

    python tools/cli_digest.py [SRC]
    python tools/cli_digest.py --compare OLD NEW

SRC is a source tree: a checkout's root or its ``src`` directory (default:
this checkout's). The commands run in process against the ``infoflow``
package found there, inside a fresh temporary directory, so that no path
in an output depends on where it ran:

- ``simulate`` of chain_3 and confounder_3 at n = 1e4, seeds 1 and 2;
- on each panel, at k = 1, 2 and 4, each without and with 199 surrogates:
  ``matrix`` and ``estimate`` (text and JSON), ``graph`` (DOT and JSON) and
  ``window`` (CSV and JSON) at 2000/1000, where each window is one step
  and a head, and at 2000/100, where it pools a head with runs of 1, 2
  and 16 steps;
- refusals: ``estimate`` on a two-series panel with b = 2a (singular),
  ``matrix`` on a chain_3 panel of n = 6 at k = 1 (n - k = d + 2 samples)
  and ``simulate --n 1``;
- the time-column rules, on the chain_3 seed-1 panel: ``matrix
  --no-time-column`` (``t`` read as a series), ``matrix --time-column t``
  and the refusal of ``estimate`` with ``--dt`` beside the time column.

That is 254 outputs. Each line is the sha256 of one output (the command's
stdout, or a file that ``simulate`` wrote, followed by its stderr when it
exits nonzero, so that a changed message counts), its exit code and the
command. Two source trees give byte-identical outputs exactly when
``diff`` of their listings is empty.

``--compare`` runs the commands against OLD and then NEW in one process
and prints a line for each output that differs: whether only its
whitespace differs (the two are equal once all whitespace is removed, so
a space put between two cells that ran together counts), or else whether
only its numeric tokens differ and, if so, their largest relative
difference; whether the exit codes match; for ``graph``, whether the edge
sets (self loops included) match; for ``window``, whether the same
windows are null. A summary follows. It exits 1 when any output differs
in more than its whitespace or numbers or in any of these, else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

PANELS = [(name, seed) for name in ("chain_3", "confounder_3") for seed in (1, 2)]
N = 10_000
STRIDES = (1, 2, 4)
SURROGATES = (0, 199)
COMMANDS = (
    ("matrix",),
    ("matrix", "--json"),
    ("estimate", "--source", "1", "--target", "2"),
    ("estimate", "--source", "1", "--target", "2", "--json"),
    ("graph", "--format", "dot"),
    ("graph", "--format", "json"),
    ("window", "--window", "2000", "--step", "1000"),
    ("window", "--window", "2000", "--step", "1000", "--json"),
    ("window", "--window", "2000", "--step", "100"),
    ("window", "--window", "2000", "--step", "100", "--json"),
)


# A decimal number as the outputs print it: integer, fixed or exponent form.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _import_cli(src: Path):
    """``infoflow.cli.main`` from the package under ``src``; a package
    imported from another tree before is dropped first."""
    if (src / "src" / "infoflow").is_dir():
        src = src / "src"
    if not (src / "infoflow").is_dir():
        raise SystemExit(f"no infoflow package under {src}")
    for name in [name for name in sys.modules if name == "infoflow" or name.startswith("infoflow.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src.resolve()))
    try:
        from infoflow.cli import main
    finally:
        sys.path.pop(0)

    print(f"# infoflow from {Path(sys.modules['infoflow'].__file__).parent}", file=sys.stderr)
    return main


def _run(main, argv: list[str]) -> tuple[int, bytes]:
    """The exit code and output of one command: its stdout, and then its
    stderr when it exits nonzero."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, (out.getvalue() + (err.getvalue() if code else "")).encode("utf-8")


def _refusals(main):
    """(command, exit code, output) of each command that must fail."""
    a = [(m * 37 % 101 - 50) / 8 for m in range(60)]
    Path("double.csv").write_text("a,b\n" + "".join(f"{x!r},{2 * x!r}\n" for x in a), encoding="utf-8")
    _run(main, ["simulate", "--benchmark", "chain_3", "--n", "6", "--seed", "1", "-o", "short.csv"])
    for argv in (["estimate", "double.csv", "--source", "a", "--target", "b"],
                 ["matrix", "short.csv", "--k", "1"],
                 ["simulate", "--benchmark", "chain_3", "--n", "1", "--seed", "1", "-o", "one.csv"]):
        yield (argv, *_run(main, argv))


def _time_columns(main):
    """(command, exit code, output) of each command that pins how the time
    column of a ``simulate`` file is read."""
    for argv in (["matrix", "chain_3-1.csv", "--no-time-column"],
                 ["matrix", "chain_3-1.csv", "--time-column", "t"],
                 ["estimate", "chain_3-1.csv", "--source", "1", "--target", "2", "--dt", "0.5"]):
        yield (argv, *_run(main, argv))


def _line(data: bytes, code: int, argv: list[str]) -> str:
    return f"{hashlib.sha256(data).hexdigest()}  {code}  {' '.join(argv)}"


def _outputs(main):
    """(command, exit code, output bytes) of every output, in listing order;
    the commands run in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, seed in PANELS:
                csv = f"{name}-{seed}.csv"
                argv = ["simulate", "--benchmark", name, "--n", str(N), "--seed", str(seed), "-o", csv]
                code, _ = _run(main, argv)
                for path in (csv, f"{name}-{seed}.meta.json"):
                    yield argv + [f"[{path}]"], code, Path(path).read_bytes()
                for k in STRIDES:
                    for surrogates in SURROGATES:
                        for command in COMMANDS:
                            argv = [command[0], csv, *command[1:], "--k", str(k),
                                    "--surrogates", str(surrogates), "--seed", str(seed)]
                            code, out = _run(main, argv)
                            yield argv, code, out
            yield from _refusals(main)
            yield from _time_columns(main)
        finally:
            os.chdir(cwd)


def main_digest(src: Path) -> int:
    for argv, code, data in _outputs(_import_cli(src)):
        print(_line(data, code, argv))
    return 0


def _max_relative_difference(old: str, new: str) -> float | None:
    """The largest |a - b| / max(|a|, |b|) over the numeric tokens of two
    outputs, or None when they differ in anything else."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    worst = 0.0
    for a, b in zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new))):
        if a != b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def _structure(argv: list[str], text: str):
    """What must not move with round-off: the edge set of a ``graph``
    output and the null windows of a ``window`` output; None for others."""
    as_json = "--json" in argv or "json" in argv  # window --json, graph --format json
    if argv[0] == "graph":
        if as_json:
            graph = json.loads(text)
            return ({(e["source"], e["target"]) for e in graph["edges"]}
                    | {(s["node"], s["node"]) for s in graph["self_loops"] if s["included"]})
        return set(re.findall(r'^\s*"([^"]*)" -> "([^"]*)"', text, re.MULTILINE))
    if argv[0] == "window":
        if as_json:
            return {(pair, w) for pair, values in json.loads(text)["series"].items()
                    for w, value in enumerate(values) if value is None}
        rows = [row.split(",")[1:] for row in text.splitlines()[1:]]
        return {(w, c) for w, row in enumerate(rows) for c, cell in enumerate(row) if cell == ""}
    return None


def main_compare(old: Path, new: Path) -> int:
    runs = [list(_outputs(_import_cli(src))) for src in (old, new)]
    identical = spacing = numeric = other = 0
    worst = 0.0
    counts = {"exit codes": [0, 0], "graph edge sets": [0, 0], "window nulls": [0, 0]}  # [same, compared]
    for (argv, old_code, old_out), (_, new_code, new_out) in zip(*runs):
        same_code = old_code == new_code
        counts["exit codes"][0] += same_code
        counts["exit codes"][1] += 1
        old_text, new_text = old_out.decode("utf-8"), new_out.decode("utf-8")
        shape = None
        if old_code == 0 and new_code == 0 and argv[0] in ("graph", "window"):
            shape = _structure(argv, old_text) == _structure(argv, new_text)
            key = "graph edge sets" if argv[0] == "graph" else "window nulls"
            counts[key][0] += shape
            counts[key][1] += 1
        if same_code and old_out == new_out:
            identical += 1
            continue
        relative = _max_relative_difference(old_text, new_text)
        if "".join(old_text.split()) == "".join(new_text.split()):
            spacing += 1
            what = "whitespace only"
        elif relative is None:
            other += 1
            what = "differs beyond numbers"
        else:
            numeric += 1
            worst = max(worst, relative)
            what = f"numbers only, max rel {relative:.2g}"
        notes = [what, "exit codes same" if same_code else f"exit codes {old_code} -> {new_code}"]
        if shape is not None:
            notes.append(("edges" if argv[0] == "graph" else "nulls") + (" same" if shape else " DIFFER"))
        print(f"{'; '.join(notes)}  {' '.join(argv)}")
    print(f"# {len(runs[0])} outputs: {identical} identical, {spacing} differ only in whitespace,"
          f" {numeric} differ only in numbers (max rel {worst:.2g}), {other} differ otherwise")
    print("# " + "; ".join(f"{name} identical {same}/{total}" for name, (same, total) in counts.items()))
    agree = other == 0 and all(same == total for same, total in counts.values())
    return 0 if agree else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        if len(sys.argv) != 4:
            raise SystemExit("usage: cli_digest.py --compare OLD NEW")
        sys.exit(main_compare(Path(sys.argv[2]), Path(sys.argv[3])))
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    sys.exit(main_digest(root))
